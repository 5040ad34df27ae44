package population

import (
	"fmt"
	"math"
)

// Config controls world generation. The zero value is not usable; start
// from DefaultConfig or TestConfig.
type Config struct {
	// Seed is the root seed; everything in the world and the downstream
	// simulation derives from it.
	Seed uint64
	// Days is the simulation horizon (the JOINT window length).
	Days int
	// Sites is the number of base domains existing at day 0.
	Sites int
	// BirthsPerDay is how many new base domains appear each day; they
	// drive the linear growth of the ever-seen domain count (Fig. 2a).
	BirthsPerDay int
	// TrendingFraction is the share of newborn domains that receive a
	// temporary popularity boost large enough to enter lists.
	TrendingFraction float64
	// DeathFraction is the share of day-0 sites that go NXDOMAIN at a
	// uniformly random day during the horizon.
	DeathFraction float64
	// ZipfExponent shapes the latent popularity tail.
	ZipfExponent float64
	// AxisSigma is the log-normal divergence between the three signal
	// axes; it is the primary knob for inter-list intersection (§5.2).
	AxisSigma float64
	// CategoryMix gives the probability of each category for day-0
	// sites. Must sum to ~1.
	CategoryMix [numCategories]float64
	// SmallASes is the size of the synthetic small-hosting AS tail.
	SmallASes int
	// SubdomainMean is the mean subdomain count for ordinary sites
	// (DNS-heavy categories get a higher mean).
	SubdomainMean float64
}

// DefaultConfig is the experiment scale used by EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Days:             180,
		Sites:            250_000,
		BirthsPerDay:     400,
		TrendingFraction: 0.25,
		DeathFraction:    0.02,
		ZipfExponent:     0.95,
		AxisSigma:        1.15,
		CategoryMix:      defaultMix(),
		SmallASes:        1500,
		SubdomainMean:    0.9,
	}
}

// TestConfig is a small, fast scale for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.Days = 35
	c.Sites = 12_000
	c.BirthsPerDay = 60
	c.SmallASes = 200
	return c
}

func defaultMix() [numCategories]float64 {
	var m [numCategories]float64
	m[CatWeb] = 0.26
	m[CatLeisure] = 0.13
	m[CatWork] = 0.10
	m[CatMedia] = 0.07
	m[CatShopping] = 0.09
	m[CatTracker] = 0.07
	m[CatMobile] = 0.08
	m[CatCDNAsset] = 0.05
	m[CatIoT] = 0.05
	m[CatJunk] = 0.06
	m[CatGhost] = 0.04
	return m
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Days < 8 {
		return fmt.Errorf("population: Days must be >= 8 (weekly analyses need full weeks), got %d", c.Days)
	}
	if c.Sites < 100 {
		return fmt.Errorf("population: Sites must be >= 100, got %d", c.Sites)
	}
	if c.BirthsPerDay < 0 || c.DeathFraction < 0 || c.DeathFraction > 1 {
		return fmt.Errorf("population: invalid birth/death parameters")
	}
	if c.ZipfExponent <= 0 {
		return fmt.Errorf("population: ZipfExponent must be positive")
	}
	if c.AxisSigma < 0 {
		return fmt.Errorf("population: AxisSigma must be non-negative")
	}
	sum := 0.0
	for _, p := range c.CategoryMix {
		if p < 0 {
			return fmt.Errorf("population: negative category probability")
		}
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		return fmt.Errorf("population: CategoryMix sums to %v, want 1", sum)
	}
	return nil
}

// subdomainRate returns the Poisson mean of a base record's subdomain
// count and whether the record may also get a www. name. The generator
// gives junk bases no subdomains, whatever their rate.
func (c Config) subdomainRate(cat Category) (mean float64, www bool) {
	mean = c.SubdomainMean
	switch cat {
	case CatTracker, CatCDNAsset, CatMobile:
		mean *= 4
	case CatIoT, CatGhost:
		mean *= 2
	case CatWeb, CatLeisure, CatMedia, CatShopping, CatWork:
		www = true
	}
	return mean, www
}

// expectedRecords estimates a world's record count from the config:
// every base record plus its expected subdomains under the category
// mix, with a little headroom, so the record array and the name
// indexes are sized once.
func (c Config) expectedRecords() int {
	perBase := 1.0
	for cat, p := range c.CategoryMix {
		if Category(cat) == CatJunk {
			continue
		}
		mean, www := c.subdomainRate(Category(cat))
		if www {
			mean += 0.5
		}
		perBase += p * mean
	}
	n := float64(c.Sites+c.BirthsPerDay*(c.Days-1)) * perBase
	return int(n + 4*math.Sqrt(n))
}
