package population

import (
	"fmt"
	"strings"

	"repro/internal/domainname"
	"repro/internal/rng"
)

// nameGen synthesises plausible domain names: pronounceable brand
// labels, realistic TLD mix, service subdomain labels, deep junk
// chains, and invalid-TLD device names.
type nameGen struct {
	r    *rng.Rand
	seen map[string]struct{}
	tlds *rng.Alias
	tldz []string
}

var consonants = []string{
	"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
	"s", "t", "v", "w", "z", "st", "tr", "ch", "sh", "br", "cl", "gr",
}

var vowels = []string{"a", "e", "i", "o", "u", "ai", "ea", "io", "oo"}

var brandSuffixes = []string{
	"", "", "", "", "hub", "lab", "ify", "ly", "io", "zone", "spot",
	"base", "box", "flow", "wave", "cast", "mart", "press", "works",
}

// tldMix approximates the TLD distribution of real top lists: heavy
// com, a band of other gTLDs and ccTLDs, and a tail across the whole
// registry.
var tldMix = []struct {
	tld string
	w   float64
}{
	{"com", 46}, {"net", 6.5}, {"org", 6}, {"de", 4}, {"ru", 3.5},
	{"co.uk", 2.5}, {"fr", 2}, {"nl", 1.5}, {"it", 1.5}, {"br", 0}, // br replaced by com.br below
	{"com.br", 1.8}, {"pl", 1.4}, {"io", 1.3}, {"co.jp", 1.2},
	{"es", 1.1}, {"ca", 1}, {"com.au", 1}, {"in", 1}, {"info", 0.9},
	{"eu", 0.8}, {"ch", 0.8}, {"se", 0.7}, {"cn", 0.7}, {"xyz", 0.7},
	{"biz", 0.5}, {"us", 0.5}, {"online", 0.4}, {"top", 0.4},
	{"site", 0.3}, {"shop", 0.3}, {"app", 0.3}, {"dev", 0.25},
	{"club", 0.25}, {"tv", 0.25}, {"me", 0.25}, {"co", 0.25},
	{"cz", 0.2}, {"at", 0.2}, {"be", 0.2}, {"dk", 0.2}, {"no", 0.2},
	{"fi", 0.2}, {"gr", 0.15}, {"ro", 0.15}, {"hu", 0.15},
	{"pt", 0.15}, {"sk", 0.1}, {"tw", 0.1}, {"vn", 0.1}, {"id", 0.1},
	{"ir", 0.3}, {"ua", 0.3}, {"kr", 0.15}, {"mx", 0.3}, {"tr", 0.3},
	{"ar", 0.15}, {"cl", 0.1}, {"co.in", 0.2}, {"co.za", 0.2},
	{"co.nz", 0.15}, {"news", 0.1}, {"blog", 0.1}, {"live", 0.1},
	{"media", 0.1}, {"tech", 0.15}, {"store", 0.1}, {"space", 0.1},
	{"world", 0.1}, {"today", 0.1}, {"life", 0.1}, {"guru", 0.05},
	{"ninja", 0.05}, {"rocks", 0.05}, {"icu", 0.1}, {"one", 0.05},
}

var serviceLabels = []string{
	"www", "mail", "api", "cdn", "static", "img", "m", "shop", "blog",
	"login", "app", "dev", "test", "ns1", "ns2", "smtp", "vpn", "ftp",
	"portal", "docs", "assets", "media", "video", "events", "beacon",
	"metrics", "ads", "track", "pixel", "sync", "edge", "push",
}

// newNameGen returns a generator whose uniqueness index is sized for
// about size names.
func newNameGen(r *rng.Rand, size int) *nameGen {
	g := &nameGen{r: r, seen: make(map[string]struct{}, size)}
	weights := make([]float64, 0, len(tldMix))
	g.tldz = make([]string, 0, len(tldMix))
	for _, e := range tldMix {
		if e.w <= 0 {
			continue
		}
		g.tldz = append(g.tldz, e.tld)
		weights = append(weights, e.w)
	}
	g.tlds = rng.NewAlias(r.Derive("tlds"), weights)
	return g
}

// brandLabel returns a pronounceable label of 2–4 syllables.
func (g *nameGen) brandLabel() string {
	var b strings.Builder
	n := 2 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		b.WriteString(consonants[g.r.Intn(len(consonants))])
		b.WriteString(vowels[g.r.Intn(len(vowels))])
	}
	b.WriteString(brandSuffixes[g.r.Intn(len(brandSuffixes))])
	return b.String()
}

// baseDomain returns a fresh base domain (eTLD+1), unique across the
// generator's lifetime, parsed.
func (g *nameGen) baseDomain() domainname.Name {
	for {
		name := g.brandLabel() + "." + g.tldz[g.tlds.Next()]
		if _, dup := g.seen[name]; dup {
			continue
		}
		pn, err := domainname.Parse(name)
		if err != nil {
			continue
		}
		g.seen[name] = struct{}{}
		return pn
	}
}

// junkName returns a device-style name under an invalid TLD
// (printer.localdomain), unique across the generator's lifetime.
func (g *nameGen) junkName() string {
	devices := []string{
		"printer", "nas", "router", "camera", "tv", "thermostat",
		"desktop", "laptop", "phone", "hub", "sensor", "gateway",
		"dvr", "setupbox", "ap", "switch", "plc", "scanner",
	}
	invalid := domainname.InvalidTLDSamples()
	for {
		name := fmt.Sprintf("%s-%04d.%s",
			devices[g.r.Intn(len(devices))], g.r.Intn(10000),
			invalid[g.r.Intn(len(invalid))])
		if _, dup := g.seen[name]; dup {
			continue
		}
		g.seen[name] = struct{}{}
		return name
	}
}

// platformName returns a unique user-site name on a platform suffix,
// e.g. "blog-katora.blogspot.com".
func (g *nameGen) platformName(label, suffix string) string {
	for {
		name := fmt.Sprintf("%s-%s.%s", label, g.brandLabel(), suffix)
		if _, dup := g.seen[name]; dup {
			continue
		}
		g.seen[name] = struct{}{}
		return name
	}
}

// subdomainOf returns a subdomain of base at the given extra depth
// (>=1), parsed: depth 1 uses a service label, deeper names chain
// random labels. Uniqueness is guaranteed by suffixing a counter on
// collision.
func (g *nameGen) subdomainOf(base string, depth int) domainname.Name {
	for attempt := 0; ; attempt++ {
		var labels []string
		labels = append(labels, serviceLabels[g.r.Intn(len(serviceLabels))])
		for i := 1; i < depth; i++ {
			l := g.brandLabel()
			k := 3 + g.r.Intn(3)
			if k > len(l) {
				k = len(l)
			}
			labels = append(labels, l[:k])
		}
		if attempt > 0 {
			labels[0] = fmt.Sprintf("%s%d", labels[0], attempt)
		}
		name := strings.Join(labels, ".") + "." + base
		if _, dup := g.seen[name]; dup {
			continue
		}
		pn, err := domainname.Parse(name)
		if err != nil {
			continue
		}
		g.seen[name] = struct{}{}
		return pn
	}
}

// oidChain returns an extreme-depth name (the paper observed subdomain
// levels up to 33 in Umbrella, e.g. '.'-separated OIDs).
func (g *nameGen) oidChain(base string, depth int) string {
	labels := make([]string, depth)
	for i := range labels {
		labels[i] = fmt.Sprintf("%d", g.r.Intn(40))
	}
	name := strings.Join(labels, ".") + "." + base
	g.seen[name] = struct{}{}
	return name
}
