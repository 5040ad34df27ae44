package population

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rng"
	"repro/internal/simnet"
)

// Flags is a bitmask of infrastructure capabilities.
type Flags uint16

// Capability flags.
const (
	FlagIPv6 Flags = 1 << iota
	FlagCAA
	FlagTLS
	FlagHSTS
	FlagHTTP2
	FlagCNAME
)

// Has reports whether all bits in f are set.
func (fl Flags) Has(f Flags) bool { return fl&f == f }

// Domain is one name in the synthetic universe — either a base domain
// ("site") or a subdomain FQDN attached to one.
type Domain struct {
	Name     string
	Base     string
	BaseID   uint32 // index of the base record (== own index for bases)
	Category Category
	Depth    uint8 // PSL subdomain depth of Name
	ValidTLD bool

	// Latent is the shared underlying importance of the domain; the
	// three axis popularities are correlated through it.
	Latent float64
	// Latent popularity along the three provider signal axes.
	WebPop, DNSPop, LinkPop float64
	// WeekendFactor multiplies activity on Saturdays/Sundays.
	WeekendFactor float64
	// VolMul scales the per-day activity noise for this domain.
	VolMul float64
	// Seed drives cheap per-(domain, day) noise hashing.
	Seed uint64

	// BirthDay is when the domain comes into existence (0 = from the
	// start); DeathDay is when it stops resolving (-1 = never).
	BirthDay, DeathDay int32
	// TrendBoost/TrendTau describe a newborn's temporary popularity
	// spike: activity multiplier 1+TrendBoost*exp(-(day-birth)/tau).
	TrendBoost, TrendTau float64

	// Hosting infrastructure.
	IPv4  uint32
	ASN   uint32
	CDN   uint8 // CDN registry ID, 0 = none
	TTL   uint32
	Flags Flags
}

// Exists reports whether the domain resolves on the given day.
func (d *Domain) Exists(day int) bool {
	if d.Category.NeverResolves() {
		return false
	}
	if int32(day) < d.BirthDay {
		return false
	}
	return d.DeathDay < 0 || int32(day) < d.DeathDay
}

// Born reports whether the domain has come into existence by day
// (independent of later death); unborn domains generate no traffic.
func (d *Domain) Born(day int) bool { return int32(day) >= d.BirthDay }

// World is the synthetic universe plus its infrastructure registries.
type World struct {
	Cfg     Config
	Domains []Domain
	ASes    *simnet.ASRegistry
	CDNs    *simnet.CDNRegistry
	Routes  *simnet.RouteTable

	// byName is the one name index: every record's name to its ID,
	// marked unclaimed for www. names the generator never handed out.
	byName map[string]uint32
	// baseIDs indexes the base-domain records.
	baseIDs []uint32
}

// platformSpec describes a user-content platform whose per-user names
// drive the paper's Fig. 3b/3c SLD weekend dynamics.
type platformSpec struct {
	suffix   string
	category Category
	users    float64 // fraction of cfg.Sites
	label    string
}

var platforms = []platformSpec{
	{"blogspot.com", CatLeisure, 0.015, "blog"},
	{"blogspot.de", CatLeisure, 0.004, "blog"},
	{"blogspot.com.br", CatLeisure, 0.004, "blog"},
	{"tumblr.com", CatLeisure, 0.012, "blog"},
	{"sharepoint.com", CatWork, 0.012, "team"},
	{"ampproject.org", CatCDNAsset, 0.008, "cdn"},
	{"nflxso.net", CatCDNAsset, 0.004, "occ"},
	{"nessus.org", CatWork, 0.003, "plugins"},
}

// Build generates the world from cfg. Generation is deterministic in
// cfg.Seed.
func Build(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	records := cfg.expectedRecords()
	w := &World{
		Cfg:    cfg,
		ASes:   simnet.NewASRegistry(cfg.SmallASes),
		CDNs:   simnet.NewCDNRegistry(),
		byName: make(map[string]uint32, records),
	}
	w.Routes = simnet.NewRouteTableFromRegistry(w.ASes)

	gen := newNameGen(root.Derive("names"), w.byName)
	catAlias := rng.NewAlias(root.Derive("cats"), cfg.CategoryMix[:])

	// --- Base domains -------------------------------------------------
	births := cfg.BirthsPerDay * (cfg.Days - 1)
	nBase := cfg.Sites + births
	type baseSpec struct {
		name  string
		cat   Category
		birth int32
		// parse is the generator's parse of a brand domain; platform
		// and junk names are parsed below.
		parse nameParse
	}
	specs := make([]baseSpec, 0, nBase)
	// Platform user sites replace part of the day-0 site budget.
	platformUsers := 0
	for _, p := range platforms {
		n := int(p.users * float64(cfg.Sites))
		platformUsers += n
		for i := 0; i < n; i++ {
			specs = append(specs, baseSpec{name: gen.platformName(p.label, p.suffix), cat: p.category})
		}
	}
	// site draws a fresh base record of category cat born on birth.
	site := func(cat Category, birth int32) baseSpec {
		if cat == CatJunk {
			return baseSpec{name: gen.junkName(), cat: cat, birth: birth}
		}
		name, p := gen.baseDomain()
		return baseSpec{name: name, cat: cat, birth: birth, parse: p}
	}
	for i := platformUsers; i < cfg.Sites; i++ {
		specs = append(specs, site(Category(catAlias.Next()), 0))
	}
	// Newborns, spread uniformly over days 1..Days-1.
	for d := 1; d < cfg.Days; d++ {
		for i := 0; i < cfg.BirthsPerDay; i++ {
			specs = append(specs, site(Category(catAlias.Next()), int32(d)))
		}
	}
	nBase = len(specs)

	// Latent popularity: a random permutation assigns Zipf ranks.
	perm := root.Derive("zipf").Perm(nBase)
	popR := root.Derive("pop")
	lifeR := root.Derive("life")
	trendR := root.Derive("trend")

	w.Domains = make([]Domain, 0, records)
	// suffix[id] reports a base record whose name is itself a public
	// suffix: names below it are parsed, not derived from it.
	suffix := make([]bool, 0, nBase)
	for i, sp := range specs {
		g := rng.ZipfWeight(perm[i]+1, cfg.ZipfExponent)
		ax := categoryAxis[sp.cat]
		d := Domain{
			Name:          sp.name,
			Category:      sp.cat,
			BirthDay:      sp.birth,
			DeathDay:      -1,
			Latent:        g,
			WebPop:        g * ax.web * popR.LogNormal(0, cfg.AxisSigma),
			DNSPop:        g * ax.dns * popR.LogNormal(0, cfg.AxisSigma),
			LinkPop:       g * ax.link * popR.LogNormal(0, cfg.AxisSigma),
			WeekendFactor: categoryWeekend[sp.cat] * popR.LogNormal(0, 0.10),
			VolMul:        popR.Range(0.6, 1.4),
			Seed:          popR.Uint64(),
		}
		p := sp.parse
		if p.base == "" {
			var err error
			if p, err = parseName(sp.name); err != nil {
				return nil, fmt.Errorf("population: generated bad name %q: %v", sp.name, err)
			}
		}
		d.Base, d.Depth, d.ValidTLD = p.base, p.depth, p.validTLD
		suffix = append(suffix, p.suffix)
		// Death process for day-0 real sites.
		if sp.birth == 0 && !sp.cat.NeverResolves() && lifeR.Bool(cfg.DeathFraction) {
			d.DeathDay = int32(1 + lifeR.Intn(cfg.Days-1))
		}
		// Trending newborns.
		if sp.birth > 0 && trendR.Bool(cfg.TrendingFraction) {
			u := trendR.Float64()
			targetRank := 1 + int(u*u*float64(nBase)*0.3)
			target := rng.ZipfWeight(targetRank, cfg.ZipfExponent)
			if target > g {
				d.TrendBoost = target/g - 1
			}
			d.TrendTau = trendR.Range(3, 25)
		}
		id := uint32(len(w.Domains))
		d.BaseID = id
		w.Domains = append(w.Domains, d)
		w.baseIDs = append(w.baseIDs, id)
	}

	// Popularity quantiles (by the shared latent; WebPop correlates) —
	// used for infrastructure attribute assignment.
	w.assignInfrastructure(root.Derive("infra"))

	// --- Subdomains ----------------------------------------------------
	w.generateSubdomains(gen, root.Derive("subs"), suffix)

	return w, nil
}

// assignInfrastructure draws attributes for every base domain from the
// adoption curves at the domain's popularity quantile, then assigns
// hosting (CDN, AS, IPv4, TTL).
func (w *World) assignInfrastructure(r *rng.Rand) {
	n := len(w.baseIDs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := &w.Domains[w.baseIDs[order[a]]], &w.Domains[w.baseIDs[order[b]]]
		return da.Latent > db.Latent
	})
	quantile := make([]float64, n)
	for rank, idx := range order {
		quantile[idx] = float64(rank+1) / float64(n)
	}

	massASes := w.ASes.ByRole(simnet.RoleMassHosting)
	cloudASes := w.ASes.ByRole(simnet.RoleCloud)
	smallASes := w.ASes.ByRole(simnet.RoleSmall)
	// Intra-role weights: GoDaddy dominates mass hosting; Google
	// dominates tail cloud (private hosted sites).
	massW := []float64{10, 3, 2.2, 1.2, 1.2}[:len(massASes)]
	cloudW := []float64{5, 2.5, 1.5, 2, 1}[:len(cloudASes)]

	for i, bid := range w.baseIDs {
		d := &w.Domains[bid]
		q := quantile[i]
		// Head domains serve the whole population and barely shift on
		// weekends (the paper finds top domains far more stable, §6.2);
		// attenuate the weekend factor toward 1 with popularity.
		atten := (math.Log10(q+1e-9) + 5) / 5
		if atten < 0.15 {
			atten = 0.15
		}
		if atten > 1 {
			atten = 1
		}
		d.WeekendFactor = 1 + (d.WeekendFactor-1)*atten
		at := categoryAttr[d.Category]
		// lq feeds the curves; t places q on a log scale from the head
		// (q=1e-5, 0) to the tail (q=1, 1), below 0 past the head.
		lq, t := math.Log10(q), (math.Log10(clampQ(q))+5)/5
		var fl Flags
		if r.Bool(scaled(curveIPv6.eval(q, lq), at.ipv6)) {
			fl |= FlagIPv6
		}
		if r.Bool(scaled(curveCAA.eval(q, lq), at.caa)) {
			fl |= FlagCAA
		}
		if tls := curveTLS.eval(q, lq); r.Bool(scaled(tls, at.tls)) {
			fl |= FlagTLS
			if r.Bool(scaled(curveHSTS.eval(q, lq), at.hsts)) {
				fl |= FlagHSTS
			}
			if r.Bool(scaled(curveH2.eval(q, lq)/math.Max(tls, 1e-9), at.h2)) {
				fl |= FlagHTTP2
			}
		}
		if d.Category.NeverResolves() {
			fl = 0
		}
		// CDN.
		if !d.Category.NeverResolves() && r.Bool(scaled(curveCDN.eval(q, lq), at.cdn)) {
			weights := cdnChoiceWeights(t)
			d.CDN = uint8(r.WeightedChoice(weights[:]))
			if d.CDN != 0 {
				fl |= FlagCNAME
			}
		}
		if d.CDN == 0 && !d.Category.NeverResolves() && r.Bool(0.45) {
			fl |= FlagCNAME // non-CDN CNAME (hosting panel aliases)
		}
		d.Flags = fl
		// AS + address.
		var as *simnet.AS
		if d.CDN != 0 {
			cdn := w.CDNs.ByID(d.CDN)
			as = w.ASes.ByNumber(cdn.ASN)
		}
		if as == nil {
			mass, cloud, _ := hostingRoleWeights(t)
			u := r.Float64()
			switch {
			case u < mass:
				as = pick(r, massASes, massW)
			case u < mass+cloud:
				as = pick(r, cloudASes, cloudW)
			default:
				as = &smallASes[r.Intn(len(smallASes))]
			}
		}
		d.ASN = as.Number
		p := as.Prefixes[r.Intn(len(as.Prefixes))]
		hostBits := uint(32 - p.Bits)
		d.IPv4 = p.Addr | (uint32(r.Uint64()) & ((1 << hostBits) - 1))
		// TTL.
		weights := ttlWeights(t)
		d.TTL = ttlBuckets[r.WeightedChoice(weights[:])]
	}
}

func pick(r *rng.Rand, ases []simnet.AS, weights []float64) *simnet.AS {
	return &ases[r.WeightedChoice(weights)]
}

// generateSubdomains attaches FQDN records to base domains. Only the
// DNS axis sees most of them (Umbrella's depth skew, Table 2); web and
// link popularity stay concentrated on the base. suffix[i] reports
// that base record i is a public suffix.
func (w *World) generateSubdomains(gen *nameGen, r *rng.Rand, suffix []bool) {
	baseCount := len(w.baseIDs)
	// The extreme-depth OID chain (Umbrella's SDM 33) goes to the most
	// DNS-popular tracker so it reliably ranks.
	bestTracker := uint32(0)
	bestPop := -1.0
	for _, bid := range w.baseIDs {
		d := &w.Domains[bid]
		if d.Category == CatTracker && d.DNSPop > bestPop {
			bestTracker, bestPop = bid, d.DNSPop
		}
	}
	for i := 0; i < baseCount; i++ {
		bid := w.baseIDs[i]
		// NOTE: w.Domains may reallocate during append; re-take the
		// pointer each iteration and copy needed fields first.
		parent := w.Domains[bid]
		if parent.Category == CatJunk {
			continue
		}
		pp := nameParse{base: parent.Base, depth: parent.Depth, validTLD: parent.ValidTLD, suffix: suffix[bid]}
		mean, www := w.Cfg.subdomainRate(parent.Category)
		nSub := r.Poisson(mean)
		if www && r.Bool(0.5) {
			nSub++ // a www. name
		}
		if nSub == 0 {
			continue
		}
		for s := 0; s < nSub; s++ {
			depth := 1
			u := r.Float64()
			switch {
			case u < 0.70:
				depth = 1
			case u < 0.90:
				depth = 2
			case u < 0.98:
				depth = 3
			default:
				depth = 4 + r.Intn(5)
			}
			if s == 0 && depth == 1 && r.Bool(0.6) {
				name := "www." + parent.Name
				if _, dup := w.byName[name]; !dup {
					if p, err := pp.below(name, parent.Name, 1); err == nil {
						w.byName[name] = uint32(len(w.Domains)) | unclaimed
						w.addSubdomain(name, p, bid, &parent, r)
					}
					continue
				}
			}
			// A held name is a www. record this base already has.
			if name, p, held := gen.subdomainOf(&parent, pp, depth); !held {
				w.addSubdomain(name, p, bid, &parent, r)
			}
		}
	}
	if bestPop > 0 {
		parent := w.Domains[bestTracker]
		name := gen.oidChain(parent.Name, 33)
		w.addSubdomainName(name, bestTracker, &parent, r)
		if id, ok := w.IDByName(name); ok {
			// Give the chain a solid share of the tracker's resolution
			// volume so it ranks the way the paper observed.
			w.Domains[id].DNSPop = parent.DNSPop * 0.5
		}
	}
}

// addSubdomainName is addSubdomain for a name the generator did not
// check: it is parsed, and skipped if it does not parse or the world
// already has it.
func (w *World) addSubdomainName(name string, bid uint32, parent *Domain, r *rng.Rand) {
	if _, dup := w.byName[name]; dup {
		return
	}
	if p, err := parseName(name); err == nil {
		w.byName[name] = uint32(len(w.Domains))
		w.addSubdomain(name, p, bid, parent, r)
	}
}

// addSubdomain appends the record of name, whose parse is p, under base
// record bid. The name is already in the index under the new record's
// ID.
func (w *World) addSubdomain(name string, p nameParse, bid uint32, parent *Domain, r *rng.Rand) {
	// Service subdomains (api., tracking beacons, mail hosts, …) often
	// serve no web content at all: zgrab-style probes fail where the
	// base domain would succeed. This is what pulls Umbrella's TLS and
	// HTTP/2 shares below the web lists' in the paper's Table 5.
	flags := parent.Flags
	if !strings.HasPrefix(name, "www.") {
		keep := 0.55
		if p.depth >= 2 {
			keep = 0.30
		}
		if !r.Bool(keep) {
			flags &^= FlagTLS | FlagHSTS | FlagHTTP2
		}
	}
	d := Domain{
		Name:          name,
		Base:          parent.Base,
		BaseID:        bid,
		Category:      parent.Category,
		Depth:         p.depth,
		ValidTLD:      p.validTLD,
		WebPop:        parent.WebPop * r.Range(0.005, 0.06),
		DNSPop:        parent.DNSPop * r.Range(0.05, 0.8),
		LinkPop:       parent.LinkPop * r.Range(0.001, 0.04),
		WeekendFactor: parent.WeekendFactor,
		VolMul:        parent.VolMul * r.Range(0.8, 1.2),
		Seed:          r.Uint64(),
		BirthDay:      parent.BirthDay,
		DeathDay:      parent.DeathDay,
		IPv4:          parent.IPv4,
		ASN:           parent.ASN,
		CDN:           parent.CDN,
		TTL:           parent.TTL,
		Flags:         flags,
	}
	w.Domains = append(w.Domains, d)
}

// Len reports the number of domain records (bases + subdomains).
func (w *World) Len() int { return len(w.Domains) }

// BaseCount reports the number of base records.
func (w *World) BaseCount() int { return len(w.baseIDs) }

// BaseIDs returns the base-record indexes (shared slice; do not
// modify).
func (w *World) BaseIDs() []uint32 { return w.baseIDs }

// IDByName returns the record index for a name.
func (w *World) IDByName(name string) (uint32, bool) {
	id, ok := w.byName[name]
	return id &^ unclaimed, ok
}

// ComNetOrg returns the "general population" sample: the registered
// com/net/org domains (exactly two labels — zone files list registered
// names, not platform subdomains) in existence by day, alive or dead —
// dead ones resolve NXDOMAIN, like the paper's 0.8 %. Ghost/junk names
// are not in zone files and are excluded.
func (w *World) ComNetOrg(day int) []uint32 {
	var out []uint32
	for _, bid := range w.baseIDs {
		d := &w.Domains[bid]
		if d.Category.NeverResolves() {
			continue
		}
		if !d.Born(day) {
			continue
		}
		if labelCount(d.Name) != 2 {
			continue
		}
		switch tld(d.Name) {
		case "com", "net", "org":
			out = append(out, bid)
		}
	}
	return out
}

// ZoneDomains returns the registered (two-label) domains under the
// given TLD that exist in zone-file terms by day — the raw material for
// exporting synthetic TLD zone files.
func (w *World) ZoneDomains(day int, tldName string) []string {
	var out []string
	for _, bid := range w.baseIDs {
		d := &w.Domains[bid]
		if d.Category.NeverResolves() || !d.Born(day) {
			continue
		}
		if labelCount(d.Name) != 2 || tld(d.Name) != tldName {
			continue
		}
		out = append(out, d.Name)
	}
	return out
}

func labelCount(name string) int {
	n := 1
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			n++
		}
	}
	return n
}

func tld(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
