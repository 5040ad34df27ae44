package population

import (
	"strconv"

	"repro/internal/domainname"
	"repro/internal/rng"
)

// nameGen synthesises plausible domain names: pronounceable brand
// labels, realistic TLD mix, service subdomain labels, deep junk
// chains, and invalid-TLD device names. It hands each name out once.
// Its uniqueness set is the world's name index (World.byName), which
// maps every name to its record ID: records are numbered in the order
// their names enter the index, so a new name's ID is the index's
// length.
type nameGen struct {
	r     *rng.Rand
	names map[string]uint32
	tlds  *rng.Alias
	buf   []byte // the name being built
}

// unclaimed marks the index entry of a www. record the world named
// itself. The generator has not handed that name out, so it may still
// produce it, once; the world then keeps the record it has.
const unclaimed = 1 << 31

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
	{"co.uk", 2.5}, {"fr", 2}, {"nl", 1.5}, {"it", 1.5},
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

// tldParses and tldWeights hold each tldMix entry's parse, from which
// a brand domain under it derives its own, and its weight.
var tldParses, tldWeights = func() (parses []nameParse, weights []float64) {
	for _, e := range tldMix {
		p, err := parseName(e.tld)
		if err != nil {
			panic(err)
		}
		parses, weights = append(parses, p), append(weights, e.w)
	}
	return parses, weights
}()

var serviceLabels = []string{
	"www", "mail", "api", "cdn", "static", "img", "m", "shop", "blog",
	"login", "app", "dev", "test", "ns1", "ns2", "smtp", "vpn", "ftp",
	"portal", "docs", "assets", "media", "video", "events", "beacon",
	"metrics", "ads", "track", "pixel", "sync", "edge", "push",
}

// devices name the junk hosts under invalidTLDs.
var (
	devices = []string{
		"printer", "nas", "router", "camera", "tv", "thermostat",
		"desktop", "laptop", "phone", "hub", "sensor", "gateway",
		"dvr", "setupbox", "ap", "switch", "plc", "scanner",
	}
	invalidTLDs = domainname.InvalidTLDSamples()
)

// nameParse is what a record keeps of its name's parse.
type nameParse struct {
	base     string // the base domain, or the name itself if it has none
	depth    uint8
	validTLD bool
	suffix   bool // the name is itself a public suffix
}

// parseName parses a name whose parse the generator cannot derive.
func parseName(name string) (nameParse, error) {
	pn, err := domainname.Parse(name)
	if err != nil {
		return nameParse{}, err
	}
	p := nameParse{base: pn.Base, depth: uint8(pn.Depth), validTLD: pn.ValidTLD}
	if p.base == "" {
		p.base, p.suffix = pn.FQDN, true
	}
	return p, nil
}

// below returns the parse of name, made of labels new labels on parent,
// whose parse is p. Where name inherits parent's public suffix it keeps
// parent's base and is deeper by labels, or is the base itself when it
// is one label on a suffix. Elsewhere the PSL could disagree, so name
// is parsed. Generated labels are valid and generated names short, so
// only the suffix is in question.
func (p nameParse) below(name, parent string, labels int) (nameParse, error) {
	switch {
	case !domainname.InheritsSuffix(name, parent):
	case !p.suffix:
		return nameParse{base: p.base, depth: p.depth + uint8(labels), validTLD: p.validTLD}, nil
	case labels == 1:
		return nameParse{base: name, validTLD: p.validTLD}, nil
	}
	return parseName(name)
}

// newNameGen returns a generator over the name index names.
func newNameGen(r *rng.Rand, names map[string]uint32) *nameGen {
	return &nameGen{r: r, names: names, tlds: rng.NewAlias(r.Derive("tlds"), tldWeights)}
}

// appendBrand appends a pronounceable label of 2–4 syllables to b.
func (g *nameGen) appendBrand(b []byte) []byte {
	n := 2 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		b = append(b, consonants[g.r.Intn(len(consonants))]...)
		b = append(b, vowels[g.r.Intn(len(vowels))]...)
	}
	return append(b, brandSuffixes[g.r.Intn(len(brandSuffixes))]...)
}

// lookup reports whether the generator may hand out the name in g.buf,
// and whether the world already has a record of it: an unclaimed www.
// name is both.
func (g *nameGen) lookup() (free, held bool) {
	id, ok := g.names[string(g.buf)]
	return !ok || id&unclaimed != 0, ok
}

// claim hands out name, which lookup found free. A new name enters the
// index with the ID of the record it is about to get; a held one keeps
// its record.
func (g *nameGen) claim(name string, held bool) {
	if held {
		g.names[name] &^= unclaimed
	} else {
		g.names[name] = uint32(len(g.names))
	}
}

// take hands out the name in g.buf, whose parse is left to the caller,
// unless the generator handed it out before.
func (g *nameGen) take() (string, bool) {
	free, held := g.lookup()
	if !free {
		return "", false
	}
	name := string(g.buf)
	g.claim(name, held)
	return name, true
}

// baseDomain returns a fresh base domain (eTLD+1), unique across the
// generator's lifetime, with its parse.
func (g *nameGen) baseDomain() (string, nameParse) {
	for {
		b := append(g.appendBrand(g.buf[:0]), '.')
		i := g.tlds.Next()
		g.buf = append(b, tldMix[i].tld...)
		free, held := g.lookup()
		if !free {
			continue
		}
		name := string(g.buf)
		p, err := tldParses[i].below(name, tldMix[i].tld, 1)
		if err != nil {
			continue
		}
		g.claim(name, held)
		return name, p
	}
}

// junkName returns a device-style name under an invalid TLD
// (printer-0042.localdomain), unique across the generator's lifetime.
func (g *nameGen) junkName() string {
	for {
		b := append(g.buf[:0], devices[g.r.Intn(len(devices))]...)
		n := g.r.Intn(10000)
		b = append(b, '-', byte('0'+n/1000), byte('0'+n/100%10), byte('0'+n/10%10), byte('0'+n%10), '.')
		g.buf = append(b, invalidTLDs[g.r.Intn(len(invalidTLDs))]...)
		if name, ok := g.take(); ok {
			return name
		}
	}
}

// platformName returns a unique user-site name on a platform suffix,
// e.g. "blog-katora.blogspot.com".
func (g *nameGen) platformName(label, suffix string) string {
	for {
		b := g.appendBrand(append(append(g.buf[:0], label...), '-'))
		g.buf = append(append(b, '.'), suffix...)
		if name, ok := g.take(); ok {
			return name
		}
	}
}

// subdomainOf returns a subdomain of the record parent, whose parse is
// pp, at the given extra depth (>=1), with its parse: depth 1 uses a
// service label, deeper names chain random labels. Uniqueness is
// guaranteed by suffixing a counter on collision. held reports a www.
// name the world already has a record of.
func (g *nameGen) subdomainOf(parent *Domain, pp nameParse, depth int) (name string, p nameParse, held bool) {
	for attempt := 0; ; attempt++ {
		b := append(g.buf[:0], serviceLabels[g.r.Intn(len(serviceLabels))]...)
		if attempt > 0 {
			b = strconv.AppendInt(b, int64(attempt), 10)
		}
		for i := 1; i < depth; i++ {
			b = append(b, '.')
			start := len(b)
			b = g.appendBrand(b)
			b = b[:start+min(3+g.r.Intn(3), len(b)-start)]
		}
		g.buf = append(append(b, '.'), parent.Name...)
		free, held := g.lookup()
		if !free {
			continue
		}
		name := string(g.buf)
		p, err := pp.below(name, parent.Name, depth)
		if err != nil {
			continue
		}
		g.claim(name, held)
		return name, p, held
	}
}

// oidChain returns an extreme-depth name (the paper observed subdomain
// levels up to 33 in Umbrella, e.g. '.'-separated OIDs).
func (g *nameGen) oidChain(base string, depth int) string {
	b := g.buf[:0]
	for i := 0; i < depth; i++ {
		b = append(strconv.AppendInt(b, int64(g.r.Intn(40)), 10), '.')
	}
	g.buf = append(b, base...)
	return string(g.buf)
}
