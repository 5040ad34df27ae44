package population

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/domainname"
	"repro/internal/simnet"
)

func buildTest(t *testing.T) *World {
	t.Helper()
	w, err := Build(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildValidates(t *testing.T) {
	bad := TestConfig()
	bad.Days = 2
	if _, err := Build(bad); err == nil {
		t.Fatal("short horizon should fail validation")
	}
	bad = TestConfig()
	bad.CategoryMix[CatWeb] += 0.5
	if _, err := Build(bad); err == nil {
		t.Fatal("unnormalised mix should fail")
	}
	bad = TestConfig()
	bad.ZipfExponent = 0
	if _, err := Build(bad); err == nil {
		t.Fatal("zero exponent should fail")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Domains {
		if a.Domains[i].Name != b.Domains[i].Name ||
			a.Domains[i].DNSPop != b.Domains[i].DNSPop ||
			a.Domains[i].Flags != b.Domains[i].Flags {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestBuildSeedSensitive(t *testing.T) {
	cfg := TestConfig()
	a, _ := Build(cfg)
	cfg.Seed = 999
	b, _ := Build(cfg)
	diff := 0
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if a.Domains[i].Name != b.Domains[i].Name {
			diff++
		}
	}
	if diff < n/2 {
		t.Fatalf("different seeds produced %d/%d differing names", diff, n)
	}
}

func TestWorldComposition(t *testing.T) {
	w := buildTest(t)
	cfg := w.Cfg
	wantBases := cfg.Sites + cfg.BirthsPerDay*(cfg.Days-1)
	// Platform sizing truncation keeps this within a small margin.
	if got := w.BaseCount(); got < wantBases-20 || got > wantBases+20 {
		t.Fatalf("base count %d, want ≈%d", got, wantBases)
	}
	if w.Len() <= w.BaseCount() {
		t.Fatal("no subdomains generated")
	}
	// Names are unique.
	seen := make(map[string]struct{}, w.Len())
	for i := range w.Domains {
		name := w.Domains[i].Name
		if _, dup := seen[name]; dup {
			t.Fatalf("duplicate name %q", name)
		}
		seen[name] = struct{}{}
	}
}

// TestAllNamesParse: every record's name parses, and its stored Base,
// Depth and ValidTLD are Parse's, though Build derives most of them
// from the TLD mix or the parent record. It covers several TestConfig
// worlds and (without -short) the DefaultConfig one.
func TestAllNamesParse(t *testing.T) {
	var worlds []*World
	for _, seed := range []uint64{1, 2, 3, 601} {
		cfg := TestConfig()
		cfg.Seed = seed
		w, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, w)
	}
	if !testing.Short() {
		worlds = append(worlds, defaultWorld(t))
	}
	for _, w := range worlds {
		for i := range w.Domains {
			d := &w.Domains[i]
			pn, err := domainname.Parse(d.Name)
			if err != nil {
				t.Fatalf("seed %d: unparseable generated name: %v", w.Cfg.Seed, err)
			}
			base := pn.Base
			if base == "" {
				base = pn.FQDN
			}
			if d.Base != base || int(d.Depth) != pn.Depth || d.ValidTLD != pn.ValidTLD {
				t.Fatalf("%d sites, seed %d: record %d %q has base %q, depth %d, valid TLD %v; Parse gives %q, %d, %v",
					w.Cfg.Sites, w.Cfg.Seed, i, d.Name, d.Base, d.Depth, d.ValidTLD, base, pn.Depth, pn.ValidTLD)
			}
		}
	}
}

func TestCategoryInvariants(t *testing.T) {
	w := buildTest(t)
	var junk, ghost, tracker int
	maxDepth := 0
	for i := range w.Domains {
		d := &w.Domains[i]
		switch d.Category {
		case CatJunk:
			junk++
			if d.ValidTLD {
				t.Fatalf("junk name %q has a valid TLD", d.Name)
			}
			if d.Flags != 0 {
				t.Fatalf("junk name %q has capability flags", d.Name)
			}
		case CatGhost:
			ghost++
			if d.Exists(3) {
				t.Fatal("ghost domains must never resolve")
			}
		case CatTracker:
			tracker++
		}
		if int(d.Depth) > maxDepth {
			maxDepth = int(d.Depth)
		}
	}
	if junk == 0 || ghost == 0 || tracker == 0 {
		t.Fatalf("missing categories: junk=%d ghost=%d tracker=%d", junk, ghost, tracker)
	}
	if maxDepth < 20 {
		t.Fatalf("max depth %d; expected an extreme OID chain (paper: 33)", maxDepth)
	}
}

func TestBirthAndDeath(t *testing.T) {
	w := buildTest(t)
	births, deaths := 0, 0
	for _, bid := range w.BaseIDs() {
		d := &w.Domains[bid]
		if d.BirthDay > 0 {
			births++
			if d.Born(int(d.BirthDay) - 1) {
				t.Fatal("Born before BirthDay")
			}
			if !d.Born(int(d.BirthDay)) {
				t.Fatal("not Born on BirthDay")
			}
		}
		if d.DeathDay >= 0 {
			deaths++
			if d.Exists(int(d.DeathDay)) {
				t.Fatal("Exists on DeathDay")
			}
			if !d.Exists(int(d.DeathDay) - 1) {
				t.Fatal("should exist just before death")
			}
		}
	}
	cfg := w.Cfg
	if births != cfg.BirthsPerDay*(cfg.Days-1) {
		t.Fatalf("births %d", births)
	}
	if deaths == 0 {
		t.Fatal("no deaths")
	}
}

func TestTrendingNewborns(t *testing.T) {
	w := buildTest(t)
	trending := 0
	for _, bid := range w.BaseIDs() {
		d := &w.Domains[bid]
		if d.TrendBoost > 0 {
			trending++
			if d.BirthDay == 0 {
				t.Fatal("day-0 site has a trend boost")
			}
			if d.TrendTau <= 0 {
				t.Fatal("trend boost without decay constant")
			}
		}
	}
	if trending == 0 {
		t.Fatal("no trending newborns")
	}
}

func TestAdoptionBias(t *testing.T) {
	// The central Table 5 mechanism: adoption must fall with
	// popularity quantile.
	w := buildTest(t)
	bids := w.BaseIDs()
	// Order base domains by latent popularity.
	head, tail := 0.0, 0.0
	headN, tailN := 0, 0
	var headIPv6, tailIPv6, headTLS, tailTLS float64
	_ = head
	_ = tail
	// Head = top 1%, tail = bottom 50%.
	ordered := make([]uint32, len(bids))
	copy(ordered, bids)
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if w.Domains[ordered[j]].Latent > w.Domains[ordered[i]].Latent {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
		if i > len(bids)/100 {
			break // only need the head sorted; tail sampled below
		}
	}
	for i := 0; i <= len(bids)/100; i++ {
		d := &w.Domains[ordered[i]]
		headN++
		if d.Flags.Has(FlagIPv6) {
			headIPv6++
		}
		if d.Flags.Has(FlagTLS) {
			headTLS++
		}
	}
	for i := len(bids) / 2; i < len(bids); i++ {
		d := &w.Domains[bids[i]]
		if d.Category.NeverResolves() {
			continue
		}
		tailN++
		if d.Flags.Has(FlagIPv6) {
			tailIPv6++
		}
		if d.Flags.Has(FlagTLS) {
			tailTLS++
		}
	}
	if headN == 0 || tailN == 0 {
		t.Fatal("empty samples")
	}
	if headIPv6/float64(headN) <= tailIPv6/float64(tailN) {
		t.Fatalf("IPv6 adoption not popularity-biased: head %.3f tail %.3f",
			headIPv6/float64(headN), tailIPv6/float64(tailN))
	}
	if headTLS/float64(headN) <= tailTLS/float64(tailN) {
		t.Fatalf("TLS adoption not popularity-biased: head %.3f tail %.3f",
			headTLS/float64(headN), tailTLS/float64(tailN))
	}
}

func TestFlagImplications(t *testing.T) {
	w := buildTest(t)
	for i := range w.Domains {
		d := &w.Domains[i]
		if d.Flags.Has(FlagHSTS) && !d.Flags.Has(FlagTLS) {
			t.Fatalf("%q: HSTS without TLS", d.Name)
		}
		if d.Flags.Has(FlagHTTP2) && !d.Flags.Has(FlagTLS) {
			t.Fatalf("%q: HTTP2 without TLS", d.Name)
		}
		if d.CDN != 0 && !d.Flags.Has(FlagCNAME) {
			t.Fatalf("%q: CDN without CNAME", d.Name)
		}
	}
}

func TestInfrastructureConsistency(t *testing.T) {
	w := buildTest(t)
	for _, bid := range w.BaseIDs() {
		d := &w.Domains[bid]
		if d.Category.NeverResolves() {
			continue
		}
		if w.ASes.ByNumber(d.ASN) == nil {
			t.Fatalf("%q: unknown ASN %d", d.Name, d.ASN)
		}
		// The route table must map the address back to the AS.
		asn, ok := w.Routes.Lookup(d.IPv4)
		if !ok || asn != d.ASN {
			t.Fatalf("%q: IPv4 %08x routes to %d (ok=%v), want %d",
				d.Name, d.IPv4, asn, ok, d.ASN)
		}
		if d.CDN != 0 {
			cdn := w.CDNs.ByID(d.CDN)
			if cdn == nil {
				t.Fatalf("%q: unknown CDN %d", d.Name, d.CDN)
			}
			if d.ASN != cdn.ASN {
				t.Fatalf("%q: CDN %s but ASN %d", d.Name, cdn.Name, d.ASN)
			}
		}
		found := false
		for _, ttl := range []uint32{30, 60, 300, 900, 3600, 86400} {
			if d.TTL == ttl {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q: unexpected TTL %d", d.Name, d.TTL)
		}
	}
}

func TestZoneSemantics(t *testing.T) {
	w := buildTest(t)
	zone := w.ZoneAt(3)
	if got := zone.Lookup("definitely-not-generated.example"); got.RCode != simnet.RCodeNXDomain {
		t.Fatal("unknown names must be NXDOMAIN")
	}
	var alive, dead, junk, cdnHosted *Domain
	for i := range w.Domains {
		d := &w.Domains[i]
		switch {
		case d.Category == CatJunk && junk == nil:
			junk = d
		case d.DeathDay == 1 && dead == nil:
			dead = d
		case d.Exists(3) && d.CDN != 0 && cdnHosted == nil:
			cdnHosted = d
		case d.Exists(3) && alive == nil:
			alive = d
		}
	}
	if alive == nil || junk == nil || cdnHosted == nil {
		t.Fatal("missing fixtures")
	}
	if got := zone.Lookup(junk.Name); got.RCode != simnet.RCodeNXDomain {
		t.Fatal("junk must be NXDOMAIN")
	}
	if dead != nil {
		if got := zone.Lookup(dead.Name); got.RCode != simnet.RCodeNXDomain {
			t.Fatal("dead domain must be NXDOMAIN after death")
		}
		if got := w.ZoneAt(0).Lookup(dead.Name); got.RCode != simnet.RCodeNoError {
			t.Fatal("dead domain must resolve before death")
		}
	}
	got := zone.Lookup(alive.Name)
	if got.RCode != simnet.RCodeNoError || got.A != alive.IPv4 {
		t.Fatalf("alive lookup %+v", got)
	}
	if got.AAAA != alive.Flags.Has(FlagIPv6) {
		t.Fatal("AAAA mismatch")
	}
	resp := zone.Lookup(cdnHosted.Name)
	if len(resp.Chain) == 0 {
		t.Fatal("CDN-hosted name should present a CNAME chain")
	}
	if w.CDNs.Detect(resp.Chain[len(resp.Chain)-1]) != cdnHosted.CDN {
		t.Fatalf("CNAME target %q does not identify CDN %d", resp.Chain[0], cdnHosted.CDN)
	}
}

func TestProberSemantics(t *testing.T) {
	w := buildTest(t)
	prober := w.ProberAt(3)
	var tlsD, junkD *Domain
	for i := range w.Domains {
		d := &w.Domains[i]
		if d.Exists(3) && d.Flags.Has(FlagHSTS) && tlsD == nil {
			tlsD = d
		}
		if d.Category == CatJunk && junkD == nil {
			junkD = d
		}
	}
	if tlsD == nil || junkD == nil {
		t.Fatal("missing fixtures")
	}
	res := prober.Probe(tlsD.Name)
	if !res.Reachable || !res.TLS || !res.HSTSEnabled() {
		t.Fatalf("probe %+v", res)
	}
	if prober.Probe(junkD.Name).Reachable {
		t.Fatal("junk is unreachable")
	}
	if prober.Probe("nope.invalid").Reachable {
		t.Fatal("unknown is unreachable")
	}
	// HTTP/2 counts only for a landing page reached within the
	// campaign's redirect limit.
	for i := range w.Domains {
		if res := prober.Probe(w.Domains[i].Name); res.HTTP2 && (!res.Reachable || res.Redirects > simnet.MaxRedirects) {
			t.Fatalf("%s: HTTP/2 past the redirect limit or unreachable: %+v", w.Domains[i].Name, res)
		}
	}
}

func TestComNetOrgPopulation(t *testing.T) {
	w := buildTest(t)
	pop := w.ComNetOrg(0)
	if len(pop) == 0 {
		t.Fatal("empty population")
	}
	for _, id := range pop {
		d := &w.Domains[id]
		switch tld(d.Name) {
		case "com", "net", "org":
		default:
			t.Fatalf("population contains %q", d.Name)
		}
		if labelCount(d.Name) != 2 {
			t.Fatalf("population contains non-registered name %q", d.Name)
		}
		if d.Category.NeverResolves() {
			t.Fatalf("population contains ghost/junk %q", d.Name)
		}
	}
	// Population grows with births.
	if len(w.ComNetOrg(w.Cfg.Days-1)) <= len(pop) {
		t.Fatal("population should grow over time")
	}
	// NXDOMAIN share of the population should be ~DeathFraction/2 at
	// the end of the horizon (deaths spread uniformly), well under 5%.
	endDay := w.Cfg.Days - 1
	end := w.ComNetOrg(endDay)
	dead := 0
	for _, id := range end {
		if !w.Domains[id].Exists(endDay) {
			dead++
		}
	}
	frac := float64(dead) / float64(len(end))
	if frac <= 0 || frac > 0.05 {
		t.Fatalf("population NXDOMAIN share %.4f out of expected band", frac)
	}
}

func TestWeekendFactorsByCategory(t *testing.T) {
	w := buildTest(t)
	sums := make(map[Category]float64)
	counts := make(map[Category]int)
	for _, bid := range w.BaseIDs() {
		d := &w.Domains[bid]
		sums[d.Category] += d.WeekendFactor
		counts[d.Category]++
	}
	leisure := sums[CatLeisure] / float64(counts[CatLeisure])
	work := sums[CatWork] / float64(counts[CatWork])
	if leisure < 1.3 {
		t.Fatalf("leisure weekend factor %.2f too low", leisure)
	}
	if work > 0.8 {
		t.Fatalf("work weekend factor %.2f too high", work)
	}
}

func TestUmbrellaStyleDepthMix(t *testing.T) {
	// The DNS axis must see substantial subdomain mass (Umbrella's
	// 28%-base structure in Table 2 depends on it).
	w := buildTest(t)
	var baseDNS, subDNS float64
	for i := range w.Domains {
		d := &w.Domains[i]
		if d.Depth == 0 {
			baseDNS += d.DNSPop
		} else {
			subDNS += d.DNSPop
		}
	}
	if subDNS <= 0 {
		t.Fatal("no DNS mass on subdomains")
	}
	ratio := subDNS / (baseDNS + subDNS)
	if ratio < 0.1 || ratio > 0.9 {
		t.Fatalf("subdomain DNS mass share %.3f outside sane band", ratio)
	}
}

func TestCurveEval(t *testing.T) {
	c := newCurve([]anchor{{1e-4, 0.2}, {1e-2, 0.1}, {1, 0.01}})
	if got := c.eval(1e-5, math.Log10(1e-5)); got != 0.2 {
		t.Fatalf("clamp low %v", got)
	}
	if got := c.eval(2, math.Log10(2)); got != 0.01 {
		t.Fatalf("clamp high %v", got)
	}
	if got := c.eval(1e-3, math.Log10(1e-3)); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("midpoint %v, want 0.15 (log-linear)", got)
	}
	var empty curve
	if empty.eval(0.5, math.Log10(0.5)) != 0 {
		t.Fatal("empty curve")
	}
}

func TestCategoryStrings(t *testing.T) {
	for c := CatWeb; c < numCategories; c++ {
		if c.String() == "unknown" {
			t.Fatalf("category %d has no name", c)
		}
	}
	if Category(200).String() != "unknown" {
		t.Fatal("out-of-range category")
	}
}

func TestIDByName(t *testing.T) {
	w := buildTest(t)
	name := w.Domains[42].Name
	id, ok := w.IDByName(name)
	if !ok || id != 42 {
		t.Fatalf("IDByName(%q) = %d,%v", name, id, ok)
	}
	if _, ok := w.IDByName("missing.example"); ok {
		t.Fatal("missing name found")
	}
}

func BenchmarkBuildWorld(b *testing.B) {
	cfg := TestConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// worldDigest hashes every field of every Domain, in record order, and
// the base-record index.
func worldDigest(w *World) string {
	h := sha256.New()
	for i := range w.Domains {
		fmt.Fprintf(h, "%+v\n", w.Domains[i])
	}
	fmt.Fprintln(h, w.BaseIDs())
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldDigest pins the generated world bit for bit: every field of
// every record and the base-record index, at TestConfig seeds 1 and 2
// and DefaultConfig seed 1. A change to Build may make it cheaper but
// must not move a record, a field or a random draw, which would change
// a digest. It also checks that IDByName finds every record under its
// own ID.
func TestWorldDigest(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "e8f1445dc38963abf6aedf7f1210318c03e2cec28ed7de92cafcc31e2662a97b"},
		{2, "7083b7637ebb891a78428f92655751c281de555e4f51a686698c8339ee54a600"},
	} {
		cfg := TestConfig()
		cfg.Seed = tc.seed
		w, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkWorldDigest(t, fmt.Sprintf("TestConfig seed %d", tc.seed), w, tc.want)
	}
	if testing.Short() {
		t.Skip("the DefaultConfig world takes seconds to build and digest")
	}
	// The DefaultConfig world is the one the experiments and the
	// claims ledger use: 23 times TestConfig's records, with head
	// quantiles TestConfig never reaches.
	checkWorldDigest(t, "DefaultConfig seed 1", defaultWorld(t),
		"09a63a1adb3095369bf9dca9fe3bca8d5b5de9662f7cc620f2e73af50a86c236")
}

func checkWorldDigest(t *testing.T, label string, w *World, want string) {
	t.Helper()
	if got := worldDigest(w); got != want {
		t.Errorf("%s: world digest %s, want %s", label, got, want)
	}
	for i := range w.Domains {
		if id, ok := w.IDByName(w.Domains[i].Name); !ok || id != uint32(i) {
			t.Fatalf("%s: IDByName(%q) = %d, %v; want %d", label, w.Domains[i].Name, id, ok, i)
		}
	}
}

var defaultWorldOnce = sync.OnceValues(func() (*World, error) { return Build(DefaultConfig()) })

// defaultWorld returns the DefaultConfig seed 1 world, built once per
// test binary.
func defaultWorld(t *testing.T) *World {
	t.Helper()
	w, err := defaultWorldOnce()
	if err != nil {
		t.Fatal(err)
	}
	return w
}
