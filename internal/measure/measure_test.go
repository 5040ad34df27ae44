package measure

import (
	"sort"
	"testing"

	"repro/internal/population"
	"repro/internal/stats"
)

var cachedWorld *population.World

func world(t *testing.T) *population.World {
	t.Helper()
	if cachedWorld == nil {
		w, err := population.Build(population.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedWorld = w
	}
	return cachedWorld
}

func TestMeasurePopulation(t *testing.T) {
	w := world(t)
	c := NewCampaign(w)
	pop := w.ComNetOrg(10)
	m := c.MeasureIDs(pop, 10)
	if m.N != len(pop) {
		t.Fatalf("N %d", m.N)
	}
	// Basic range checks.
	for name, v := range map[string]float64{
		"nx": m.NXDOMAIN, "ipv6": m.IPv6, "caa": m.CAA,
		"cname": m.CNAME, "cdn": m.CDN, "tls": m.TLS,
		"hsts": m.HSTSofTLS, "h2": m.HTTP2,
	} {
		if v < 0 || v > 1 {
			t.Fatalf("%s share out of range: %v", name, v)
		}
	}
	// Population-level shapes from the paper's Table 5 last column:
	// small NXDOMAIN, TLS ~1/3, modest IPv6, tiny CAA/CDN, HTTP2 < TLS.
	if m.NXDOMAIN > 0.05 {
		t.Fatalf("population NXDOMAIN %.3f too high", m.NXDOMAIN)
	}
	if m.TLS < 0.15 || m.TLS > 0.6 {
		t.Fatalf("population TLS %.3f outside band", m.TLS)
	}
	if m.CAA > 0.02 {
		t.Fatalf("population CAA %.4f too high", m.CAA)
	}
	if m.CDN > 0.08 {
		t.Fatalf("population CDN %.4f too high", m.CDN)
	}
	if m.IPv6 > 0.15 {
		t.Fatalf("population IPv6 %.3f too high", m.IPv6)
	}
	if m.UniqueAS4 == 0 || m.UniqueAS6 == 0 {
		t.Fatal("no AS diversity")
	}
	if m.UniqueAS6 > m.UniqueAS4 {
		t.Fatal("v6 AS count cannot exceed v4")
	}
}

func TestHeadExceedsPopulation(t *testing.T) {
	// The core Table 5 finding: the popularity head shows far higher
	// adoption than the general population.
	w := world(t)
	c := NewCampaign(w)
	pop := w.ComNetOrg(10)
	popM := c.MeasureIDs(pop, 10)

	// Build a "head" sample: the most popular web-visible base domains.
	bids := w.BaseIDs()
	type cand struct {
		id  uint32
		pop float64
	}
	var cands []cand
	for _, id := range bids {
		d := &w.Domains[id]
		if d.Category.NeverResolves() {
			continue
		}
		cands = append(cands, cand{id, d.WebPop})
	}
	for i := 0; i < 200; i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].pop > cands[i].pop {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
	head := make([]uint32, 200)
	for i := 0; i < 200; i++ {
		head[i] = cands[i].id
	}
	headM := c.MeasureIDs(head, 10)
	if headM.TLS <= popM.TLS {
		t.Fatalf("head TLS %.3f <= population %.3f", headM.TLS, popM.TLS)
	}
	if headM.IPv6 <= popM.IPv6 {
		t.Fatalf("head IPv6 %.3f <= population %.3f", headM.IPv6, popM.IPv6)
	}
	if headM.HTTP2 <= popM.HTTP2 {
		t.Fatalf("head HTTP2 %.3f <= population %.3f", headM.HTTP2, popM.HTTP2)
	}
	if headM.CAA <= popM.CAA {
		t.Fatalf("head CAA %.4f <= population %.4f", headM.CAA, popM.CAA)
	}
	if headM.CDN <= popM.CDN {
		t.Fatalf("head CDN %.3f <= population %.3f", headM.CDN, popM.CDN)
	}
}

func TestMeasureEmptyAndUnknown(t *testing.T) {
	w := world(t)
	c := NewCampaign(w)
	m := c.Measure(nil, 0)
	if m.N != 0 || m.TLS != 0 {
		t.Fatal("empty measurement")
	}
	m = c.Measure([]string{"not-a-real-domain.example"}, 0)
	if m.NXDOMAIN != 1 {
		t.Fatalf("unknown should be 100%% NXDOMAIN, got %v", m.NXDOMAIN)
	}
}

func TestTopShares(t *testing.T) {
	w := world(t)
	c := NewCampaign(w)
	pop := w.ComNetOrg(5)
	m := c.MeasureIDs(pop, 5)
	asShares := c.TopASShares(m, 5)
	if len(asShares) != 5 {
		t.Fatalf("want 5 AS shares, got %d", len(asShares))
	}
	for i := 1; i < len(asShares); i++ {
		if asShares[i].Share > asShares[i-1].Share {
			t.Fatal("AS shares not sorted")
		}
	}
	sum := 0.0
	for _, s := range asShares {
		sum += s.Share
	}
	if sum <= 0 || sum > 1 {
		t.Fatalf("top-5 AS share sum %v", sum)
	}
	// GoDaddy-style mass hosting dominates the population (paper: 26%).
	if asShares[0].Label != "GoDaddy (26496)" {
		t.Fatalf("population's top AS is %s, want GoDaddy", asShares[0].Label)
	}
	cdnShares := c.TopCDNShares(m, 5)
	if len(cdnShares) == 0 {
		t.Fatal("no CDN shares")
	}
	// Google dominates population CDN share (paper: 71%).
	if cdnShares[0].Label != "Google" {
		t.Fatalf("population's top CDN is %s, want Google", cdnShares[0].Label)
	}
	if cdnShares[0].Share < 0.3 {
		t.Fatalf("google CDN share %.3f too low", cdnShares[0].Share)
	}
}

func TestTopShareHelper(t *testing.T) {
	counts := map[string]int{"a": 50, "b": 30, "c": 10, "d": 5, "e": 3, "f": 2}
	if got := topShare(counts, 5); got != 0.98 {
		t.Fatalf("topShare %v", got)
	}
	if got := topShare(counts, 10); got != 1 {
		t.Fatalf("clamped topShare %v", got)
	}
	if topShare(map[string]int{}, 5) != 0 {
		t.Fatal("empty topShare")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		value, base, sigma float64
		want               Mark
	}{
		{0.10, 0.04, 0, MarkUp},      // 2.5x above
		{0.01, 0.04, 0, MarkDown},    // 4x below
		{0.045, 0.04, 0, MarkSame},   // within 50%
		{0.30, 0, 0, MarkUp},         // base zero
		{0, 0, 0, MarkSame},          // both zero
		{0.60, 0.45, 0.001, MarkUp},  // base >40%: 25% + 5σ satisfied
		{0.50, 0.45, 0.05, MarkSame}, // base >40%: <25% and within 5σ
		{0.46, 0.45, 0, MarkSame},
	} {
		if got := Classify(tc.value, tc.base, tc.sigma); got != tc.want {
			t.Fatalf("Classify(%v,%v,%v) = %v, want %v",
				tc.value, tc.base, tc.sigma, got, tc.want)
		}
	}
}

func BenchmarkMeasurePopulation(b *testing.B) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	c := NewCampaign(w)
	pop := w.ComNetOrg(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MeasureIDs(pop, 10)
	}
}

func TestClassifyOnRealCampaign(t *testing.T) {
	// On the simulated world, the paper's rule must call IPv6 adoption
	// of a popularity-ranked head ▲ against the population (Table 5's
	// core finding).
	w := world(t)
	c := NewCampaign(w)
	pop := w.ComNetOrg(0)
	head := append([]uint32(nil), pop...)
	sort.Slice(head, func(i, j int) bool {
		return w.Domains[head[i]].WebPop > w.Domains[head[j]].WebPop
	})
	head = head[:150]
	var listSeries, baseSeries []float64
	for day := 0; day < 8; day++ {
		lm := c.MeasureIDs(head, day)
		bm := c.MeasureIDs(pop, day)
		listSeries = append(listSeries, lm.IPv6)
		baseSeries = append(baseSeries, bm.IPv6)
	}
	if got := Classify(stats.Mean(listSeries), stats.Mean(baseSeries), stats.Std(baseSeries)); got != MarkUp {
		t.Errorf("head IPv6 vs population: %s, want ▲", got)
	}
}
