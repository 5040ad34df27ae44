package providers

import (
	"math"
	"sort"
	"testing"

	"repro/internal/domainname"
	"repro/internal/population"
	"repro/internal/stats"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

// testArchive builds a small archive once; several tests share it.
var (
	cachedArchive *toplist.Archive
	cachedModel   *traffic.Model
)

func testArchive(t *testing.T) (*toplist.Archive, *traffic.Model) {
	t.Helper()
	if cachedArchive != nil {
		return cachedArchive, cachedModel
	}
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewModel(w)
	opts := DefaultOptions(w.Cfg.Days, 3000)
	opts.BurnInDays = 60
	g, err := NewGenerator(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := g.Run(w.Cfg.Days)
	if err != nil {
		t.Fatal(err)
	}
	cachedArchive, cachedModel = arch, m
	return arch, m
}

func TestOptionsValidate(t *testing.T) {
	opts := DefaultOptions(30, 1000)
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.ListSize = 1
	if bad.Validate() == nil {
		t.Fatal("tiny list should fail")
	}
	bad = opts
	bad.UmbrellaAlpha = 0
	if bad.Validate() == nil {
		t.Fatal("zero alpha should fail")
	}
	bad = opts
	bad.BurnInDays = -1
	if bad.Validate() == nil {
		t.Fatal("negative burn-in should fail")
	}
}

func TestArchiveShape(t *testing.T) {
	arch, m := testArchive(t)
	if !arch.Complete() {
		t.Fatal("incomplete archive")
	}
	days := m.W.Cfg.Days
	if arch.Days() != days {
		t.Fatalf("archive days %d", arch.Days())
	}
	for _, p := range []string{Alexa, Umbrella, Majestic} {
		l := arch.Get(p, 0)
		if l == nil || l.Len() != 3000 {
			t.Fatalf("%s day-0 list missing or short: %v", p, l)
		}
	}
}

func TestListsAreDistinct(t *testing.T) {
	arch, _ := testArchive(t)
	// The three lists measure different axes; their base-domain
	// overlap must be well below identity (paper §5.2: <50%).
	a := stats.NewStringSet(arch.Get(Alexa, 10).BaseDomains().Names())
	u := stats.NewStringSet(arch.Get(Umbrella, 10).BaseDomains().Names())
	mj := stats.NewStringSet(arch.Get(Majestic, 10).BaseDomains().Names())
	au := float64(a.IntersectionCount(u)) / float64(a.Len())
	am := float64(a.IntersectionCount(mj)) / float64(a.Len())
	um := float64(u.IntersectionCount(mj)) / float64(u.Len())
	if au > 0.75 || am > 0.75 || um > 0.75 {
		t.Fatalf("lists nearly identical: a∩u=%.2f a∩m=%.2f u∩m=%.2f", au, am, um)
	}
	if au < 0.02 || am < 0.02 {
		t.Fatalf("lists nearly disjoint: a∩u=%.2f a∩m=%.2f", au, am)
	}
}

func TestUmbrellaStructure(t *testing.T) {
	arch, m := testArchive(t)
	st := arch.Get(Umbrella, 5).Structure()
	// Umbrella carries subdomains and invalid TLDs (Table 2).
	if st.BaseShare > 0.9 {
		t.Fatalf("umbrella base share %.2f; expected substantial subdomain mass", st.BaseShare)
	}
	if st.InvalidNames == 0 {
		t.Fatal("umbrella should contain invalid-TLD names")
	}
	// Alexa and Majestic exclude junk entirely.
	for _, p := range []string{Alexa, Majestic} {
		stp := arch.Get(p, 5).Structure()
		if stp.InvalidNames != 0 {
			t.Fatalf("%s contains %d invalid-TLD names", p, stp.InvalidNames)
		}
		if stp.BaseShare < 0.9 {
			t.Fatalf("%s base share %.2f; web lists are almost all base domains", p, stp.BaseShare)
		}
	}
	_ = m
}

func TestChurnOrdering(t *testing.T) {
	arch, m := testArchive(t)
	churn := func(p string, from, to int) float64 {
		var total float64
		n := 0
		for d := from; d < to; d++ {
			cur := stats.NewIDSet(arch.Get(p, toplist.Day(d)).IDs())
			next := stats.NewIDSet(arch.Get(p, toplist.Day(d+1)).IDs())
			total += float64(cur.RemovedCount(next))
			n++
		}
		return total / float64(n)
	}
	change := m.W.Cfg.Days * 2 / 3
	maj := churn(Majestic, 7, change-1)
	alexaPre := churn(Alexa, 7, change-1)
	alexaPost := churn(Alexa, change+1, m.W.Cfg.Days-1)
	umb := churn(Umbrella, 7, change-1)
	// Paper Fig. 1b ordering: Majestic ≪ Alexa-pre < Umbrella ≪ Alexa-post.
	if !(maj < alexaPre && alexaPre < umb && umb < alexaPost) {
		t.Fatalf("churn ordering violated: maj=%.0f alexaPre=%.0f umb=%.0f alexaPost=%.0f",
			maj, alexaPre, umb, alexaPost)
	}
	// The change must be drastic (paper: 21k -> 483k, i.e. >10x).
	if alexaPost < 5*alexaPre {
		t.Fatalf("alexa regime change too mild: pre=%.0f post=%.0f", alexaPre, alexaPost)
	}
}

func TestAlexaChangeIsAbrupt(t *testing.T) {
	arch, m := testArchive(t)
	change := m.W.Cfg.Days * 2 / 3
	day := func(d int) stats.IDSet { return stats.NewIDSet(arch.Get(Alexa, toplist.Day(d)).IDs()) }
	before := day(change - 2).RemovedCount(day(change - 1))
	at := day(change - 1).RemovedCount(day(change))
	if at < 3*before+10 {
		t.Fatalf("no abrupt churn jump at change day: before=%d at=%d", before, at)
	}
}

func TestUmbrellaWeeklyPattern(t *testing.T) {
	arch, m := testArchive(t)
	// Day-over-day removals, grouped by whether the boundary crosses
	// into/out of a weekend; weekend boundaries churn more.
	var wkdayCh, boundaryCh []float64
	for d := 7; d < m.W.Cfg.Days-1; d++ {
		cur := stats.NewIDSet(arch.Get(Umbrella, toplist.Day(d)).IDs())
		next := stats.NewIDSet(arch.Get(Umbrella, toplist.Day(d+1)).IDs())
		c := float64(cur.RemovedCount(next))
		wd := toplist.Day(d).IsWeekend()
		wn := toplist.Day(d + 1).IsWeekend()
		if wd != wn {
			boundaryCh = append(boundaryCh, c)
		} else if !wd && !wn {
			wkdayCh = append(wkdayCh, c)
		}
	}
	if stats.Mean(boundaryCh) <= stats.Mean(wkdayCh) {
		t.Fatalf("no weekend churn pattern: boundary %.0f vs weekday %.0f",
			stats.Mean(boundaryCh), stats.Mean(wkdayCh))
	}
}

func TestMajesticNoWeeklyPattern(t *testing.T) {
	arch, m := testArchive(t)
	var boundary, weekday []float64
	for d := 7; d < m.W.Cfg.Days-1; d++ {
		cur := stats.NewIDSet(arch.Get(Majestic, toplist.Day(d)).IDs())
		next := stats.NewIDSet(arch.Get(Majestic, toplist.Day(d+1)).IDs())
		c := float64(cur.RemovedCount(next))
		if toplist.Day(d).IsWeekend() != toplist.Day(d+1).IsWeekend() {
			boundary = append(boundary, c)
		} else {
			weekday = append(weekday, c)
		}
	}
	b, w := stats.Mean(boundary), stats.Mean(weekday)
	if w == 0 {
		w = 1
	}
	if b/w > 2.0 {
		t.Fatalf("majestic shows weekly churn pattern: boundary %.1f vs other %.1f", b, w)
	}
}

func TestHeadMoreStableThanTail(t *testing.T) {
	arch, m := testArchive(t)
	head := 0.0
	tail := 0.0
	n := 0
	for d := 7; d < m.W.Cfg.Days/2; d++ {
		curL := arch.Get(Umbrella, toplist.Day(d))
		nextL := arch.Get(Umbrella, toplist.Day(d+1))
		curHead := stats.NewIDSet(curL.Top(100).IDs())
		nextHead := stats.NewIDSet(nextL.Top(100).IDs())
		head += float64(curHead.RemovedCount(nextHead)) / 100
		cur := stats.NewIDSet(curL.IDs())
		next := stats.NewIDSet(nextL.IDs())
		tail += float64(cur.RemovedCount(next)) / float64(curL.Len())
		n++
	}
	if head/float64(n) >= tail/float64(n) {
		t.Fatalf("head churn %.4f not below full-list churn %.4f", head/float64(n), tail/float64(n))
	}
}

func TestMajesticRanksOnlyBaseDomains(t *testing.T) {
	arch, _ := testArchive(t)
	l := arch.Get(Majestic, 3)
	subs := 0
	for _, name := range l.Names() {
		if domainname.DepthOf(name) > 0 {
			subs++
		}
	}
	// Platform user sites (tumblr/sharepoint) are PSL depth 1; they are
	// legitimate, but deep names must not appear.
	for _, name := range l.Names() {
		if domainname.DepthOf(name) > 1 {
			t.Fatalf("majestic lists deep subdomain %q", name)
		}
	}
	if subs > l.Len()/2 {
		t.Fatalf("majestic lists %d subdomain-ish names of %d", subs, l.Len())
	}
}

func TestDeterministicArchive(t *testing.T) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewModel(w)
	opts := DefaultOptions(10, 500)
	opts.BurnInDays = 10
	run := func() *toplist.Archive {
		g, err := NewGenerator(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		arch, err := g.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		return arch
	}
	a, b := run(), run()
	for d := 0; d < 10; d++ {
		la, lb := a.Get(Umbrella, toplist.Day(d)), b.Get(Umbrella, toplist.Day(d))
		na, nb := la.Names(), lb.Names()
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("day %d rank %d: %q vs %q", d, i+1, na[i], nb[i])
			}
		}
	}
}

func TestInjectedDomainEntersUmbrella(t *testing.T) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewModel(w)
	inj := traffic.NewInjector()
	for d := 0; d < 12; d++ {
		inj.Add("probe-test.dev", d, 10000, 10000)
	}
	opts := DefaultOptions(12, 2000)
	opts.BurnInDays = 20
	opts.Injector = inj
	g, err := NewGenerator(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := g.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	rank := arch.Get(Umbrella, 8).RankOf("probe-test.dev")
	if rank == 0 {
		t.Fatal("injected domain did not enter the list")
	}
	// After injection stops the domain must fall out within ~2 days
	// (paper: test domains disappeared within 1-2 days).
	// Day 10-11 still injected; check list NOT containing after decay:
	// re-run with injection stopping at day 6.
	inj2 := traffic.NewInjector()
	for d := 0; d < 6; d++ {
		inj2.Add("probe-test.dev", d, 10000, 10000)
	}
	opts.Injector = inj2
	g2, _ := NewGenerator(m, opts)
	arch2, _ := g2.Run(12)
	if arch2.Get(Umbrella, 5).RankOf("probe-test.dev") == 0 {
		t.Fatal("domain should be ranked while injected")
	}
	if arch2.Get(Umbrella, 10).RankOf("probe-test.dev") != 0 {
		t.Fatal("domain should leave the list within days of stopping")
	}
}

func TestMoreClientsBeatMoreQueries(t *testing.T) {
	// The Fig. 5 mechanism at the ranker level: 10k probes × 1 query
	// outranks 1k probes × 100 queries under unique-client ranking.
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewModel(w)
	inj := traffic.NewInjector()
	for d := 0; d < 10; d++ {
		inj.Add("many-probes.dev", d, 50000, 50000)
		inj.Add("many-queries.dev", d, 8000, 800000)
	}
	opts := DefaultOptions(10, 2000)
	opts.BurnInDays = 20
	opts.Injector = inj
	g, _ := NewGenerator(m, opts)
	arch, _ := g.Run(10)
	l := arch.Get(Umbrella, 8)
	rp, rq := l.RankOf("many-probes.dev"), l.RankOf("many-queries.dev")
	if rp == 0 || rq == 0 {
		t.Fatalf("injected domains missing: %d %d", rp, rq)
	}
	if rp >= rq {
		t.Fatalf("probes rank %d should beat queries rank %d", rp, rq)
	}
	// Ablation: under volume ranking the order flips.
	optsV := opts
	optsV.UmbrellaVolumeRanking = true
	gv, _ := NewGenerator(m, optsV)
	archV, _ := gv.Run(10)
	lv := archV.Get(Umbrella, 8)
	rpv, rqv := lv.RankOf("many-probes.dev"), lv.RankOf("many-queries.dev")
	if rpv != 0 && rqv != 0 && rqv >= rpv {
		t.Fatalf("volume ablation should favour queries: probes %d queries %d", rpv, rqv)
	}
}

func TestTopIDs(t *testing.T) {
	scores := []float64{0, 5, 3, 0, 9, 1, 9}
	top := topIDs(scores, 3)
	want := []uint32{4, 6, 1} // 9 (idx4), 9 (idx6, tie by index), 5
	if len(top) != 3 {
		t.Fatalf("len %d", len(top))
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top %v want %v", top, want)
		}
	}
	// Requesting more than available positives clamps.
	if got := topIDs(scores, 100); len(got) != 5 {
		t.Fatalf("clamp: %d", len(got))
	}
	if topIDs([]float64{0, 0}, 3) != nil {
		t.Fatal("all-zero should be empty")
	}
}

func TestTopIDsMatchesSort(t *testing.T) {
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = math.Mod(float64(i)*2654435.761, 97)
	}
	top := topIDs(scores, 50)
	idx := make([]uint32, len(scores))
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	for i := 0; i < 50; i++ {
		if top[i] != idx[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, top[i], idx[i])
		}
	}
}

func TestSlidingWindowMatchesNaive(t *testing.T) {
	w := NewSlidingWindow(3, 4)
	var pushed [][]float64
	for day := 0; day < 10; day++ {
		sig := []float64{float64(day), float64(day * 2), 1}
		w.Push(sig)
		pushed = append(pushed, append([]float64(nil), sig...))
		want := make([]float64, 3)
		lo := len(pushed) - 4
		if lo < 0 {
			lo = 0
		}
		for _, s := range pushed[lo:] {
			for i, v := range s {
				want[i] += v
			}
		}
		got := w.Sums()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("day %d sums %v want %v", day, got, want)
			}
		}
		if w.Filled() != (day >= 3) {
			t.Fatalf("filled wrong at day %d", day)
		}
	}
}

// TestEMAApproximatesWindow is the fidelity side of the window
// ablation whose cost the root BenchmarkAblationWindow measures: an
// EMA with alpha=2/(N+1) tracks an exact N-day window sum (scaled by
// N) closely for slowly varying signals.
func TestEMAApproximatesWindow(t *testing.T) {
	const days = 200
	const window = 30
	alpha := 2.0 / float64(window+1)
	sw := NewSlidingWindow(1, window)
	ema := 0.0
	started := false
	for day := 0; day < days; day++ {
		// Slowly varying signal with daily noise.
		v := 100 + 30*math.Sin(float64(day)/20) + 5*math.Cos(float64(day)*1.7)
		sw.Push([]float64{v})
		if !started {
			ema = v
			started = true
		} else {
			ema = (1-alpha)*ema + alpha*v
		}
		if day > 2*window {
			windowMean := sw.Sums()[0] / window
			if math.Abs(ema-windowMean)/windowMean > 0.15 {
				t.Fatalf("day %d: EMA %.1f vs window mean %.1f", day, ema, windowMean)
			}
		}
	}
}

func BenchmarkGeneratorStep(b *testing.B) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := traffic.NewModel(w)
	opts := DefaultOptions(30, 3000)
	g, err := NewGenerator(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StepDay(i, 1)
	}
}

func BenchmarkTopIDs(b *testing.B) {
	scores := make([]float64, 100000)
	for i := range scores {
		scores[i] = math.Mod(float64(i)*2654435.761, 9973)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topIDs(scores, 10000)
	}
}

// TestSteadyStateDayAllocations is the allocation regression gate for
// the zero-alloc day-loop work: a steady-state serial step+rank day —
// after warm-up has sized every reusable scratch buffer — must stay
// within a small fixed allocation budget. The remaining allocations
// are the immutable Lists themselves (one struct + two copies per
// provider), the provider-name slice, and the snapshots slice; the former
// per-day candidate slices, name buffers, and eager rank maps are
// gone. A regression (a new per-domain or per-list-entry allocation on
// the day path) blows the budget immediately.
func TestSteadyStateDayAllocations(t *testing.T) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewModel(w)
	opts := DefaultOptions(w.Cfg.Days, 2000)
	opts.BurnInDays = 10
	g, err := NewGenerator(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for d := -opts.BurnInDays; d < 0; d++ {
		g.StepDay(d, 1)
	}
	// Warm up: size the EMA state, scratch buffers, and kernel.
	day := 0
	for ; day < 5; day++ {
		g.StepDay(day, 1)
		g.Snapshots(toplist.Day(day), 1)
	}
	avg := testing.AllocsPerRun(10, func() {
		g.StepDay(day, 1)
		if got := g.Snapshots(toplist.Day(day), 1); len(got) != 3 {
			t.Fatalf("day %d: %d snapshots", day, len(got))
		}
		day++
	})
	// ~12 in practice; the headroom absorbs occasional scratch growth
	// as newborn domains enter the candidate set.
	const budget = 32
	if avg > budget {
		t.Fatalf("steady-state day allocates %.1f objects, budget %d", avg, budget)
	}
	t.Logf("steady-state step+rank day: %.1f allocs", avg)
}
