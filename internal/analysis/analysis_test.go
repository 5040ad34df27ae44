package analysis

import (
	"testing"

	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/stats"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

var cachedCtx *Context

// ctx builds one shared world+archive at test scale.
func ctx(t *testing.T) *Context {
	t.Helper()
	if cachedCtx != nil {
		return cachedCtx
	}
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewModel(w)
	opts := providers.DefaultOptions(w.Cfg.Days, 3000)
	opts.BurnInDays = 60
	g, err := providers.NewGenerator(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := g.Run(w.Cfg.Days)
	if err != nil {
		t.Fatal(err)
	}
	cachedCtx = NewContext(w, arch)
	return cachedCtx
}

const headSize = 100

func TestTable2Shapes(t *testing.T) {
	c := ctx(t)
	alexa := c.Table2(providers.Alexa, 0)
	umb := c.Table2(providers.Umbrella, 0)
	maj := c.Table2(providers.Majestic, 0)

	// Umbrella: substantial subdomain share and invalid TLDs (Table 2).
	if umb.SD1 < 0.05 {
		t.Fatalf("umbrella SD1 %.3f too low", umb.SD1)
	}
	if umb.InvalidNameMean == 0 || umb.InvalidTLDMean == 0 {
		t.Fatal("umbrella must carry invalid TLDs")
	}
	if umb.SDM < 20 {
		t.Fatalf("umbrella SDM %d; paper observed 33", umb.SDM)
	}
	// Web lists: almost all base domains, no invalid TLDs, shallow.
	for _, row := range []Table2Row{alexa, maj} {
		if row.InvalidNameMean != 0 {
			t.Fatalf("%s invalid names %.1f", row.Provider, row.InvalidNameMean)
		}
		if row.SD1 > 0.2 {
			t.Fatalf("%s SD1 %.3f too high", row.Provider, row.SD1)
		}
		if row.SDM > 4 {
			t.Fatalf("%s SDM %d too deep", row.Provider, row.SDM)
		}
	}
	// Base-domain counts: Umbrella far fewer unique bases than size.
	if umb.BDMean >= alexa.BDMean {
		t.Fatalf("umbrella bases %.0f should be below alexa %.0f", umb.BDMean, alexa.BDMean)
	}
	// Churn ordering µ∆: majestic < alexa-mixed, umbrella in between
	// (alexa's archive average mixes pre and post regimes, so only
	// check majestic is smallest).
	if !(maj.Delta < umb.Delta && maj.Delta < alexa.Delta) {
		t.Fatalf("majestic µ∆ %.1f not smallest (alexa %.1f, umbrella %.1f)",
			maj.Delta, alexa.Delta, umb.Delta)
	}
	// µNEW below µ∆ (only a fraction of changers are first-timers).
	for _, row := range []Table2Row{alexa, umb, maj} {
		if row.New > row.Delta && row.Delta > 0 {
			t.Fatalf("%s µNEW %.1f exceeds µ∆ %.1f", row.Provider, row.New, row.Delta)
		}
	}
	// TLD coverage sane.
	if alexa.TLDMean < 10 || alexa.TLDStd < 0 {
		t.Fatalf("alexa TLD coverage %v ± %v", alexa.TLDMean, alexa.TLDStd)
	}
}

func TestTable2HeadVsFull(t *testing.T) {
	c := ctx(t)
	full := c.Table2(providers.Umbrella, 0)
	head := c.Table2(providers.Umbrella, headSize)
	if head.TLDMean >= full.TLDMean {
		t.Fatal("head covers fewer TLDs than the full list")
	}
	if head.Delta >= full.Delta {
		t.Fatal("head churns less than the full list in absolute terms")
	}
}

func TestIntersectionSeries(t *testing.T) {
	c := ctx(t)
	series := c.IntersectionSeries(providers.Alexa, providers.Umbrella, providers.Majestic, 0)
	if len(series) != c.Arch.Days() {
		t.Fatalf("series length %d", len(series))
	}
	for _, p := range series {
		if p.AllThree > p.AlexaUmbrella || p.AllThree > p.AlexaMajestic ||
			p.AllThree > p.UmbrellaMajestic {
			t.Fatal("triple intersection exceeds a pairwise one")
		}
		if p.AlexaUmbrella > p.AlexaBases || p.AlexaMajestic > p.MajBase {
			t.Fatal("intersection exceeds set size")
		}
	}
	// Core finding (§5.2): intersections well below list sizes.
	mid := series[len(series)/3]
	if f := float64(mid.AlexaMajestic) / float64(mid.AlexaBases); f > 0.8 {
		t.Fatalf("alexa∩majestic share %.2f too high", f)
	}
	// Alexa∩Majestic declines after the Alexa change.
	change := c.Arch.Days() * 2 / 3
	pre := stats.Mean(intersectSlice(series[10:change-1], func(p IntersectionPoint) float64 { return float64(p.AlexaMajestic) }))
	post := stats.Mean(intersectSlice(series[change+3:], func(p IntersectionPoint) float64 { return float64(p.AlexaMajestic) }))
	if post >= pre {
		t.Fatalf("alexa∩majestic should drop after the change: pre %.0f post %.0f", pre, post)
	}
}

func intersectSlice(ps []IntersectionPoint, f func(IntersectionPoint) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func TestTable3(t *testing.T) {
	c := ctx(t)
	rows := c.Table3([]string{providers.Alexa, providers.Umbrella, providers.Majestic}, headSize)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	var alexa, umb DisjunctRow
	for _, r := range rows {
		switch r.Provider {
		case providers.Alexa:
			alexa = r
		case providers.Umbrella:
			umb = r
		}
	}
	if umb.Disjunct == 0 || alexa.Disjunct == 0 {
		t.Fatalf("no disjunct domains: %+v", rows)
	}
	// Table 3 shape: Umbrella's exclusives are far more
	// blacklist/mobile-flavoured than Alexa's, and less present in the
	// other lists' Top 1M.
	if umb.MobilePC <= alexa.MobilePC {
		t.Fatalf("umbrella mobile %.1f%% should exceed alexa %.1f%%", umb.MobilePC, alexa.MobilePC)
	}
	if umb.OtherTopPC >= alexa.OtherTopPC {
		t.Fatalf("umbrella other-top %.1f%% should be below alexa %.1f%%", umb.OtherTopPC, alexa.OtherTopPC)
	}
}

func TestChurnByRank(t *testing.T) {
	c := ctx(t)
	sizes := []int{30, 100, 300, 1000, 3000}
	change := c.Arch.Days() * 2 / 3
	umb := c.ChurnByRank(providers.Umbrella, sizes, 7, change)
	if len(umb) != len(sizes) {
		t.Fatal("length")
	}
	// Fig. 1c: churn grows with subset size for Umbrella.
	if umb[0] >= umb[len(umb)-1] {
		t.Fatalf("umbrella churn not increasing with rank: %v", umb)
	}
	// Alexa post-change head churn exceeds pre-change head churn ~10x
	// (paper: 0.62% -> 7.7%; accept >3x).
	alexaPre := c.ChurnByRank(providers.Alexa, []int{headSize}, 7, change)
	alexaPost := c.ChurnByRank(providers.Alexa, []int{headSize}, change+1, c.Arch.Days())
	if alexaPost[0] < 3*alexaPre[0] {
		t.Fatalf("alexa head churn pre %.4f post %.4f; expected sharp rise", alexaPre[0], alexaPost[0])
	}
	// Majestic stays low across ranks.
	maj := c.ChurnByRank(providers.Majestic, sizes, 7, change)
	if maj[len(maj)-1] > umb[len(umb)-1] {
		t.Fatalf("majestic tail churn %.4f above umbrella %.4f", maj[len(maj)-1], umb[len(umb)-1])
	}
}

func TestCumulativeUnique(t *testing.T) {
	c := ctx(t)
	for _, p := range []string{providers.Alexa, providers.Umbrella, providers.Majestic} {
		series := c.CumulativeUnique(p, 0)
		if len(series) != c.Arch.Days() {
			t.Fatal("length")
		}
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1] {
				t.Fatalf("%s cumulative unique decreasing at %d", p, i)
			}
		}
		if series[len(series)-1] <= series[0] {
			t.Fatalf("%s no growth", p)
		}
	}
	// Majestic grows slowest (paper Fig. 2a).
	maj := c.CumulativeUnique(providers.Majestic, 0)
	umb := c.CumulativeUnique(providers.Umbrella, 0)
	last := len(maj) - 1
	majGrowth := float64(maj[last]-maj[0]) / float64(maj[0])
	umbGrowth := float64(umb[last]-umb[0]) / float64(umb[0])
	if majGrowth >= umbGrowth {
		t.Fatalf("majestic growth %.3f should be below umbrella %.3f", majGrowth, umbGrowth)
	}
}

func TestNewVsRejoin(t *testing.T) {
	c := ctx(t)
	for _, p := range []string{providers.Umbrella, providers.Majestic} {
		share := c.NewVsRejoin(p, 0)
		// Paper: 20–33% of daily changers are new; accept a wide band
		// but demand both mechanisms present.
		if share <= 0.02 || share >= 0.8 {
			t.Fatalf("%s first-timer share %.3f outside plausible band", p, share)
		}
	}
}

func TestDecayFromStart(t *testing.T) {
	c := ctx(t)
	dec := c.DecayFromStart(providers.Umbrella, 0)
	if len(dec) == 0 {
		t.Fatal("empty decay")
	}
	if dec[0] < 0.95 {
		t.Fatalf("day-0 self intersection %.3f", dec[0])
	}
	last := dec[len(dec)-1]
	if last >= dec[0] {
		t.Fatal("no decay")
	}
	// Majestic decays less than Umbrella.
	majDec := c.DecayFromStart(providers.Majestic, 0)
	if majDec[len(majDec)-1] <= last {
		t.Fatalf("majestic end %.3f should exceed umbrella end %.3f",
			majDec[len(majDec)-1], last)
	}
}

func TestDaysIncludedCDF(t *testing.T) {
	c := ctx(t)
	umb := c.DaysIncludedCDF(providers.Umbrella, 0)
	maj := c.DaysIncludedCDF(providers.Majestic, 0)
	if umb.Len() == 0 || maj.Len() == 0 {
		t.Fatal("empty CDFs")
	}
	// Fig. 2c: Majestic domains stay longer — the share of domains
	// present on at most half the days is larger for Umbrella.
	if umb.Eval(0.5) <= maj.Eval(0.5) {
		t.Fatalf("umbrella P(≤50%% days) %.3f should exceed majestic %.3f",
			umb.Eval(0.5), maj.Eval(0.5))
	}
	q := PresenceQuantiles(umb, []float64{0.1, 0.5, 0.99})
	if !(q[0] <= q[1] && q[1] <= q[2]) {
		t.Fatal("presence quantiles not monotone")
	}
}

func TestKSWeekendDistances(t *testing.T) {
	c := ctx(t)
	umb, umbBase := c.KSWeekendDistances(providers.Umbrella, 0, 3000)
	maj, _ := c.KSWeekendDistances(providers.Majestic, 0, 3000)
	if len(umb) == 0 || len(umbBase) == 0 || len(maj) == 0 {
		t.Fatal("empty KS samples")
	}
	// Weekend-vs-weekday distances exceed the weekday-vs-weekday
	// baseline, and Majestic shows much less weekend structure.
	if stats.Mean(umb) <= stats.Mean(umbBase) {
		t.Fatalf("umbrella KS %.3f not above baseline %.3f",
			stats.Mean(umb), stats.Mean(umbBase))
	}
	if stats.Mean(maj) >= stats.Mean(umb) {
		t.Fatalf("majestic KS %.3f should be below umbrella %.3f",
			stats.Mean(maj), stats.Mean(umb))
	}
	// A mass of KS=1 domains exists for Umbrella (paper: >15%).
	ones := 0
	for _, d := range umb {
		if d == 1 {
			ones++
		}
	}
	if float64(ones)/float64(len(umb)) < 0.01 {
		t.Fatalf("only %d/%d umbrella domains at KS=1", ones, len(umb))
	}
}

func TestSLDDynamics(t *testing.T) {
	c := ctx(t)
	// Alexa's weekend swing only exists after its regime change. The
	// paper's threshold is 40% at 1M scale; the small test scale keeps
	// more of each group away from the list boundary, so use 30%.
	change := c.Arch.Days() * 2 / 3
	groups := c.SLDDynamics(providers.Alexa, 30, 3, change+1, c.Arch.Days())
	if len(groups) == 0 {
		t.Fatal("no weekend-swinging SLD groups found in alexa")
	}
	// Expect the engineered platforms to appear with the right
	// direction: a leisure group up on weekends, a work group down.
	var leisureUp, workDown bool
	for _, g := range groups {
		switch g.Group {
		case "blogspot", "tumblr":
			if g.WeekendMean > g.WeekdayMean {
				leisureUp = true
			}
		case "sharepoint":
			if g.WeekendMean < g.WeekdayMean {
				workDown = true
			}
		}
		if g.SwingPercent < 30 {
			t.Fatalf("group %s swing %.1f below threshold", g.Group, g.SwingPercent)
		}
		if len(g.Series) != c.Arch.Days() {
			t.Fatal("series length")
		}
	}
	if !leisureUp {
		t.Fatalf("no leisure platform up on weekends; groups: %v", groupNames(groups))
	}
	if !workDown {
		t.Fatalf("no work platform down on weekends; groups: %v", groupNames(groups))
	}
}

func groupNames(gs []SLDGroupDynamic) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Group
	}
	return out
}

func TestKendall(t *testing.T) {
	c := ctx(t)
	change := c.Arch.Days() * 2 / 3
	dayToDay := func(p string) []float64 { return c.KendallDayToDay(p, headSize) }
	maj := dayToDay(providers.Majestic)
	umb := dayToDay(providers.Umbrella)
	if len(maj) == 0 || len(umb) == 0 {
		t.Fatal("no taus")
	}
	// Fig. 4: Majestic day-to-day order is the most similar.
	if stats.Mean(maj[:change-2]) <= stats.Mean(umb[:change-2]) {
		t.Fatalf("majestic mean tau %.3f not above umbrella %.3f",
			stats.Mean(maj), stats.Mean(umb))
	}
	if VeryStrongShare(maj[:change-2]) < VeryStrongShare(umb[:change-2]) {
		t.Fatal("very-strong share ordering violated")
	}
	// Vs-first-day correlation collapses over time.
	vsFirst := c.KendallVsFirst(providers.Umbrella, headSize)
	if len(vsFirst) < 10 {
		t.Fatal("short vs-first series")
	}
	early := stats.Mean(vsFirst[:3])
	late := stats.Mean(vsFirst[len(vsFirst)-3:])
	if late >= early {
		t.Fatalf("no long-term order decay: early %.3f late %.3f", early, late)
	}
}

func TestVeryStrongShare(t *testing.T) {
	if VeryStrongShare(nil) != 0 {
		t.Fatal("empty")
	}
	if got := VeryStrongShare([]float64{0.99, 0.90, 0.97, 0.30}); got != 0.5 {
		t.Fatalf("share %v", got)
	}
}

func TestTable4(t *testing.T) {
	c := ctx(t)
	ps := []string{providers.Alexa, providers.Umbrella, providers.Majestic}
	rows := c.Table4(ps, providers.Alexa, []int{1, 5, 50, 500, 1500, 2800})
	if len(rows) == 0 {
		t.Fatal("no example domains")
	}
	for _, rv := range rows {
		for _, p := range ps {
			hi, ok := rv.Highest[p]
			if !ok {
				continue
			}
			med, lo := rv.Median[p], rv.Lowest[p]
			if !(hi <= med && med <= lo) {
				t.Fatalf("%s/%s ranks not ordered: %d %d %d", rv.Domain, p, hi, med, lo)
			}
			if rv.Presence[p] <= 0 || rv.Presence[p] > 1 {
				t.Fatalf("presence %v", rv.Presence[p])
			}
		}
	}
	// The long-tail rows vary more than the head rows (paper: "the
	// ranks of top domains are fairly stable, while the ranks of bottom
	// domains vary drastically"). Compare absolute rank spreads.
	firstRow, lastRow := rows[0], rows[len(rows)-1]
	spread := func(rv RankVariation) float64 {
		return float64(rv.Lowest[providers.Alexa] - rv.Highest[providers.Alexa])
	}
	if spread(firstRow) >= spread(lastRow) {
		t.Fatalf("head spread %.0f should be below tail spread %.0f",
			spread(firstRow), spread(lastRow))
	}
}

func TestLogSizes(t *testing.T) {
	sizes := LogSizes(3000)
	if sizes[len(sizes)-1] != 3000 {
		t.Fatalf("last size %d", sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes not increasing")
		}
	}
}

func TestRankMatrixSampling(t *testing.T) {
	c := ctx(t)
	m := c.buildRankMatrix(providers.Majestic, headSize, 50)
	if len(m.series) > 50 {
		t.Fatalf("sampling did not cap: %d", len(m.series))
	}
	for _, s := range m.series {
		if len(s) != c.Arch.Days() {
			t.Fatal("series length")
		}
	}
}

func TestWorldIDsFallback(t *testing.T) {
	c := ctx(t)
	// A list without IDs resolves via names.
	l := c.Arch.Get(providers.Alexa, 0)
	names := l.Top(50).Names()
	plain := toplist.New(names)
	ids := present(c.worldIDs(plain))
	if len(ids) != 50 {
		t.Fatalf("fallback resolved %d of 50", len(ids))
	}
}
