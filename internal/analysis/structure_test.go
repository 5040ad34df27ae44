package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/domainname"
	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/stats"
	"repro/internal/toplist"
)

// refName is what Table2 used to keep per world record: the strings it
// hashed into per-day sets.
type refName struct {
	tld, sldGroup, base string
	depth               int
	validTLD            bool
}

func refNames(w *population.World) []refName {
	out := make([]refName, w.Len())
	for i := range w.Domains {
		n, err := domainname.Parse(w.Domains[i].Name)
		if err != nil {
			continue
		}
		base := n.Base
		if base == "" {
			base = n.FQDN
		}
		out[i] = refName{n.TLD, n.Group(), base, n.Depth, n.ValidTLD}
	}
	return out
}

// table2Reference is the map-based Table2 that the stamp-array kernel
// replaced: fresh per-day sets of TLDs, bases and SLD groups, a set per
// day for µ∆, and a running union for µNEW. It renders the row with %+v.
func table2Reference(c *Context, names []refName, provider string, top int) string {
	row := Table2Row{Provider: provider, Top: top}
	var tlds, bds, dups, invT, invN []float64

	prevSet := stats.IDSet(nil)
	union := make(map[uint32]struct{})
	var deltas, news []float64
	day := 0

	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, n := c.ids(provider, d, top)
		if n == 0 {
			return
		}

		validTLD := make(map[string]struct{})
		invalidTLD := make(map[string]struct{})
		baseSet := make(map[string]struct{})
		sldBases := make(map[string]map[string]struct{})
		var d1, d2, d3 float64
		invalidNames := 0
		for _, id := range ids {
			in := &names[id]
			if in.validTLD {
				validTLD[in.tld] = struct{}{}
			} else {
				invalidTLD[in.tld] = struct{}{}
				invalidNames++
			}
			baseSet[in.base] = struct{}{}
			if in.sldGroup != "" {
				m := sldBases[in.sldGroup]
				if m == nil {
					m = make(map[string]struct{})
					sldBases[in.sldGroup] = m
				}
				m[in.base] = struct{}{}
			}
			switch in.depth {
			case 0:
			case 1:
				d1++
			case 2:
				d2++
			case 3:
				d3++
			}
			if in.depth > row.SDM {
				row.SDM = in.depth
			}
		}
		size := float64(n)
		tlds = append(tlds, float64(len(validTLD)))
		invT = append(invT, float64(len(invalidTLD)))
		invN = append(invN, float64(invalidNames))
		bds = append(bds, float64(len(baseSet)))
		row.SD1 += d1 / size
		row.SD2 += d2 / size
		row.SD3 += d3 / size
		dup := 0
		for _, bases := range sldBases {
			if len(bases) > 1 {
				dup += len(bases)
			}
		}
		dups = append(dups, float64(dup))

		cur := stats.NewIDSet(ids)
		if prevSet != nil {
			deltas = append(deltas, float64(prevSet.RemovedCount(cur)))
		}
		if day >= 8 {
			newCount := 0
			for _, id := range ids {
				if _, seen := union[id]; !seen {
					newCount++
				}
			}
			news = append(news, float64(newCount))
		}
		for _, id := range ids {
			union[id] = struct{}{}
		}
		prevSet = cur
		day++
	})

	if days := float64(len(tlds)); days > 0 {
		row.TLDMean, row.TLDStd = stats.MeanStd(tlds)
		row.InvalidTLDMean = stats.Mean(invT)
		row.InvalidNameMean = stats.Mean(invN)
		row.BDMean, row.BDStd = stats.MeanStd(bds)
		row.SD1 /= days
		row.SD2 /= days
		row.SD3 /= days
		row.DupMean, row.DupStd = stats.MeanStd(dups)
		row.Delta = stats.Mean(deltas)
		row.New = stats.Mean(news)
	}
	return fmt.Sprintf("%+v", row)
}

// handBuiltArchive is a twelve-day name-only Alexa archive over world
// names chosen to reach every Table 2 branch: blogspot.* variants,
// invalid TLDs, SLD groups with several bases, deep subdomains, names
// the world does not know, a missing day (5), and one slot (9) that
// repeats names, as ReadCSV accepts. One repeated name was on day 8 and
// is gone on day 10, so µ∆ must count it once; the other is first seen
// on day 9, so µNEW must count both occurrences.
func handBuiltArchive(t *testing.T, w *population.World) *toplist.Archive {
	t.Helper()
	var blogspot, invalid, deep, plain []string
	groupBases := make(map[string]int)
	for i := range w.Domains {
		name := w.Domains[i].Name
		n := domainname.MustParse(name)
		switch {
		case strings.Contains(n.PublicSuffix, "blogspot."):
			blogspot = append(blogspot, name)
		case !n.ValidTLD:
			invalid = append(invalid, name)
		case n.Depth >= 2:
			deep = append(deep, name)
		case n.Depth == 0 && n.Group() != "":
			groupBases[n.Group()]++
			plain = append(plain, name)
		}
	}
	var aliases []string // bases of SLD groups that have several
	for _, name := range plain {
		if groupBases[domainname.SLDGroup(name)] > 1 && len(aliases) < 12 {
			aliases = append(aliases, name)
		}
	}
	if len(blogspot) < 8 || len(invalid) < 8 || len(deep) < 10 || len(aliases) < 2 || len(plain) < 48 {
		t.Fatal("the world lacks names for the hand-built archive")
	}
	pool := append(blogspot[:8:8], invalid[:8]...)
	pool = append(pool, deep[:8]...)
	pool = append(pool, aliases...)
	pool = append(pool, plain[len(plain)-24:]...)
	// Two names stay out of the rotating window: gone is on days 8 and
	// 9 only, fresh on day 9 only.
	gone, fresh := deep[8], deep[9]
	unknown := []string{"unknown-0.example.com", "unknown.localdomain"}
	for _, name := range unknown {
		if _, ok := w.IDByName(name); ok {
			t.Fatalf("%s is a world name", name)
		}
	}

	arch := toplist.NewArchive(0, 11)
	for d := 0; d < 12; d++ {
		if d == 5 {
			continue // missing day
		}
		var names []string
		for i := 0; i < 32; i++ {
			names = append(names, pool[(3*d+i)%len(pool)])
		}
		names = append(names, unknown...)
		switch d {
		case 8:
			names = append(names, gone)
		case 9:
			names = append(names, gone, fresh, gone, fresh)
		}
		if err := arch.Put(providers.Alexa, toplist.Day(d), toplist.New(names)); err != nil {
			t.Fatal(err)
		}
	}
	return arch
}

// TestTable2MatchesReference is the differential test for the stamp
// kernel: every row equals the map-based reference's, on the shared
// archive and on a hand-built one with repeats, unknown names and gaps.
func TestTable2MatchesReference(t *testing.T) {
	c := ctx(t)
	names := refNames(c.W)
	for _, p := range []string{providers.Alexa, providers.Umbrella, providers.Majestic} {
		for _, top := range []int{0, headSize} {
			got := fmt.Sprintf("%+v", c.Table2(p, top))
			if want := table2Reference(c, names, p, top); got != want {
				t.Errorf("Table2(%s, %d):\n got %s\nwant %s", p, top, got, want)
			}
		}
	}

	hand := NewContext(c.W, handBuiltArchive(t, c.W))
	for _, top := range []int{0, 20} {
		row := hand.Table2(providers.Alexa, top)
		got := fmt.Sprintf("%+v", row)
		if want := table2Reference(hand, names, providers.Alexa, top); got != want {
			t.Errorf("hand-built Table2(%d):\n got %s\nwant %s", top, got, want)
		}
		t.Logf("hand-built Table2(%d): %+v", top, row)
		if row.Delta == 0 || row.New == 0 || row.InvalidTLDMean == 0 || row.SDM < 2 {
			t.Errorf("hand-built archive misses a Table 2 branch: %+v", row)
		}
		if top == 0 && row.DupMean == 0 {
			t.Errorf("hand-built archive has no SLD aliases: %+v", row)
		}
	}
}

// TestTable2Allocations: Table2 builds no per-day sets, so a call
// allocates a bounded number of objects whatever the list length.
func TestTable2Allocations(t *testing.T) {
	const budget = 200
	c := ctx(t)
	for _, top := range []int{0, headSize} {
		c.Table2(providers.Alexa, top) // resolve the columns first
		allocs := testing.AllocsPerRun(5, func() { c.Table2(providers.Alexa, top) })
		if allocs > budget {
			t.Errorf("Table2(alexa, %d) allocates %.0f objects, budget %d", top, allocs, budget)
		}
		t.Logf("Table2(alexa, %d): %.0f allocs", top, allocs)
	}
}
