package analysis

import (
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/toplist"
)

// rankMatrix holds per-domain rank series for one provider subset.
// Absent days carry the sentinel rank 2×size ("beyond the list"), so a
// domain present only on weekends has fully disjoint weekday/weekend
// rank distributions — KS distance 1, the paper's Fig. 3a signature.
type rankMatrix struct {
	days   int
	size   int
	series [][]int32 // one per domain, in ascending ID order
}

// buildRankMatrix collects rank series for every domain ever present in
// the subset, deterministically down-sampled to at most maxDomains. The
// down-sampling admits domains by a hash filter during the build (so
// memory stays bounded even when the ever-seen union is many times the
// list size) and trims to the exact cap afterwards.
//
// The series live back to back in one array, found through a per-ID
// row index, so the build allocates no per-domain series and needs no
// sort to visit domains in ID order.
func (c *Context) buildRankMatrix(provider string, top, maxDomains int) *rankMatrix {
	days := c.Arch.Days()
	m := &rankMatrix{days: days}
	admitThreshold := uint32(0xFFFFFFFF)
	if _, size := c.ids(provider, c.Arch.First(), top); maxDomains > 0 && size > 0 {
		// The ever-seen union is typically a small multiple of the list
		// size; admit with probability maxDomains/size capped at 1 and
		// floored so small subsets keep everything.
		p := float64(maxDomains) / float64(size)
		if p < 1 {
			admitThreshold = uint32(p * float64(0xFFFFFFFF))
		}
	}
	admit := func(id uint32) bool {
		h := id * 2654435761 // Knuth multiplicative hash
		h ^= h >> 16
		h *= 2246822519
		h ^= h >> 13
		return h <= admitThreshold
	}
	row := make([]int32, c.W.Len()) // 1 + the ID's row in ranks; 0 for none
	var ranks []int32               // rows of days entries
	rows := 0
	day := 0
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		col := cut(c.column(provider, d), top)
		if m.size == 0 {
			m.size = len(col)
		}
		// rank counts world entries only, as the present IDs of the cut.
		rank := int32(0)
		for _, id := range col {
			if id == noID {
				continue
			}
			rank++
			if !admit(id) {
				continue
			}
			if row[id] == 0 {
				sentinel := int32(2 * m.size)
				for range days {
					ranks = append(ranks, sentinel)
				}
				rows++
				row[id] = int32(rows)
			}
			ranks[int(row[id]-1)*days+day] = rank
		}
		day++
	})
	ids := make([]uint32, 0, rows)
	for id, r := range row {
		if r != 0 {
			ids = append(ids, uint32(id))
		}
	}
	if maxDomains > 0 && len(ids) > maxDomains {
		keep := make([]uint32, maxDomains)
		step := float64(len(ids)) / float64(maxDomains)
		for i := range keep {
			keep[i] = ids[int(float64(i)*step)]
		}
		ids = keep
	}
	m.series = make([][]int32, len(ids))
	for i, id := range ids {
		lo := int(row[id]-1) * days
		m.series[i] = ranks[lo : lo+days]
	}
	return m
}

// KSWeekendDistances computes Fig. 3a from one rank matrix: for each
// domain, the two-sample KS distance between its weekday and weekend
// rank distributions, using only the days the domain is actually
// ranked (the paper compares distributions of rank positions). The
// baseline series instead splits each domain's weekday samples into two
// alternating halves — the paper's weekday-vs-weekday reference, which
// should be near zero. Both series run over domains in ascending ID
// order, each skipping domains with fewer than four samples a side.
func (c *Context) KSWeekendDistances(provider string, top, maxDomains int) (weekend, baseline []float64) {
	m := c.buildRankMatrix(provider, top, maxDomains)
	isWeekend := make([]bool, m.days)
	for d := 0; d < m.days; d++ {
		isWeekend[d] = toplist.Day(d).IsWeekend()
	}
	sentinel := int32(2 * m.size)
	appendKS := func(out []float64, a, b []float64) []float64 {
		if len(a) < 4 || len(b) < 4 {
			return out
		}
		if d := stats.KSDistance(a, b); !math.IsNaN(d) {
			out = append(out, d)
		}
		return out
	}
	// The sample buffers are reused across domains: KSDistance copies
	// its inputs.
	var wd, we []float64
	var halves [2][]float64
	for _, series := range m.series {
		wd, we = wd[:0], we[:0]
		halves[0], halves[1] = halves[0][:0], halves[1][:0]
		for d, r := range series {
			switch {
			case r == sentinel:
			case isWeekend[d]:
				we = append(we, float64(r))
			default:
				halves[len(wd)%2] = append(halves[len(wd)%2], float64(r))
				wd = append(wd, float64(r))
			}
		}
		weekend = appendKS(weekend, wd, we)
		baseline = appendKS(baseline, halves[0], halves[1])
	}
	return weekend, baseline
}

// SLDGroupDynamic describes one Fig. 3b/3c group: an SLD whose daily
// presence in the list swings by more than the threshold between
// weekdays and weekends.
type SLDGroupDynamic struct {
	Group        string
	WeekdayMean  float64
	WeekendMean  float64
	SwingPercent float64 // |weekend-weekday| / weekday × 100
	Series       []float64
}

// SLDDynamics computes Fig. 3b/3c for a provider: daily counts of list
// entries per SLD group, returning groups with a weekday/weekend swing
// above swingPC percent (evaluated within [fromDay, toDay); pass 0,0
// for the full archive) and a mean daily count of at least minCount.
// The day window matters for Alexa, whose weekend swing only exists
// after its regime change (the paper's Fig. 3b shows exactly this).
func (c *Context) SLDDynamics(provider string, swingPC, minCount float64, fromDay, toDay int) []SLDGroupDynamic {
	days := c.Arch.Days()
	if toDay <= fromDay {
		fromDay, toDay = 0, days
	}
	counts := make([][]float64, len(c.groups)) // by group key
	day := 0
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, _ := c.ids(provider, d, 0)
		for _, id := range ids {
			g := c.groupOf[c.info[id].baseKey]
			if g == noGroup {
				continue
			}
			if counts[g] == nil {
				counts[g] = make([]float64, days)
			}
			counts[g][day]++
		}
		day++
	})
	var out []SLDGroupDynamic
	for g, series := range counts {
		if series == nil {
			continue
		}
		var wd, we []float64
		for d, v := range series {
			if d < fromDay || d >= toDay {
				continue
			}
			if toplist.Day(d).IsWeekend() {
				we = append(we, v)
			} else {
				wd = append(wd, v)
			}
		}
		wdm, wem := stats.Mean(wd), stats.Mean(we)
		if (wdm+wem)/2 < minCount || wdm == 0 {
			continue
		}
		swing := 100 * math.Abs(wem-wdm) / wdm
		if swing < swingPC {
			continue
		}
		out = append(out, SLDGroupDynamic{
			Group:        c.groups[g],
			WeekdayMean:  wdm,
			WeekendMean:  wem,
			SwingPercent: swing,
			Series:       series,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SwingPercent != out[j].SwingPercent {
			return out[i].SwingPercent > out[j].SwingPercent
		}
		return out[i].Group < out[j].Group
	})
	return out
}
