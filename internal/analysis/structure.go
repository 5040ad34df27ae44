package analysis

import (
	"repro/internal/stats"
	"repro/internal/toplist"
)

// Table2Row holds the paper's Table 2 metrics for one (provider,
// subset) pair over the archive: mean valid-TLD coverage, mean base
// domains, subdomain-depth shares, domain aliases, mean daily change,
// and mean first-appearance count.
type Table2Row struct {
	Provider string
	Top      int // subset size; 0 = full list

	TLDMean, TLDStd float64 // distinct valid TLDs covered
	InvalidTLDMean  float64 // distinct invalid TLDs present
	InvalidNameMean float64 // names under invalid TLDs
	BDMean, BDStd   float64 // unique base domains
	SD1, SD2, SD3   float64 // mean share at subdomain depth 1, 2, 3
	SDM             int     // maximum subdomain depth observed
	DupMean, DupStd float64 // domain aliases (DUP_SLD)
	Delta           float64 // µ∆: mean daily removed-domain count
	New             float64 // µNEW: mean daily first-appearance count
}

// Table2 computes the row for provider at the given subset size
// (0 = full list).
//
// Distinct keys are counted with stamp arrays: a key's stamp is the
// 1-based index of the last present day that saw it, so no per-day set
// is built or cleared. The arrays are allocated per call, so concurrent
// callers do not share them.
func (c *Context) Table2(provider string, top int) Table2Row {
	row := Table2Row{Provider: provider, Top: top}
	var tlds, bds, dups, invT, invN []float64
	var deltas, news []float64

	tldSeen := make([]int32, c.tlds)
	baseSeen := make([]int32, len(c.groupOf))
	groups := make([]struct{ seen, bases int32 }, len(c.groups))
	// seen is an ID's last present day, first its first one.
	ids := make([]struct{ seen, first int32 }, c.W.Len())
	prevDistinct := 0
	day := 0

	toplist.EachDay(c.Arch, func(d toplist.Day) {
		col := cut(c.column(provider, d), top)
		if len(col) == 0 {
			return
		}
		stamp := int32(day + 1)
		var validTLDs, invalidTLDs, invalidNames, bases, dup int
		var distinct, kept, newCount int
		var d1, d2, d3 float64
		for _, id := range col {
			if id == noID {
				continue
			}
			in := &c.info[id]
			if !in.validTLD {
				invalidNames++
			}
			if tldSeen[in.tldKey] != stamp {
				tldSeen[in.tldKey] = stamp
				if in.validTLD {
					validTLDs++
				} else {
					invalidTLDs++
				}
			}
			if baseSeen[in.baseKey] != stamp {
				baseSeen[in.baseKey] = stamp
				bases++
				// DUP_SLD counts every base of a group that has more
				// than one.
				if g := c.groupOf[in.baseKey]; g != noGroup {
					gs := &groups[g]
					if gs.seen != stamp {
						gs.seen, gs.bases = stamp, 0
					}
					gs.bases++
					switch gs.bases {
					case 1:
					case 2:
						dup += 2
					default:
						dup++
					}
				}
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
			if int(in.depth) > row.SDM {
				row.SDM = int(in.depth)
			}
			// µ∆ compares the day's distinct IDs with the previous
			// present day's; µNEW counts every occurrence of an ID that
			// no earlier day had.
			is := &ids[id]
			if is.seen != stamp {
				if is.seen == stamp-1 {
					kept++
				}
				is.seen = stamp
				distinct++
			}
			if is.first == 0 {
				is.first = stamp
			}
			if is.first == stamp {
				newCount++
			}
		}
		size := float64(len(col))
		tlds = append(tlds, float64(validTLDs))
		invT = append(invT, float64(invalidTLDs))
		invN = append(invN, float64(invalidNames))
		bds = append(bds, float64(bases))
		row.SD1 += d1 / size
		row.SD2 += d2 / size
		row.SD3 += d3 / size
		dups = append(dups, float64(dup))
		if day > 0 {
			deltas = append(deltas, float64(prevDistinct-kept))
		}
		if day >= 8 { // skip the startup transient for first-appearances
			news = append(news, float64(newCount))
		}
		prevDistinct = distinct
		day++
	})

	days := float64(len(tlds))
	if days == 0 {
		return row
	}
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
	return row
}
