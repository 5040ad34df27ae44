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
func (c *Context) Table2(provider string, top int) Table2Row {
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
		baseSet := make(map[uint32]struct{})
		sldBases := make(map[string]map[uint32]struct{})
		var d1, d2, d3 float64
		invalidNames := 0
		for _, id := range ids {
			in := &c.info[id]
			if in.validTLD {
				validTLD[in.tld] = struct{}{}
			} else {
				invalidTLD[in.tld] = struct{}{}
				invalidNames++
			}
			baseSet[in.baseKey] = struct{}{}
			if in.sldGroup != "" {
				m := sldBases[in.sldGroup]
				if m == nil {
					m = make(map[uint32]struct{})
					sldBases[in.sldGroup] = m
				}
				m[in.baseKey] = struct{}{}
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
		if day >= 8 { // skip the startup transient for first-appearances
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
