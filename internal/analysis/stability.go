package analysis

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/toplist"
)

// DailyRemoved returns Fig. 1b's series: the count of domains present
// on day n but absent on day n+1, for each consecutive day pair.
func (c *Context) DailyRemoved(provider string, top int) []int {
	var out []int
	var prev stats.IDSet
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, _ := c.ids(provider, d, top)
		cur := stats.NewIDSet(ids)
		if prev != nil {
			out = append(out, prev.RemovedCount(cur))
		}
		prev = cur
	})
	return out
}

// ChurnByRank computes Fig. 1c: for each subset size, the mean share of
// the subset replaced per day within [fromDay, toDay).
func (c *Context) ChurnByRank(provider string, sizes []int, fromDay, toDay int) []float64 {
	out := make([]float64, len(sizes))
	counts := make([]int, len(sizes))
	for d := fromDay; d < toDay-1; d++ {
		cur := c.column(provider, toplist.Day(d))
		next := c.column(provider, toplist.Day(d+1))
		if cur == nil || next == nil {
			continue
		}
		for si, size := range sizes {
			a := stats.NewIDSet(present(cut(cur, size)))
			b := stats.NewIDSet(present(cut(next, size)))
			out[si] += float64(a.RemovedCount(b)) / float64(size)
			counts[si]++
		}
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] /= float64(counts[i])
		}
	}
	return out
}

// LogSizes returns log-spaced subset sizes up to max, for the Fig. 1c
// x-axis.
func LogSizes(max int) []int {
	var out []int
	for _, s := range []int{10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000} {
		if s < max {
			out = append(out, s)
		}
	}
	return append(out, max)
}

// CumulativeUnique returns Fig. 2a's series: the running count of
// distinct domains ever seen in the list.
func (c *Context) CumulativeUnique(provider string, top int) []int {
	union := make(map[uint32]struct{})
	var out []int
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, _ := c.ids(provider, d, top)
		for _, id := range ids {
			union[id] = struct{}{}
		}
		out = append(out, len(union))
	})
	return out
}

// DecayFromStart computes Fig. 2b: the intersection share between a
// fixed starting day's list and each later day, medianed over the
// first seven starting days.
func (c *Context) DecayFromStart(provider string, top int) []float64 {
	days := c.Arch.Days()
	const starts = 7
	if days <= starts {
		return nil
	}
	horizon := days - starts
	series := make([][]float64, starts)
	for s := 0; s < starts; s++ {
		ids, _ := c.ids(provider, toplist.Day(s), top)
		start := stats.NewIDSet(ids)
		n := float64(len(start))
		series[s] = make([]float64, horizon)
		for k := 0; k < horizon; k++ {
			ids, _ := c.ids(provider, toplist.Day(s+k), top)
			cur := stats.NewIDSet(ids)
			series[s][k] = float64(start.IntersectionCount(cur)) / n
		}
	}
	out := make([]float64, horizon)
	buf := make([]float64, starts)
	for k := 0; k < horizon; k++ {
		for s := 0; s < starts; s++ {
			buf[s] = series[s][k]
		}
		out[k] = stats.Median(buf)
	}
	return out
}

// DaysIncludedCDF returns Fig. 2c's CDF input: for every domain ever
// present in the (sub)list, the fraction of archive days it was
// included.
func (c *Context) DaysIncludedCDF(provider string, top int) *stats.ECDF {
	counts := make(map[uint32]int)
	days := 0
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, _ := c.ids(provider, d, top)
		for _, id := range ids {
			counts[id]++
		}
		days++
	})
	vals := make([]float64, 0, len(counts))
	for _, n := range counts {
		vals = append(vals, float64(n)/float64(days))
	}
	return stats.NewECDF(vals)
}

// NewVsRejoin splits daily changers into first-timers and rejoining
// domains (paper §6.1: 20–33 % of daily changing domains are new).
// Returns the mean daily share of changers that are first-appearances,
// measured after the startup transient.
func (c *Context) NewVsRejoin(provider string, top int) float64 {
	union := make(map[uint32]struct{})
	var prev stats.IDSet
	var shares []float64
	day := 0
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, _ := c.ids(provider, d, top)
		cur := stats.NewIDSet(ids)
		if prev != nil && day >= 8 {
			var added, fresh int
			for id := range cur {
				if !prev.Has(id) {
					added++
					if _, seen := union[id]; !seen {
						fresh++
					}
				}
			}
			if added > 0 {
				shares = append(shares, float64(fresh)/float64(added))
			}
		}
		for _, id := range ids {
			union[id] = struct{}{}
		}
		prev = cur
		day++
	})
	return stats.Mean(shares)
}

// PresenceQuantiles summarises a DaysIncludedCDF for reporting: the
// share of domains present at most the given fractions of days.
func PresenceQuantiles(e *stats.ECDF, fractions []float64) []float64 {
	out := make([]float64, len(fractions))
	for i, f := range fractions {
		out[i] = e.Eval(f)
	}
	return out
}

// SortedSizes returns sizes ascending (helper for rendering).
func SortedSizes(sizes []int) []int {
	out := append([]int(nil), sizes...)
	sort.Ints(out)
	return out
}
