package analysis

import (
	"math"

	"repro/internal/stats"
	"repro/internal/toplist"
)

// kendallBetween computes Kendall's τ-b between the ranks two ID lists
// assign to their common domains; NaN when fewer than two are common.
func kendallBetween(a, b []uint32) float64 {
	rankB := make(map[uint32]int, len(b))
	for r, id := range b {
		rankB[id] = r + 1
	}
	var xs, ys []float64
	for r, id := range a {
		if rb, ok := rankB[id]; ok {
			xs = append(xs, float64(r+1))
			ys = append(ys, float64(rb))
		}
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	return stats.KendallTau(xs, ys)
}

// KendallDayToDay computes Fig. 4's day-to-day series: τ between each
// consecutive day pair of the provider's top subset.
func (c *Context) KendallDayToDay(provider string, top int) []float64 {
	var out []float64
	var prev []uint32
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		cur, _ := c.ids(provider, d, top)
		if prev != nil {
			if tau := kendallBetween(prev, cur); !math.IsNaN(tau) {
				out = append(out, tau)
			}
		}
		prev = cur
	})
	return out
}

// KendallVsFirst computes Fig. 4's static series: τ between day 0's
// subset and every later day.
func (c *Context) KendallVsFirst(provider string, top int) []float64 {
	first, _ := c.ids(provider, c.Arch.First(), top)
	var out []float64
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		if d == c.Arch.First() {
			return
		}
		cur, _ := c.ids(provider, d, top)
		if tau := kendallBetween(first, cur); !math.IsNaN(tau) {
			out = append(out, tau)
		}
	})
	return out
}

// VeryStrongShare reports the fraction of τ values above the paper's
// "very strong correlation" threshold of 0.95 (§6.3).
func VeryStrongShare(taus []float64) float64 {
	if len(taus) == 0 {
		return 0
	}
	n := 0
	for _, t := range taus {
		if t > 0.95 {
			n++
		}
	}
	return float64(n) / float64(len(taus))
}
