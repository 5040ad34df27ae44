package analysis

import (
	"math"

	"repro/internal/stats"
	"repro/internal/toplist"
)

// Rank-similarity ablation. The paper measures order stability with
// Kendall's τ over common domains (§6.3, Fig. 4). τ has two known
// blind spots for top lists: it ignores domains present in only one of
// the two lists (precisely the churn the paper documents), and it
// weights a swap at rank 900 as much as a swap at rank 2. This file
// computes the same day-to-day and cross-provider comparisons under
// four metrics — τ, Spearman's ρ, the Spearman footrule, and
// Rank-Biased Overlap — so the choice of metric itself can be ablated
// (experiment "similarity").

// Similarity bundles the four rank-similarity readings for one list
// pair. Tau/Rho/Footrule are computed over the common-domain
// projection; RBO is computed over the full lists (it handles
// non-conjoint lists natively).
type Similarity struct {
	Tau      float64 // Kendall τ-b in [-1,1]
	Rho      float64 // Spearman ρ in [-1,1]
	Footrule float64 // normalised displacement in [0,1], 0 = identical
	RBO      float64 // rank-biased overlap in [0,1], 1 = identical
	Common   int     // size of the common-domain projection
}

// SimilarityBetween compares two lists under every metric. p is the
// RBO persistence parameter.
func (c *Context) SimilarityBetween(a, b *toplist.List, p float64) Similarity {
	s := Similarity{
		Tau:      math.NaN(),
		Rho:      math.NaN(),
		Footrule: math.NaN(),
		RBO:      math.NaN(),
	}
	if a == nil || b == nil {
		return s
	}
	s.RBO = stats.RBO(a.Names(), b.Names(), p)

	// Common-domain projection, compressed to permutations of 1..k.
	idsA := present(c.worldIDs(a))
	rankB := make(map[uint32]int, b.Len())
	for r, id := range present(c.worldIDs(b)) {
		if _, dup := rankB[id]; !dup {
			rankB[id] = r + 1
		}
	}
	var posA, posB []int // original ranks of common domains, in a-order
	seen := make(map[uint32]struct{}, len(idsA))
	for r, id := range idsA {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if rb, ok := rankB[id]; ok {
			posA = append(posA, r+1)
			posB = append(posB, rb)
		}
	}
	s.Common = len(posA)
	if s.Common < 2 {
		return s
	}
	s.Tau = stats.KendallTauRanks(posA, posB)
	s.Rho = stats.SpearmanRhoRanks(posA, posB)
	s.Footrule = stats.SpearmanFootrule(compressRanks(posA), compressRanks(posB))
	return s
}

// compressRanks maps a strictly increasing-by-set rank vector onto a
// permutation of 1..k preserving relative order.
func compressRanks(pos []int) []int {
	k := len(pos)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	// Order positions ascending; assign compressed rank by that order.
	for i := 1; i < k; i++ { // insertion sort: k is small vs allocation cost
		for j := i; j > 0 && pos[idx[j]] < pos[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := make([]int, k)
	for r, i := range idx {
		out[i] = r + 1
	}
	return out
}

// SimilarityDayToDay compares each consecutive day pair of a
// provider's top subset under every metric.
func (c *Context) SimilarityDayToDay(provider string, top int, p float64) []Similarity {
	var out []Similarity
	var prev *toplist.List
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		cur := c.Arch.Get(provider, d)
		if cur != nil && top > 0 {
			cur = cur.Top(top)
		}
		if prev != nil && cur != nil {
			out = append(out, c.SimilarityBetween(prev, cur, p))
		}
		prev = cur
	})
	return out
}

// SimilarityAcrossProviders compares two providers' same-day top
// subsets under every metric, one reading per day.
func (c *Context) SimilarityAcrossProviders(pa, pb string, top int, p float64) []Similarity {
	var out []Similarity
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		a, b := c.Arch.Get(pa, d), c.Arch.Get(pb, d)
		if a != nil && b != nil {
			if top > 0 {
				a, b = a.Top(top), b.Top(top)
			}
			out = append(out, c.SimilarityBetween(a, b, p))
		}
	})
	return out
}

// SimilaritySummary averages a series, ignoring NaN readings
// per-field.
func SimilaritySummary(series []Similarity) Similarity {
	var sum Similarity
	var nTau, nRho, nFoot, nRBO, nCommon int
	for _, s := range series {
		if !math.IsNaN(s.Tau) {
			sum.Tau += s.Tau
			nTau++
		}
		if !math.IsNaN(s.Rho) {
			sum.Rho += s.Rho
			nRho++
		}
		if !math.IsNaN(s.Footrule) {
			sum.Footrule += s.Footrule
			nFoot++
		}
		if !math.IsNaN(s.RBO) {
			sum.RBO += s.RBO
			nRBO++
		}
		sum.Common += s.Common
		nCommon++
	}
	div := func(v float64, n int) float64 {
		if n == 0 {
			return math.NaN()
		}
		return v / float64(n)
	}
	return Similarity{
		Tau:      div(sum.Tau, nTau),
		Rho:      div(sum.Rho, nRho),
		Footrule: div(sum.Footrule, nFoot),
		RBO:      div(sum.RBO, nRBO),
		Common:   int(div(float64(sum.Common), nCommon)),
	}
}
