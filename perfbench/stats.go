package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: fewer, and one slow sample moves it.
const minBeyond = 10

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile (0.5 < q < 1) of
// xs. It refuses, with an error, when fewer than minBeyond samples lie
// beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0.5 || q >= 1 {
		return 0, fmt.Errorf("percentile %v: use median for the middle, and q < 1", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // guard against q*n landing a hair above an integer
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g refused: %d of %d samples lie beyond it, need %d", q*100, max(beyond, 0), n, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
