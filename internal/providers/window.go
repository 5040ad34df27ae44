package providers

// SlidingWindow maintains exact N-day sliding sums per domain with a
// ring buffer — the reference implementation the EMA approximation is
// validated against (TestEMAApproximatesWindow; the root
// BenchmarkAblationWindow). Memory is O(domains × days), which is why
// the production rankers use EMAs instead.
type SlidingWindow struct {
	days  int
	ring  [][]float64
	sum   []float64
	head  int
	count int
}

// NewSlidingWindow builds a window over n domains and the given number
// of days.
func NewSlidingWindow(domains, days int) *SlidingWindow {
	w := &SlidingWindow{
		days: days,
		ring: make([][]float64, days),
		sum:  make([]float64, domains),
	}
	for i := range w.ring {
		w.ring[i] = make([]float64, domains)
	}
	return w
}

// Push adds one day of signal and evicts the oldest day once the
// window is full.
func (w *SlidingWindow) Push(signal []float64) {
	slot := w.ring[w.head]
	if w.count == w.days {
		for i, old := range slot {
			w.sum[i] -= old
		}
	}
	copy(slot, signal)
	for i, v := range slot {
		w.sum[i] += v
	}
	w.head = (w.head + 1) % w.days
	if w.count < w.days {
		w.count++
	}
}

// Sums returns the current per-domain window sums (shared slice; do not
// modify).
func (w *SlidingWindow) Sums() []float64 { return w.sum }

// Filled reports whether the window has seen at least `days` pushes.
func (w *SlidingWindow) Filled() bool { return w.count == w.days }
