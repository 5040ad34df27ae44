package providers

// dualEMA is double-buffered per-domain EMA window state, the
// mechanism behind the engine's pipelined day overlap: each step reads
// the front buffer (yesterday's state) and writes the back buffer,
// then flips. The previous front therefore survives one further step
// untouched, so a frozen rank view of day d (Generator.Freeze) stays
// valid while day d+1 steps — and is reclaimed as scratch only when
// day d+2 steps, which the engine's pipeline orders after day d's
// top-K selection has finished.
type dualEMA struct {
	buf [2][]float64
	cur int // index of the front buffer
}

func newDualEMA(n int) *dualEMA {
	return &dualEMA{buf: [2][]float64{make([]float64, n), make([]float64, n)}}
}

// Front returns the buffer holding the most recently stepped state —
// the rank view of the current day.
func (w *dualEMA) Front() []float64 { return w.buf[w.cur] }

// Back returns the buffer the next step writes; it still holds the
// state of two days ago, which the caller must be done ranking.
func (w *dualEMA) Back() []float64 { return w.buf[1-w.cur] }

// Flip promotes the back buffer to front after a step has filled it.
func (w *dualEMA) Flip() { w.cur = 1 - w.cur }

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
