// Package parallel provides the small deterministic fan-out primitives
// the concurrent simulation engine is built from: contiguous range
// sharding (For), independent task groups (Do), fail-fast stage
// groups (Group), and an indexed work queue (Each).
// Shard boundaries depend only on (workers, n), never on scheduling,
// so callers that merge per-shard partial results in shard order get
// run-to-run deterministic output.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values < 1 mean "use
// GOMAXPROCS", anything else is returned unchanged.
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Shard returns the half-open range [lo, hi) of the i-th of workers
// contiguous shards over n items. Shards differ in size by at most one
// and depend only on (workers, n, i).
func Shard(workers, n, i int) (lo, hi int) {
	q, r := n/workers, n%workers
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

// Shards returns every Shard boundary as [lo, hi) pairs, in shard
// order, dropping empty shards (workers > n). Distributed generation
// uses it to enumerate the shard plan once: the boundaries are the same
// pure function of (workers, n) the in-process engine shards by, which
// is what keeps a distributed run byte-identical to a local one.
func Shards(workers, n int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([][2]int, 0, workers)
	for i := 0; i < workers; i++ {
		lo, hi := Shard(workers, n, i)
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// For splits [0, n) into at most workers contiguous shards and runs fn
// on each concurrently, returning when all shards are done. With
// workers <= 1 (or n too small to split) fn runs inline over the whole
// range, making the serial reference path allocation- and
// scheduling-free.
func For(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		lo, hi := Shard(workers, n, i)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	lo, hi := Shard(workers, n, 0)
	fn(lo, hi)
	wg.Wait()
}

// Group runs a set of cooperating stage functions and collects the
// first error — the primitive behind the engine's emit overlap, where
// the sink is written behind the day loop. Unlike Do, the stages are
// long-lived, may fail, and a failure must promptly unblock the
// others: the first non-nil error (from a goroutine started with Go or
// an inline stage run with Do) fires the group's cancel hook exactly
// once, so stages selecting on the matching Done channel observe the
// failure at their next stage boundary instead of running useless work
// to completion.
type Group struct {
	cancel func()
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

// NewGroup returns a group whose cancel hook fires on the first stage
// error (nil is allowed for groups that only collect errors).
func NewGroup(cancel func()) *Group { return &Group{cancel: cancel} }

// Go runs fn on its own goroutine.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.fail(err)
		}
	}()
}

// Do runs fn inline on the caller's goroutine — how the caller makes
// itself one of the group's stages without a goroutine handoff.
func (g *Group) Do(fn func() error) {
	if err := fn(); err != nil {
		g.fail(err)
	}
}

// Wait blocks until every Go'd stage has returned and reports the
// first error any stage (including inline Do stages) returned.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}

func (g *Group) fail(err error) {
	g.once.Do(func() {
		g.err = err
		if g.cancel != nil {
			g.cancel()
		}
	})
}

// Do runs the given tasks concurrently and returns when all are done.
// With one task (or fewer) it runs inline.
func Do(tasks ...func()) {
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks) - 1)
	for _, t := range tasks[1:] {
		go func() {
			defer wg.Done()
			t()
		}()
	}
	tasks[0]()
	wg.Wait()
}

// Each runs fn(i) for every i in [0, n) and returns when all calls are
// done. min(GOMAXPROCS, n) goroutines, the caller's among them, take
// indexes in order until none are left, so the calls that start first
// are the low indexes; with one worker every call runs inline in index
// order. Callers that write only their own index's result get output
// independent of scheduling.
func Each(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
