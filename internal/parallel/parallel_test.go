package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestShardPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{1, 2, 15, 16, 17, 1000} {
			if workers > n {
				continue
			}
			prev := 0
			for i := 0; i < workers; i++ {
				lo, hi := Shard(workers, n, i)
				if lo != prev {
					t.Fatalf("workers=%d n=%d shard %d: lo=%d want %d", workers, n, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("workers=%d n=%d shard %d: hi<lo", workers, n, i)
				}
				if d := hi - lo; d != n/workers && d != n/workers+1 {
					t.Fatalf("workers=%d n=%d shard %d: size %d", workers, n, i, d)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("workers=%d n=%d: shards end at %d", workers, n, prev)
			}
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 9} {
		const n = 257
		counts := make([]int32, n)
		For(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndOversubscribed(t *testing.T) {
	ran := false
	For(8, 0, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("For on empty range ran fn")
	}
	var total int32
	For(64, 3, func(lo, hi int) { atomic.AddInt32(&total, int32(hi-lo)) })
	if total != 3 {
		t.Fatalf("oversubscribed For covered %d items", total)
	}
}

func TestDo(t *testing.T) {
	Do() // no-op
	var total int32
	Do(
		func() { atomic.AddInt32(&total, 1) },
		func() { atomic.AddInt32(&total, 2) },
		func() { atomic.AddInt32(&total, 4) },
	)
	if total != 7 {
		t.Fatalf("Do total = %d", total)
	}
}

// TestGroupFirstErrorCancels: the first stage error fires the cancel
// hook exactly once and promptly unblocks stages waiting on it, and
// Wait reports that first error.
func TestGroupFirstErrorCancels(t *testing.T) {
	done := make(chan struct{})
	var cancels int32
	g := NewGroup(func() {
		atomic.AddInt32(&cancels, 1)
		close(done)
	})
	g.Go(func() error {
		<-done // unblocked only by the other stage's failure
		return nil
	})
	boom := errors.New("boom")
	g.Go(func() error { return boom })
	g.Do(func() error {
		<-done
		return errors.New("later, must not win")
	})
	if err := g.Wait(); err != boom {
		t.Fatalf("Wait() = %v, want the first error", err)
	}
	if n := atomic.LoadInt32(&cancels); n != 1 {
		t.Fatalf("cancel hook fired %d times", n)
	}
}

// TestGroupCleanRun: no errors, nil cancel hook allowed, Wait returns
// nil after every stage finishes.
func TestGroupCleanRun(t *testing.T) {
	g := NewGroup(nil)
	var total int32
	for i := 0; i < 4; i++ {
		g.Go(func() error { atomic.AddInt32(&total, 1); return nil })
	}
	g.Do(func() error { atomic.AddInt32(&total, 1); return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("ran %d stages, want 5", total)
	}
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestEachRunsEveryIndexOnce: every index runs exactly once, whatever
// the worker count.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 16} {
		setProcs(t, procs)
		for _, n := range []int{1, 2, 3, 7, 100} {
			counts := make([]atomic.Int32, n)
			Each(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
	}
}

// TestEachSerialIsInline: with one worker the calls run on the caller's
// goroutine, in index order.
func TestEachSerialIsInline(t *testing.T) {
	setProcs(t, 1)
	var order []int
	buf := make([]byte, 64<<10)
	Each(5, func(i int) {
		order = append(order, i)
		if stack := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(stack, "TestEachSerialIsInline") {
			t.Errorf("call %d ran off the caller's goroutine:\n%s", i, stack)
		}
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d calls, want 5", len(order))
	}
}

// TestEachEmpty: n <= 0 calls nothing.
func TestEachEmpty(t *testing.T) {
	setProcs(t, 4)
	for _, n := range []int{0, -1} {
		Each(n, func(i int) { t.Errorf("Each(%d) called fn(%d)", n, i) })
	}
}
