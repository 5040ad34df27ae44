package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a fill that counts its calls and yields v.
func value[V any](calls *atomic.Int64, v V) func() (V, error) {
	return func() (V, error) {
		calls.Add(1)
		return v, nil
	}
}

// blocked starts a fill for key in its own goroutine that waits for
// release before returning (v, err), and returns once the fill runs.
func blocked[V any](t *testing.T, c *LRU[string, V], key string, validator any, v V, err error) (release func(), done <-chan error) {
	t.Helper()
	started, gate, out := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), key, validator, func() (V, error) {
			close(started)
			<-gate
			return v, err
		})
		out <- err
	}()
	<-started
	return func() { close(gate) }, out
}

func keys[K comparable, V any](c *LRU[K, V]) []K {
	var out []K
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

// waitFront spins until key is the most recently used entry: how a test
// learns that a concurrent Do has joined key's in-flight fill.
func waitFront[V any](t *testing.T, c *LRU[string, V], key string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		c.mu.Lock()
		front := c.order.Front().Value.(*entry[string, V]).key
		c.mu.Unlock()
		if front == key {
			return
		}
	}
	t.Fatalf("%s never moved to the front", key)
}

// checkInvariants asserts that the map and the recency list agree and
// respect the capacity.
func checkInvariants[K comparable, V any](t *testing.T, c *LRU[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.items) != c.order.Len() {
		t.Fatalf("map holds %d entries, list %d", len(c.items), c.order.Len())
	}
	if c.capacity > 0 && len(c.items) > c.capacity {
		t.Fatalf("%d entries exceed capacity %d", len(c.items), c.capacity)
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		if c.items[e.key] != e || e.elem != el {
			t.Fatalf("list entry for %v is not the installed one", e.key)
		}
	}
}

// TestSingleFlight: concurrent callers of one key share one fill and
// all get its value.
func TestSingleFlight(t *testing.T) {
	c := New[string, int](0)
	var calls atomic.Int64
	release, done := blocked(t, c, "k", nil, 7, nil)
	const n = 16
	var wg sync.WaitGroup
	got := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", nil, value(&calls, -1))
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if calls.Load() != 0 {
		t.Fatalf("%d joiners ran a fill of their own", calls.Load())
	}
	for i, v := range got {
		if v != 7 {
			t.Fatalf("caller %d got %d, want the shared fill's 7", i, v)
		}
	}
}

// TestCancelledWaiterLeavesEntry: a waiter whose context ends returns
// ctx.Err() at once; the fill it joined still completes and is
// memoized.
func TestCancelledWaiterLeavesEntry(t *testing.T) {
	c := New[string, int](0)
	release, done := blocked(t, c, "k", nil, 7, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	if _, err := c.Do(ctx, "k", nil, value(&calls, -1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("Get = %d, %v after the fill; want 7, true", v, ok)
	}
	// A settled entry answers even under a cancelled context.
	if v, err := c.Do(ctx, "k", nil, value(&calls, -1)); err != nil || v != 7 {
		t.Fatalf("settled hit under cancelled ctx = %d, %v", v, err)
	}
	if calls.Load() != 0 {
		t.Fatalf("%d extra fills ran", calls.Load())
	}
}

// TestNilErrorIsMemoized: a fill returning a nil error is cached, even
// when the value is the zero value a caller uses for "absent".
func TestNilErrorIsMemoized(t *testing.T) {
	c := New[string, *int](0)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		v, err := c.Do(context.Background(), "absent", nil, value[*int](&calls, nil))
		if v != nil || err != nil {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("%d fills for a memoized nil, want 1", calls.Load())
	}
	if v, ok := c.Get("absent"); !ok || v != nil {
		t.Fatalf("Get = %v, %v; want nil, true", v, ok)
	}
}

// TestErrorIsNotMemoized: a failed fill's error reaches the filler and
// the waiter that joined it, and the next caller fills afresh.
func TestErrorIsNotMemoized(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")
	release, done := blocked(t, c, "k", nil, 0, boom)
	c.Add("other", 0)
	var calls atomic.Int64
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "k", nil, value(&calls, 1))
		waiter <- err
	}()
	waitFront(t, c, "k")
	release()
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("filler got %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) || calls.Load() != 0 {
		t.Fatalf("waiter got %v after %d fills of its own, want boom after 0", err, calls.Load())
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed fill left a memoized entry")
	}
	if v, err := c.Do(context.Background(), "k", nil, value(&calls, 3)); err != nil || v != 3 || calls.Load() != 1 {
		t.Fatalf("refill = %d, %v after %d fills", v, err, calls.Load())
	}
	checkInvariants(t, c)
}

// TestFailedFillKeepsSuccessor: a fill that fails after its key was
// taken over — by a validator change, a Remove and refill, or an Add —
// leaves the successor's entry in place.
func TestFailedFillKeepsSuccessor(t *testing.T) {
	boom := errors.New("boom")
	for name, takeOver := range map[string]func(c *LRU[string, int]){
		"validator": func(c *LRU[string, int]) {
			// A new validator must not join the old fill; the timeout
			// turns a join into a failure instead of a deadlock.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			c.Do(ctx, "k", "v2", func() (int, error) { return 2, nil }) //nolint:errcheck
		},
		"remove": func(c *LRU[string, int]) {
			c.Remove("k")
			c.Do(context.Background(), "k", "v1", func() (int, error) { return 2, nil }) //nolint:errcheck
		},
		"add": func(c *LRU[string, int]) { c.Add("k", 2) },
	} {
		t.Run(name, func(t *testing.T) {
			c := New[string, int](0)
			release, done := blocked(t, c, "k", "v1", 0, boom)
			takeOver(c)
			release()
			if err := <-done; !errors.Is(err, boom) {
				t.Fatalf("filler got %v, want boom", err)
			}
			if v, ok := c.Get("k"); !ok || v != 2 {
				t.Fatalf("successor entry = %d, %v; want 2, true", v, ok)
			}
			checkInvariants(t, c)
		})
	}
}

// TestHitMovesToFront: a hit, a join and a Get each refresh recency, so
// the least recently used key is the one evicted.
func TestHitMovesToFront(t *testing.T) {
	var calls atomic.Int64
	fill := value(&calls, 0)
	touches := map[string]func(c *LRU[string, int]){
		"hit": func(c *LRU[string, int]) { c.Do(context.Background(), "a", nil, fill) }, //nolint:errcheck
		"get": func(c *LRU[string, int]) { c.Get("a") },
	}
	for name, touch := range touches {
		t.Run(name, func(t *testing.T) {
			c := New[string, int](2)
			c.Do(context.Background(), "a", nil, fill) //nolint:errcheck
			c.Do(context.Background(), "b", nil, fill) //nolint:errcheck
			touch(c)
			c.Do(context.Background(), "c", nil, fill) //nolint:errcheck
			if got := fmt.Sprint(keys(c)); got != "[c a]" {
				t.Fatalf("entries %s after touching a, want [c a]", got)
			}
			checkInvariants(t, c)
		})
	}
	t.Run("join", func(t *testing.T) {
		c := New[string, int](2)
		release, done := blocked(t, c, "a", nil, 1, nil)
		c.Do(context.Background(), "b", nil, fill) //nolint:errcheck
		joined := make(chan struct{})
		go func() {
			c.Do(context.Background(), "a", nil, fill) //nolint:errcheck
			close(joined)
		}()
		waitFront(t, c, "a")
		release()
		<-done
		<-joined
		c.Do(context.Background(), "c", nil, fill) //nolint:errcheck
		if got := fmt.Sprint(keys(c)); got != "[c a]" {
			t.Fatalf("entries %s after joining a, want [c a]", got)
		}
	})
}

// TestEvictionOrder: installs evict from the back past capacity, and
// an evicted key fills again.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	var calls atomic.Int64
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		c.Do(context.Background(), k, nil, value(&calls, 0)) //nolint:errcheck
		checkInvariants(t, c)
	}
	if got := fmt.Sprint(keys(c)); got != "[e d c]" {
		t.Fatalf("entries %s, want [e d c]", got)
	}
	c.Add("f", 0)
	if got := fmt.Sprint(keys(c)); got != "[f e d]" {
		t.Fatalf("entries %s after Add, want [f e d]", got)
	}
	calls.Store(0)
	c.Do(context.Background(), "a", nil, value(&calls, 0)) //nolint:errcheck
	if calls.Load() != 1 {
		t.Fatal("evicted key was not refilled")
	}
}

// TestEvictedInFlightEntryCompletes: a fill whose entry is evicted
// while it runs still delivers its value to the caller that joined it,
// but the value is not memoized.
func TestEvictedInFlightEntryCompletes(t *testing.T) {
	c := New[string, int](2)
	release, done := blocked(t, c, "a", nil, 7, nil)
	c.Add("b", 0)
	var calls atomic.Int64
	got := make(chan int, 1)
	go func() {
		v, _ := c.Do(context.Background(), "a", nil, value(&calls, -1))
		got <- v
	}()
	waitFront(t, c, "a")
	c.Add("c", 0)
	c.Add("d", 0) // evicts a, still in flight
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != 7 || calls.Load() != 0 {
		t.Fatalf("joiner of the evicted fill got %d after %d fills of its own, want 7 after 0", v, calls.Load())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry came back")
	}
	checkInvariants(t, c)
}

// TestValidatorReplaces: a lookup with a different validator refills
// and replaces the entry; a matching one hits. The key never holds two
// entries.
func TestValidatorReplaces(t *testing.T) {
	c := New[string, string](0)
	var calls atomic.Int64
	type ptr struct{ int }
	p1, p2 := &ptr{1}, &ptr{1}
	steps := []struct {
		validator any
		fill      string
		want      string
		fills     int64
	}{
		{"h1", "one", "one", 1},
		{"h1", "stale", "one", 1},
		{"h2", "two", "two", 2},
		{p1, "three", "three", 3},
		{p1, "stale", "three", 3},
		{p2, "four", "four", 4}, // equal contents, different pointer
		{"h2", "five", "five", 5},
	}
	for i, s := range steps {
		v, err := c.Do(context.Background(), "k", s.validator, value(&calls, s.fill))
		if err != nil || v != s.want || calls.Load() != s.fills {
			t.Fatalf("step %d: Do = %q, %v after %d fills; want %q after %d", i, v, err, calls.Load(), s.want, s.fills)
		}
		if n := len(keys(c)); n != 1 {
			t.Fatalf("step %d: key holds %d entries", i, n)
		}
		checkInvariants(t, c)
	}
}

// TestUnboundedNeverEvicts: capacity 0 and below keep every entry.
func TestUnboundedNeverEvicts(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[int, int](capacity)
		var calls atomic.Int64
		for k := 0; k < 100; k++ {
			c.Do(context.Background(), k, nil, value(&calls, k)) //nolint:errcheck
		}
		c.Add(100, 100)
		if n := len(keys(c)); n != 101 {
			t.Fatalf("capacity %d: %d entries left of 101", capacity, n)
		}
		checkInvariants(t, c)
	}
}

// TestRemoveAndAll: Remove drops settled entries and in-flight ones;
// All skips in-flight entries, lists most recent first, and lets the
// loop body call back into the cache.
func TestRemoveAndAll(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1)
	c.Add("b", 2)
	release, done := blocked(t, c, "c", nil, 3, nil)
	if got := fmt.Sprint(keys(c)); got != "[b a]" {
		t.Fatalf("All = %s while c is in flight, want [b a]", got)
	}
	for k, v := range c.All() {
		if v == 1 {
			c.Remove(k)
		}
	}
	c.Remove("c")
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(keys(c)); got != "[b]" {
		t.Fatalf("All = %s after removals, want [b]", got)
	}
	checkInvariants(t, c)
}

// TestConcurrentUse hammers a tiny cache with overlapping fills,
// failures, validator changes, Adds, Removes and iteration; run under
// -race it is the concurrency gate for the type.
func TestConcurrentUse(t *testing.T) {
	c := New[string, int](3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				key := fmt.Sprint(rng.Intn(6))
				switch op := rng.Intn(10); {
				case op < 6:
					validator := rng.Intn(2)
					fail := rng.Intn(5) == 0
					ctx, cancel := context.WithCancel(context.Background())
					if rng.Intn(4) == 0 {
						cancel()
					}
					v, err := c.Do(ctx, key, validator, func() (int, error) {
						if fail {
							return 0, errors.New("fill failed")
						}
						return len(key) + validator, nil
					})
					cancel()
					if err == nil && v != len(key)+validator {
						t.Errorf("%s/%d: got %d", key, validator, v)
					}
				case op < 7:
					c.Add(key, 1)
				case op < 8:
					c.Remove(key)
				case op < 9:
					c.Get(key)
				default:
					for range c.All() {
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	checkInvariants(t, c)
}
