package analysis

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/providers"
	"repro/internal/toplist"
)

// countingSource counts Get calls per slot. The flaky slot answers nil
// on its first read, the way a Remote or pack read can fail for a
// moment.
type countingSource struct {
	toplist.Source
	flaky slot

	mu   sync.Mutex
	gets map[slot]int
}

func (s *countingSource) Get(provider string, day toplist.Day) *toplist.List {
	k := slot{provider, day}
	s.mu.Lock()
	s.gets[k]++
	n := s.gets[k]
	s.mu.Unlock()
	if k == s.flaky && n == 1 {
		return nil
	}
	return s.Source.Get(provider, day)
}

// nameOnly copies the shared test archive with the IDs stripped, as a
// DiskStore, pack or Remote decodes it.
func nameOnly(t *testing.T) *toplist.Archive {
	t.Helper()
	c := ctx(t)
	arch := toplist.NewArchive(c.Arch.First(), c.Arch.Last())
	for _, p := range c.Arch.Providers() {
		toplist.EachDay(c.Arch, func(d toplist.Day) {
			if l := c.Arch.Get(p, d); l != nil {
				if err := arch.Put(p, d, toplist.New(l.Names())); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	return arch
}

// idAnalyses runs every analysis that reads ID columns and renders the
// results as one string.
func idAnalyses(c *Context) string {
	ps := []string{providers.Alexa, providers.Umbrella, providers.Majestic}
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%+v\n%+v\n", c.Table2(p, 0), c.Table2(p, headSize))
		fmt.Fprintln(&b, c.DailyRemoved(p, 0), c.ChurnByRank(p, []int{30, headSize}, 0, c.Arch.Days()))
		fmt.Fprintln(&b, c.CumulativeUnique(p, 0), c.DecayFromStart(p, 0), c.NewVsRejoin(p, 0))
		fmt.Fprintln(&b, PresenceQuantiles(c.DaysIncludedCDF(p, headSize), []float64{0.1, 0.5, 0.9}))
		ks, base := c.KSWeekendDistances(p, 0, 500)
		fmt.Fprintln(&b, ks, base, c.KendallDayToDay(p, headSize), c.KendallVsFirst(p, headSize))
		fmt.Fprintf(&b, "%+v\n", c.SLDDynamics(p, 25, 3, 0, 0))
	}
	fmt.Fprintf(&b, "%+v\n%+v\n", c.IntersectionSeries(ps[0], ps[1], ps[2], 0), c.Table3(ps, headSize))
	return b.String()
}

// TestColumnsReadEachSlotOnce pins the column mechanism: across every
// ID-based analysis, a Context fetches each present slot exactly once,
// and name-only lists give the same results as the lists with IDs.
func TestColumnsReadEachSlotOnce(t *testing.T) {
	c := ctx(t)
	src := &countingSource{Source: nameOnly(t), gets: make(map[slot]int)}
	got := idAnalyses(NewContext(c.W, src))
	for _, p := range src.Providers() {
		toplist.EachDay(src, func(d toplist.Day) {
			if n := src.gets[slot{p, d}]; n != 1 {
				t.Errorf("%s %v fetched %d times, want 1", p, d, n)
			}
		})
	}
	if want := idAnalyses(NewContext(c.W, c.Arch)); got != want {
		t.Error("name-only lists analyse differently from lists with IDs")
	}
}

// TestColumnsRetryNilGet: a slot whose read failed is not remembered
// as absent; the next analysis asks the source again and sees it.
func TestColumnsRetryNilGet(t *testing.T) {
	c := ctx(t)
	flaky := slot{providers.Alexa, 3}
	src := &countingSource{Source: nameOnly(t), flaky: flaky, gets: make(map[slot]int)}
	flakyCtx := NewContext(c.W, src)
	first := flakyCtx.DailyRemoved(providers.Alexa, 0)
	second := flakyCtx.DailyRemoved(providers.Alexa, 0)
	want := c.DailyRemoved(providers.Alexa, 0)
	if fmt.Sprint(first) == fmt.Sprint(want) {
		t.Fatal("the failed read did not show in the first analysis")
	}
	if fmt.Sprint(second) != fmt.Sprint(want) {
		t.Fatalf("after a failed read: %v, want %v", second, want)
	}
	if n := src.gets[flaky]; n != 2 {
		t.Fatalf("flaky slot fetched %d times, want 2", n)
	}
}

// TestColumnsConcurrentUse shares one Context across goroutines, as
// RunAll does; every goroutine must see the serial results. Run under
// -race this is the concurrency gate for the column cache.
func TestColumnsConcurrentUse(t *testing.T) {
	c := ctx(t)
	src := nameOnly(t)
	want := idAnalyses(NewContext(c.W, src))
	shared := NewContext(c.W, src)
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = idAnalyses(shared)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d: concurrent results differ from serial", i)
		}
	}
}

// gatedSource holds the first Get of one slot until a second Get of
// that slot arrives or 20 ms pass. A reader that joins the first read
// instead of fetching again leaves the gate to time out.
type gatedSource struct {
	toplist.Source
	gated  slot
	gets   atomic.Int32
	second chan struct{}
}

func (s *gatedSource) Get(provider string, day toplist.Day) *toplist.List {
	if (slot{provider, day}) == s.gated {
		switch s.gets.Add(1) {
		case 1:
			select {
			case <-s.second:
			case <-time.After(20 * time.Millisecond):
			}
		case 2:
			close(s.second)
		}
	}
	return s.Source.Get(provider, day)
}

// TestColumnsSingleFlight: two analyses that read a slot while its
// first read is in flight share that read. A scheduler slow enough to
// start the second reader after the gate times out makes the test pass
// without exercising the join, never fail.
func TestColumnsSingleFlight(t *testing.T) {
	c := ctx(t)
	src := &gatedSource{Source: nameOnly(t), gated: slot{providers.Alexa, c.Arch.First()}, second: make(chan struct{})}
	shared := NewContext(c.W, src)
	var removed []int
	var row Table2Row
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		removed = shared.DailyRemoved(providers.Alexa, 0)
	}()
	go func() {
		defer wg.Done()
		row = shared.Table2(providers.Alexa, 0)
	}()
	wg.Wait()
	if n := src.gets.Load(); n != 1 {
		t.Errorf("the gated slot was fetched %d times, want 1", n)
	}
	if want := c.DailyRemoved(providers.Alexa, 0); fmt.Sprint(removed) != fmt.Sprint(want) {
		t.Errorf("DailyRemoved %v, want %v", removed, want)
	}
	if want := c.Table2(providers.Alexa, 0); row != want {
		t.Errorf("Table2 %+v, want %+v", row, want)
	}
}
