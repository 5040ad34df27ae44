package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

func testWorld(t testing.TB) (*traffic.Model, population.Config) {
	t.Helper()
	cfg := population.TestConfig()
	cfg.Days = 16
	cfg.Sites = 3000
	cfg.BirthsPerDay = 25
	w, err := population.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return traffic.NewModel(w), cfg
}

func testOpts(days int) providers.Options {
	opts := providers.DefaultOptions(days, 800)
	opts.BurnInDays = 25
	return opts
}

func generate(t testing.TB, m *traffic.Model, opts providers.Options, days, workers int) *toplist.Archive {
	t.Helper()
	g, err := providers.NewGenerator(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := Run(context.Background(), g, days, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return arch
}

// assertIdentical fails unless the two archives hold byte-identical
// snapshots: same provider set, and for every provider and day the
// same names in the same rank order with the same IDs.
func assertIdentical(t *testing.T, want, got *toplist.Archive, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.SortedProviders(), got.SortedProviders()) {
		t.Fatalf("%s: providers %v vs %v", label, want.SortedProviders(), got.SortedProviders())
	}
	if want.Days() != got.Days() {
		t.Fatalf("%s: days %d vs %d", label, want.Days(), got.Days())
	}
	for _, p := range want.SortedProviders() {
		for d := want.First(); d <= want.Last(); d++ {
			wl, gl := want.Get(p, d), got.Get(p, d)
			if wl == nil || gl == nil {
				t.Fatalf("%s: %s %v: nil snapshot", label, p, d)
			}
			if !reflect.DeepEqual(wl.Names(), gl.Names()) {
				t.Fatalf("%s: %s %v: names differ", label, p, d)
			}
			if !reflect.DeepEqual(wl.IDs(), gl.IDs()) {
				t.Fatalf("%s: %s %v: IDs differ", label, p, d)
			}
		}
	}
}

// TestEquivalenceSerialVsConcurrent is the PR's core guarantee: the
// concurrent engine produces archives byte-identical to the Workers=1
// serial reference path, for every provider and every day.
func TestEquivalenceSerialVsConcurrent(t *testing.T) {
	m, cfg := testWorld(t)
	for _, workers := range []int{2, 3, 4, 8} {
		serial := generate(t, m, testOpts(cfg.Days), cfg.Days, 1)
		conc := generate(t, m, testOpts(cfg.Days), cfg.Days, workers)
		assertIdentical(t, serial, conc, fmt.Sprintf("workers=%d", workers))
		if !conc.Complete() {
			t.Fatalf("workers=%d: archive incomplete", workers)
		}
	}
}

// TestEquivalenceWithLegacyRun pins the engine to the pre-engine
// generator loop: providers.Generator.Run and the engine must agree.
func TestEquivalenceWithLegacyRun(t *testing.T) {
	m, cfg := testWorld(t)
	g, err := providers.NewGenerator(m, testOpts(cfg.Days))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := g.Run(cfg.Days)
	if err != nil {
		t.Fatal(err)
	}
	eng := generate(t, m, testOpts(cfg.Days), cfg.Days, 0)
	assertIdentical(t, legacy, eng, "legacy-vs-engine")
}

// TestEquivalenceWithInjector covers the §7 manipulation path on all
// three axes: the injected-name merge (DNS clients into Umbrella,
// panel visitors into Alexa, backlinks into Majestic) must also be
// independent of the worker count.
func TestEquivalenceWithInjector(t *testing.T) {
	m, cfg := testWorld(t)
	mkInj := func(clients, queries float64) *traffic.Injector {
		inj := traffic.NewInjector()
		for d := -25; d < cfg.Days; d++ {
			inj.Add("manipulated.example", d, clients, queries)
		}
		return inj
	}
	mkOpts := func() providers.Options {
		opts := testOpts(cfg.Days)
		opts.Injector = mkInj(9000, 90000)
		opts.AlexaInjector = mkInj(200000, 600000)
		opts.MajesticInjector = mkInj(150000, 0)
		return opts
	}
	serial := generate(t, m, mkOpts(), cfg.Days, 1)
	conc := generate(t, m, mkOpts(), cfg.Days, 4)
	assertIdentical(t, serial, conc, "injector")
	for _, p := range []string{providers.Alexa, providers.Umbrella, providers.Majestic} {
		found := false
		for d := toplist.Day(0); d <= serial.Last(); d++ {
			if serial.Get(p, d).Contains("manipulated.example") {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: injected name never entered the list", p)
		}
	}
}

// recordingSink records Put/EndDay order and can fail on demand.
type recordingSink struct {
	puts    []string
	days    []toplist.Day
	failPut int // fail the n-th Put (1-based; 0 = never)
}

func (s *recordingSink) Put(provider string, day toplist.Day, l *toplist.List) error {
	s.puts = append(s.puts, fmt.Sprintf("%s/%d", provider, int(day)))
	if s.failPut > 0 && len(s.puts) == s.failPut {
		return errors.New("sink full")
	}
	if l == nil {
		return errors.New("nil list")
	}
	return nil
}

func (s *recordingSink) EndDay(day toplist.Day) error {
	s.days = append(s.days, day)
	return nil
}

func TestStreamingOrderAndDayBarrier(t *testing.T) {
	m, cfg := testWorld(t)
	for _, workers := range []int{1, 4} {
		g, err := providers.NewGenerator(m, testOpts(cfg.Days))
		if err != nil {
			t.Fatal(err)
		}
		sink := &recordingSink{}
		if err := New(g, Config{Workers: workers}).Run(context.Background(), cfg.Days, sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.days) != cfg.Days {
			t.Fatalf("workers=%d: EndDay fired %d times, want %d", workers, len(sink.days), cfg.Days)
		}
		want := make([]string, 0, 3*cfg.Days)
		for d := 0; d < cfg.Days; d++ {
			if sink.days[d] != toplist.Day(d) {
				t.Fatalf("workers=%d: day barrier order %v", workers, sink.days)
			}
			for _, p := range []string{providers.Alexa, providers.Umbrella, providers.Majestic} {
				want = append(want, fmt.Sprintf("%s/%d", p, d))
			}
		}
		if !reflect.DeepEqual(sink.puts, want) {
			t.Fatalf("workers=%d: put order differs:\n got %v\nwant %v", workers, sink.puts, want)
		}
	}
}

func TestSinkErrorStopsRun(t *testing.T) {
	m, cfg := testWorld(t)
	for _, workers := range []int{1, 4} {
		g, err := providers.NewGenerator(m, testOpts(cfg.Days))
		if err != nil {
			t.Fatal(err)
		}
		sink := &recordingSink{failPut: 5}
		err = New(g, Config{Workers: workers}).Run(context.Background(), cfg.Days, sink)
		if err == nil || err.Error() != "sink full" {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(sink.puts) != 5 {
			t.Fatalf("workers=%d: %d puts after failure", workers, len(sink.puts))
		}
	}
}

func TestRunValidation(t *testing.T) {
	m, cfg := testWorld(t)
	g, err := providers.NewGenerator(m, testOpts(cfg.Days))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g, 0, Config{}); err == nil {
		t.Fatal("days=0 should fail")
	}
	if err := New(g, Config{}).Run(context.Background(), 1, nil); err == nil {
		t.Fatal("nil sink should fail")
	}
}

// cancellingSink cancels its context during the Put of a target day.
type cancellingSink struct {
	cancel    context.CancelFunc
	cancelDay toplist.Day
	lastDay   toplist.Day
}

func (s *cancellingSink) Put(provider string, day toplist.Day, l *toplist.List) error {
	if day > s.lastDay {
		s.lastDay = day
	}
	if day == s.cancelDay {
		s.cancel()
	}
	return nil
}

// TestCancellationStopsWithinOneDay: after ctx is cancelled during day
// N, the sink sees no snapshot for any day beyond N+1 and the run
// returns ctx.Err() — on both the serial and the concurrent path.
func TestCancellationStopsWithinOneDay(t *testing.T) {
	m, cfg := testWorld(t)
	const cancelDay = 4
	for _, workers := range []int{1, 4} {
		g, err := providers.NewGenerator(m, testOpts(cfg.Days))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancellingSink{cancel: cancel, cancelDay: cancelDay}
		err = New(g, Config{Workers: workers}).Run(ctx, cfg.Days, sink)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if sink.lastDay > cancelDay+1 {
			t.Fatalf("workers=%d: deliveries reached day %d after cancel at day %d",
				workers, sink.lastDay, cancelDay)
		}
	}
}

// TestCancelledContextRefusesBurnIn: a context cancelled up front stops
// the run before any stepping.
func TestCancelledContextRefusesBurnIn(t *testing.T) {
	m, cfg := testWorld(t)
	g, err := providers.NewGenerator(m, testOpts(cfg.Days))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &recordingSink{}
	if err := New(g, Config{Workers: 1}).Run(ctx, cfg.Days, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(sink.puts) != 0 {
		t.Fatalf("%d puts after pre-cancelled run", len(sink.puts))
	}
}

// TestTeeFansOut: a teed run fills two archives identically and
// forwards the day barrier to every DaySink.
func TestTeeFansOut(t *testing.T) {
	m, cfg := testWorld(t)
	g, err := providers.NewGenerator(m, testOpts(cfg.Days))
	if err != nil {
		t.Fatal(err)
	}
	a := toplist.NewArchive(0, toplist.Day(cfg.Days-1))
	b := toplist.NewArchive(0, toplist.Day(cfg.Days-1))
	barrier := &recordingSink{}
	if err := New(g, Config{}).Run(context.Background(), cfg.Days, Tee(a, nil, b, barrier)); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, a, b, "tee")
	if len(barrier.days) != cfg.Days {
		t.Fatalf("EndDay forwarded %d times, want %d", len(barrier.days), cfg.Days)
	}
	if Tee(a) != toplist.SnapshotSink(a) {
		t.Fatal("single-sink Tee should unwrap")
	}
	before := RunCount()
	if err := New(g, Config{}).Run(context.Background(), 1, a); err != nil {
		t.Fatal(err)
	}
	if RunCount() != before+1 {
		t.Fatal("RunCount did not advance with the run")
	}
}

// failingDaySink fails EndDay for a target day; the pipeline must
// return that error and deliver nothing past the failing day.
type failingDaySink struct {
	recordingSink
	failDay toplist.Day
}

func (s *failingDaySink) EndDay(day toplist.Day) error {
	s.days = append(s.days, day)
	if day == s.failDay {
		return fmt.Errorf("day barrier %v failed", day)
	}
	return nil
}

// TestEndDayErrorStopsRun: an error from the day barrier (not just
// Put) stops the run on both paths — the emit stage owns the error and
// the pipeline shuts down without delivering any later day.
func TestEndDayErrorStopsRun(t *testing.T) {
	m, cfg := testWorld(t)
	const failDay = 3
	for _, workers := range []int{1, 4} {
		g, err := providers.NewGenerator(m, testOpts(cfg.Days))
		if err != nil {
			t.Fatal(err)
		}
		sink := &failingDaySink{failDay: failDay}
		err = New(g, Config{Workers: workers}).Run(context.Background(), cfg.Days, sink)
		want := fmt.Sprintf("day barrier %v failed", toplist.Day(failDay))
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if len(sink.days) != failDay+1 {
			t.Fatalf("workers=%d: EndDay fired %d times, want %d", workers, len(sink.days), failDay+1)
		}
		wantPuts := 3 * (failDay + 1)
		if len(sink.puts) != wantPuts {
			t.Fatalf("workers=%d: %d puts delivered after day-barrier failure, want %d",
				workers, len(sink.puts), wantPuts)
		}
	}
}

// lastDayCancelSink cancels the context during the final day's
// barrier — after every snapshot has been delivered.
type lastDayCancelSink struct {
	recordingSink
	cancel  context.CancelFunc
	lastDay toplist.Day
}

func (s *lastDayCancelSink) EndDay(day toplist.Day) error {
	s.days = append(s.days, day)
	if day == s.lastDay {
		s.cancel()
	}
	return nil
}

// TestCancelAfterLastDeliveryStillSucceeds: a cancellation racing the
// very last delivery must not retroactively fail a complete run — on
// the pipelined path exactly as on the serial reference path.
func TestCancelAfterLastDeliveryStillSucceeds(t *testing.T) {
	m, cfg := testWorld(t)
	for _, workers := range []int{1, 4} {
		g, err := providers.NewGenerator(m, testOpts(cfg.Days))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sink := &lastDayCancelSink{cancel: cancel, lastDay: toplist.Day(cfg.Days - 1)}
		err = New(g, Config{Workers: workers}).Run(ctx, cfg.Days, sink)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: complete run failed with %v", workers, err)
		}
		if len(sink.puts) != 3*cfg.Days {
			t.Fatalf("workers=%d: %d puts, want %d", workers, len(sink.puts), 3*cfg.Days)
		}
	}
}

// TestStatsPopulated: a completed run reports the wall time of both
// phases, and both run at the full worker count.
func TestStatsPopulated(t *testing.T) {
	m, cfg := testWorld(t)
	for _, workers := range []int{1, 2, 4} {
		g, err := providers.NewGenerator(m, testOpts(cfg.Days))
		if err != nil {
			t.Fatal(err)
		}
		e := New(g, Config{Workers: workers})
		arch := toplist.NewArchive(0, toplist.Day(cfg.Days-1))
		if err := e.Run(context.Background(), cfg.Days, arch); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.StepTime <= 0 || st.RankTime <= 0 {
			t.Fatalf("workers=%d: zero stage time: %+v", workers, st)
		}
		if st.StepWorkers != workers || st.RankWorkers != workers {
			t.Fatalf("workers=%d: stages ran at %+v", workers, st)
		}
	}
}

// probeStepper steps the generator in process and records the last
// day stepped, so a sink can see how far stepping has run ahead of it.
type probeStepper struct {
	g       *providers.Generator
	workers int
	last    atomic.Int64  // last day stepped
	day1    chan struct{} // closed once day 1 has stepped
}

func (p *probeStepper) StepDay(ctx context.Context, day int) error {
	p.g.StepDay(day, p.workers)
	p.last.Store(int64(day))
	if day == 1 {
		close(p.day1)
	}
	return nil
}

// TestSinkRunsBehindStepping: the sink is written behind the day loop,
// not inside it — day 1 steps while day 0's first Put is still in
// progress. A DiskStore sink is busy for most of each day, and this
// overlap is what keeps it from serialising the run.
func TestSinkRunsBehindStepping(t *testing.T) {
	m, cfg := testWorld(t)
	for _, workers := range []int{1, 4} {
		g, err := providers.NewGenerator(m, testOpts(cfg.Days))
		if err != nil {
			t.Fatal(err)
		}
		probe := &probeStepper{g: g, workers: workers, day1: make(chan struct{})}
		waited := false
		sink := SinkFunc(func(provider string, day toplist.Day, l *toplist.List) error {
			if day != 0 || waited {
				return nil
			}
			waited = true
			select {
			case <-probe.day1:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("day 0 was written with day %d the last stepped", probe.last.Load())
			}
		})
		if err := New(g, Config{Workers: workers, Remote: probe}).Run(context.Background(), cfg.Days, sink); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestKernelArchiveEquivalence is the tentpole's cross-option bitwise
// guarantee: archives generated through the precomputed signal kernel
// are identical to the retained reference implementation
// (traffic.Model with DisableKernel) across the ablation options, the
// Alexa regime change, all three injectors, and worker counts 1, 2,
// and GOMAXPROCS.
func TestKernelArchiveEquivalence(t *testing.T) {
	m, cfg := testWorld(t)
	mkInj := func(clients, queries float64) *traffic.Injector {
		inj := traffic.NewInjector()
		for d := -25; d < cfg.Days; d++ {
			inj.Add("kernel-equiv.example", d, clients, queries)
		}
		return inj
	}
	cases := []struct {
		name string
		opts func() providers.Options
	}{
		{"default", func() providers.Options { return testOpts(cfg.Days) }},
		{"umbrella-volume-ranking", func() providers.Options {
			opts := testOpts(cfg.Days)
			opts.UmbrellaVolumeRanking = true
			return opts
		}},
		{"alexa-regime-change", func() providers.Options {
			opts := testOpts(cfg.Days)
			opts.AlexaChangeDay = 3 // early flip: most days run post-regime
			return opts
		}},
		{"all-injectors", func() providers.Options {
			opts := testOpts(cfg.Days)
			opts.Injector = mkInj(9000, 90000)
			opts.AlexaInjector = mkInj(200000, 600000)
			opts.MajesticInjector = mkInj(150000, 0)
			return opts
		}},
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, c := range cases {
		m.DisableKernel = true
		ref := generate(t, m, c.opts(), cfg.Days, 1)
		m.DisableKernel = false
		for _, workers := range workerCounts {
			got := generate(t, m, c.opts(), cfg.Days, workers)
			assertIdentical(t, ref, got, fmt.Sprintf("%s/workers=%d", c.name, workers))
		}
	}
}
