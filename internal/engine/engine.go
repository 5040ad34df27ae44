// Package engine owns the simulation loop: burn the provider windows
// in, step each simulated day, and stream the day's snapshots into a
// SnapshotSink. It is the concurrent spine of the system, concurrent
// at three levels:
//
//  1. the hot per-domain loops (signal synthesis, per-base score
//     aggregation, EMA updates) are sharded across workers inside
//     providers.Generator.StepDay;
//  2. the three providers step and rank concurrently per day (their
//     window states are fully independent);
//  3. the days themselves are pipelined through three stages — step,
//     rank, emit — so while day d+1's signals and EMAs step, day d's
//     top-K selection runs on a frozen rank view
//     (providers.Generator.Freeze) and day d-1 streams to the sink.
//
// The pipeline depth is bounded at one day per stage by the providers'
// double-buffered EMA state: stepping day d+2 reclaims the buffer day
// d's rank view reads, so the step stage hands views over an
// unbuffered channel — a completed handoff proves the rank stage has
// retired the view from two days ago.
//
// Workers = 1 selects the legacy serial path, kept as the reference
// implementation; every concurrent level is constructed to be bitwise
// identical to it (fixed shard boundaries, per-accumulator addition
// order preserved, fixed provider emit order), which the equivalence
// tests assert.
//
// Runs are context-aware: cancellation is observed at day boundaries,
// so a cancelled run stops within one simulated day and the sink never
// sees a partial day beyond the one in flight. Errors propagate
// promptly: a sink failure cancels the internal pipeline context, so
// the step stage stops at its next stage boundary instead of stepping
// days that will never be emitted.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/providers"
	"repro/internal/toplist"
)

// Config tunes the engine.
type Config struct {
	// Workers is the parallelism level: 1 runs the legacy serial
	// reference path, anything < 1 means GOMAXPROCS.
	Workers int
	// Remote, when set, replaces the in-process Generator.StepDay with a
	// distributed stepper (shard.Coordinator): each day's per-domain
	// stepping runs on shard workers and is merged back before the rank
	// stage freezes the day. The rank/emit pipeline is unchanged — a
	// remote day merges into exactly the state a local step would have
	// produced — so Remote composes with any Workers setting.
	Remote RemoteStepper
}

// RemoteStepper steps the engine's generator to a day through external
// workers, leaving the generator in the same state Generator.StepDay
// would. Implemented by shard.Coordinator; defined here so the engine
// does not import the shard transport.
type RemoteStepper interface {
	StepDay(ctx context.Context, day int) error
}

// SnapshotSink is re-exported from toplist for callers wiring sinks to
// the engine; toplist.Archive is the materialising implementation and
// toplist.DiskStore the durable one.
type SnapshotSink = toplist.SnapshotSink

// DaySink is an optional SnapshotSink extension: after all of a day's
// snapshots have been Put, the engine calls EndDay once. Sinks use it
// as a day barrier — e.g. to publish the finished day to readers, or
// to pace a live collection.
type DaySink interface {
	SnapshotSink
	EndDay(day toplist.Day) error
}

// SinkFunc adapts a function to a SnapshotSink.
type SinkFunc func(provider string, day toplist.Day, l *toplist.List) error

// Put calls f.
func (f SinkFunc) Put(provider string, day toplist.Day, l *toplist.List) error {
	return f(provider, day, l)
}

// teeSink fans every snapshot (and day barrier) out to several sinks
// in order — how a generation run is archived in memory and persisted
// to disk at the same time.
type teeSink []toplist.SnapshotSink

func (t teeSink) Put(provider string, day toplist.Day, l *toplist.List) error {
	for _, s := range t {
		if err := s.Put(provider, day, l); err != nil {
			return err
		}
	}
	return nil
}

func (t teeSink) EndDay(day toplist.Day) error {
	for _, s := range t {
		if ds, ok := s.(DaySink); ok {
			if err := ds.EndDay(day); err != nil {
				return err
			}
		}
	}
	return nil
}

// Tee returns a sink that forwards every Put to each sink in order;
// EndDay is forwarded to the sinks that implement DaySink. Nil sinks
// are dropped, and a single remaining sink is returned unwrapped.
func Tee(sinks ...toplist.SnapshotSink) SnapshotSink {
	t := make(teeSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	if len(t) == 1 {
		return t[0]
	}
	return t
}

// runCount counts engine runs in-process (see RunCount).
var runCount atomic.Int64

// RunCount reports how many engine runs have started in this process.
// Resume-from-disk paths assert on it staying flat: a study served
// from a reopened archive must never invoke the engine.
func RunCount() int64 { return runCount.Load() }

// Stats reports the stage timings and worker split of an engine run —
// the observability behind the adaptive rank/step split. StepTime and
// RankTime are cumulative wall time the step and rank phases spent over
// the archive days (burn-in excluded); on serial runs both are measured
// the same way and the split fields stay 1/1. StepWorkers/RankWorkers
// are the split in effect when the run finished.
type Stats struct {
	StepTime, RankTime       time.Duration
	StepWorkers, RankWorkers int
}

// Engine drives one generator through the simulated calendar.
type Engine struct {
	g     *providers.Generator
	cfg   Config
	stats Stats // last completed Run's stage report (see Stats)
}

// Stats returns the stage timings and worker split observed by the most
// recent Run. It must not be called concurrently with Run.
func (e *Engine) Stats() Stats { return e.stats }

// New builds an engine around a generator.
func New(g *providers.Generator, cfg Config) *Engine {
	return &Engine{g: g, cfg: cfg}
}

// stepDay advances the generator to day d — in process, or through the
// configured RemoteStepper. Either way the generator ends the call in
// the identical state, which is what lets the distributed mode ride the
// serial and pipelined day loops unchanged.
func (e *Engine) stepDay(ctx context.Context, d, workers int) error {
	if e.cfg.Remote != nil {
		return e.cfg.Remote.StepDay(ctx, d)
	}
	e.g.StepDay(d, workers)
	return nil
}

// Providers returns the provider names the engine emits, in the fixed
// output order — what an archive sink should Expect.
func (e *Engine) Providers() []string { return e.g.EnabledProviders() }

// Run generates days [0, days), burn-in included, streaming every
// snapshot into sink in deterministic order: days ascending, and
// within a day the fixed provider order (Alexa, Umbrella, Majestic).
// The first sink error stops the run and is returned.
//
// Cancelling ctx stops the run at the next day boundary — the sink
// receives no snapshot for any day after the one being emitted when
// cancellation lands — and returns ctx.Err().
func (e *Engine) Run(ctx context.Context, days int, sink SnapshotSink) error {
	if days < 1 {
		return fmt.Errorf("engine: days must be >= 1, got %d", days)
	}
	if sink == nil {
		return fmt.Errorf("engine: nil sink")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runCount.Add(1)
	workers := e.cfg.Workers
	if workers < 1 {
		workers = parallel.Workers(workers)
	}
	g := e.g
	// Burn-in warms the windows with the step stage's worker share (the
	// full budget minus the rank stage's initial slice): burn-in days
	// are dominated by loop overhead, not math — most domains are
	// unborn before day 0 — so fanning wider than the day loop's step
	// stage buys nothing and costs a spawn barrier per day.
	burnW := workers
	if workers > 1 {
		burnW, _ = parallel.Split(workers, len(g.EnabledProviders()), 0, 0)
	}
	for d := -g.Opts.BurnInDays; d < 0; d++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.stepDay(ctx, d, burnW); err != nil {
			return err
		}
	}
	emit := func(day toplist.Day, batch []toplist.Snapshot) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, s := range batch {
			if err := sink.Put(s.Provider, s.Day, s.List); err != nil {
				return err
			}
		}
		if ds, ok := sink.(DaySink); ok {
			return ds.EndDay(day)
		}
		return nil
	}
	if workers <= 1 {
		st := Stats{StepWorkers: 1, RankWorkers: 1}
		for d := 0; d < days; d++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			t0 := time.Now()
			if err := e.stepDay(ctx, d, 1); err != nil {
				return err
			}
			t1 := time.Now()
			snaps := g.Snapshots(toplist.Day(d), 1)
			st.StepTime += t1.Sub(t0)
			st.RankTime += time.Since(t1)
			if err := emit(toplist.Day(d), snaps); err != nil {
				return err
			}
		}
		e.stats = st
		return nil
	}

	// Concurrent path: a bounded three-stage day pipeline.
	//
	//	step(d+1) ─views→ rank(d) ─batches→ emit(d-1)
	//
	// The step stage (this goroutine) advances the providers' signals
	// and EMAs; the rank stage runs top-K selection over the frozen
	// view of the previous day; the emit stage streams the day before
	// that into the sink in deterministic order.
	//
	// views is deliberately unbuffered: a completed send proves the
	// rank stage has retired the view from two days ago, which is
	// exactly when the providers' double-buffered EMA state lets the
	// next StepDay reclaim that view's buffer. batches holds one day so
	// ranking day d overlaps emitting day d-1.
	//
	// Error and cancel propagation is prompt: the first emit error (or
	// the parent ctx's cancellation surfacing through emit) cancels
	// pctx, and every stage selects on pctx at its next boundary — the
	// step stage finishes at most the StepDay in flight, instead of
	// running whole days for snapshots that will never be delivered.
	type dayBatch struct {
		day   toplist.Day
		snaps []toplist.Snapshot
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	views := make(chan *providers.RankView)
	batches := make(chan dayBatch, 1)
	grp := parallel.NewGroup(cancel)

	// Adaptive rank/step worker split. The step and rank stages run
	// concurrently, so handing each the full worker count — what the
	// pipeline did before — oversubscribes small machines: every
	// fan-out barrier inside StepDay then waits on a core the rank
	// stage holds, which is exactly how the 2-core pipelined run
	// benchmarked slower than serial. Instead the budget is divided
	// proportionally to the measured per-day stage costs (EWMA over
	// recent days, cost = wall × workers): the step stage recomputes
	// the split before each day and publishes the rank stage's share
	// through rankShare. Worker counts never affect archive bytes —
	// only shard boundaries move — so adapting day by day is free of
	// determinism hazards.
	nprov := len(g.EnabledProviders())
	var stepCost, rankCost atomic.Int64 // EWMA per-day stage cost, ns
	var stepWall, rankWall atomic.Int64 // cumulative stage wall, ns
	var rankShare atomic.Int32
	stepW, rankW := parallel.Split(workers, nprov, 0, 0)
	rankShare.Store(int32(rankW))
	ewma := func(a *atomic.Int64, sample int64) {
		// Single-writer EWMA (weight 1/4): the step stage owns
		// stepCost, the rank stage owns rankCost.
		if old := a.Load(); old != 0 {
			sample = old + (sample-old)/4
		}
		a.Store(sample)
	}

	// Rank stage: top-K selection over frozen views. Shutdown paths
	// return nil — the emit stage owns the run's error, and the final
	// ctx.Err() check below owns parent cancellation.
	grp.Go(func() error {
		defer close(batches)
		for v := range views {
			rw := int(rankShare.Load())
			t0 := time.Now()
			b := dayBatch{v.Day(), v.Snapshots(rw)}
			dur := time.Since(t0)
			rankWall.Add(int64(dur))
			ewma(&rankCost, int64(dur)*int64(min(rw, nprov)))
			select {
			case batches <- b:
			case <-pctx.Done():
				return nil
			}
		}
		return nil
	})

	// Emit stage: the only stage that touches the sink, preserving the
	// serial path's delivery order exactly. emitted counts delivered
	// days; it is read after Wait (which orders it) to tell a complete
	// run from a cancelled one.
	emitted := 0
	grp.Go(func() error {
		for b := range batches {
			if err := emit(b.day, b.snaps); err != nil {
				return err
			}
			emitted++
		}
		return nil
	})

	// Step stage, inline on the caller's goroutine.
	grp.Do(func() error {
		defer close(views)
		for d := 0; d < days; d++ {
			if pctx.Err() != nil {
				return nil
			}
			stepW, rankW = parallel.Split(workers, nprov,
				float64(stepCost.Load()), float64(rankCost.Load()))
			rankShare.Store(int32(rankW))
			t0 := time.Now()
			if err := e.stepDay(pctx, d, stepW); err != nil {
				if pctx.Err() != nil {
					// Another stage already failed (or the parent was
					// cancelled); let that error own the run.
					return nil
				}
				return err
			}
			dur := time.Since(t0)
			stepWall.Add(int64(dur))
			ewma(&stepCost, int64(dur)*int64(stepW))
			select {
			case views <- g.Freeze(toplist.Day(d)):
			case <-pctx.Done():
				return nil
			}
		}
		return nil
	})

	if err := grp.Wait(); err != nil {
		return err
	}
	e.stats = Stats{
		StepTime:    time.Duration(stepWall.Load()),
		RankTime:    time.Duration(rankWall.Load()),
		StepWorkers: stepW,
		RankWorkers: rankW,
	}
	if emitted == days {
		// Every day was delivered: the run is complete, and — like the
		// serial reference path — a cancellation racing the very last
		// delivery does not retroactively fail it.
		return nil
	}
	// No stage errored but days are missing: the parent ctx was
	// cancelled mid-run (internal cancellation only ever follows a
	// stage error, which Wait would have returned).
	return ctx.Err()
}

// Run builds the archive for days [0, days) with a fresh generator
// drive — the drop-in replacement for providers.Generator.Run with a
// concurrency knob. The archive's expected provider set is declared,
// so Complete/Missing report absent providers too.
func Run(ctx context.Context, g *providers.Generator, days int, cfg Config) (*toplist.Archive, error) {
	if days < 1 {
		return nil, fmt.Errorf("engine: days must be >= 1, got %d", days)
	}
	arch := toplist.NewArchive(0, toplist.Day(days-1))
	arch.Expect(g.EnabledProviders()...)
	if err := New(g, cfg).Run(ctx, days, arch); err != nil {
		return nil, err
	}
	return arch, nil
}
