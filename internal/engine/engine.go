// Package engine owns the simulation loop: burn the provider windows
// in, step and rank each simulated day, and stream the day's snapshots
// into a SnapshotSink. One day loop serves every worker count, and it
// is concurrent at three levels:
//
//  1. the hot per-domain loops (signal synthesis, per-base score
//     aggregation, EMA updates) are sharded across workers inside
//     providers.Generator.StepDay;
//  2. the three providers step and rank concurrently per day (their
//     window states are fully independent);
//  3. the sink is written one day behind, on its own goroutine, so day
//     d+1 steps and ranks while day d is written — a DiskStore sink
//     spends most of each day encoding and writing.
//
// Stepping and ranking run one after the other at the full worker
// width. Workers = 1 takes the closure-free serial paths inside
// StepDay and Snapshots, the reference computation; every concurrent
// level is constructed to be bitwise identical to it (fixed shard
// boundaries, per-accumulator addition order preserved, fixed provider
// emit order), which the equivalence tests assert.
//
// Runs are context-aware: cancellation is observed at day boundaries,
// so a cancelled run stops within one simulated day and the sink never
// sees a partial day beyond the one in flight. Errors propagate
// promptly: a sink failure cancels the loop's context, so stepping
// stops at the next day boundary instead of stepping days that will
// never be emitted.
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
	// Workers is the parallelism level: 1 runs the serial reference
	// computation, anything < 1 means GOMAXPROCS.
	Workers int
	// Remote, when set, replaces the in-process Generator.StepDay with a
	// distributed stepper (shard.Coordinator): each day's per-domain
	// stepping runs on shard workers and is merged back before the day
	// is ranked. Ranking and emit are unchanged — a remote day merges
	// into exactly the state a local step would have produced — so
	// Remote composes with any Workers setting.
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

// Stats reports the phase timings of an engine run. StepTime and
// RankTime are cumulative wall time the step and rank phases spent over
// the archive days (burn-in excluded). Both phases run at the run's
// full worker count, which StepWorkers and RankWorkers report.
type Stats struct {
	StepTime, RankTime       time.Duration
	StepWorkers, RankWorkers int
}

// Engine drives one generator through the simulated calendar.
type Engine struct {
	g     *providers.Generator
	cfg   Config
	stats Stats // last completed Run's phase report (see Stats)
}

// Stats returns the phase timings observed by the most recent Run. It
// must not be called concurrently with Run.
func (e *Engine) Stats() Stats { return e.stats }

// New builds an engine around a generator.
func New(g *providers.Generator, cfg Config) *Engine {
	return &Engine{g: g, cfg: cfg}
}

// stepDay advances the generator to day d — in process, or through the
// configured RemoteStepper. Either way the generator ends the call in
// the identical state, which is what lets the distributed mode ride the
// day loop unchanged.
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
	workers := parallel.Workers(e.cfg.Workers)
	g := e.g

	// The day loop runs on the caller's goroutine; the emit goroutine
	// writes the sink behind it. batches holds one finished day, so the
	// sink is written while later days step and rank, and the loop
	// never runs more than two days ahead of it. The first emit error
	// (or the parent ctx's cancellation surfacing through emit) cancels
	// lctx, which the loop observes at its next day boundary. emitted
	// counts delivered days; it is read after Wait (which orders it) to
	// tell a complete run from a cancelled one.
	type dayBatch struct {
		day   toplist.Day
		snaps []toplist.Snapshot
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	batches := make(chan dayBatch, 1)
	grp := parallel.NewGroup(cancel)
	emitted := 0
	grp.Go(func() error {
		for b := range batches {
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, s := range b.snaps {
				if err := sink.Put(s.Provider, s.Day, s.List); err != nil {
					return err
				}
			}
			if ds, ok := sink.(DaySink); ok {
				if err := ds.EndDay(b.day); err != nil {
					return err
				}
			}
			emitted++
		}
		return nil
	})

	// Burn-in warms the windows; days from 0 on are also ranked and
	// handed to emit.
	st := Stats{StepWorkers: workers, RankWorkers: workers}
	grp.Do(func() error {
		defer close(batches)
		for d := -g.Opts.BurnInDays; d < days; d++ {
			if lctx.Err() != nil {
				return nil
			}
			t0 := time.Now()
			if err := e.stepDay(lctx, d, workers); err != nil {
				if lctx.Err() != nil {
					// Emit already failed (or the parent was
					// cancelled); let that own the run.
					return nil
				}
				return err
			}
			if d < 0 {
				continue
			}
			t1 := time.Now()
			b := dayBatch{toplist.Day(d), g.Snapshots(toplist.Day(d), workers)}
			st.StepTime += t1.Sub(t0)
			st.RankTime += time.Since(t1)
			select {
			case batches <- b:
			case <-lctx.Done():
				return nil
			}
		}
		return nil
	})

	if err := grp.Wait(); err != nil {
		return err
	}
	e.stats = st
	if emitted == days {
		// Every day was delivered: the run is complete, and a
		// cancellation racing the very last delivery does not
		// retroactively fail it.
		return nil
	}
	// Nothing errored but days are missing: the parent ctx was
	// cancelled mid-run (internal cancellation only ever follows an
	// error, which Wait would have returned).
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
