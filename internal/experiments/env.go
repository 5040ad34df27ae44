package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/toplist"
)

// Env lazily materialises the study shared by the experiment drivers.
type Env struct {
	Scale core.Scale

	// source, when set, short-circuits simulation: the study is rebuilt
	// around this already-generated archive (core.RunFrom) and the
	// engine is never invoked.
	source toplist.Source
	// tee, when set, additionally streams every generated snapshot into
	// it (ignored when source is set — nothing is generated).
	tee toplist.SnapshotSink

	mu      sync.Mutex
	runCtx  context.Context // ctx governing the (single) materialisation
	study   *core.Study
	err     error
	done    bool
	elapsed map[string]time.Duration // observed per-experiment wall time
}

// NewEnv builds an environment at the given scale; the study runs on
// first use.
func NewEnv(scale core.Scale) *Env { return &Env{Scale: scale} }

// NewEnvFrom builds an environment whose study serves from an
// already-generated archive source instead of simulating: scale must
// match the scale that produced the source (it rebuilds the world and
// analysis layers deterministically), and the engine is never invoked.
// The Env only reads src: nothing it observes is written back.
func NewEnvFrom(scale core.Scale, src toplist.Source) *Env {
	return &Env{Scale: scale, source: src}
}

// NewEnvError builds an environment that reports err from every
// materialisation — how a constructor without an error return (the
// public NewLab) defers a configuration failure to first use without
// losing it.
func NewEnvError(scale core.Scale, err error) *Env {
	return &Env{Scale: scale, err: err, done: true}
}

// SetTee streams every snapshot the (future) simulation generates into
// sink as well — e.g. a toplist.DiskStore persisting the run. It must
// be called before the study materialises; it has no effect on an Env
// built from a source (nothing is generated).
func (e *Env) SetTee(sink toplist.SnapshotSink) {
	if e.source != nil {
		return
	}
	e.tee = sink
}

// Study returns the materialised study, running the simulation once
// (or, for a source-backed Env, rebuilding the study around the source
// once). The context bound by the first Run/RunAll caller governs the
// materialisation; direct Study callers get context.Background. A
// materialisation aborted by context cancellation is not cached: the
// cancelled caller gets ctx's error, and a later call with a live
// context retries — only deterministic failures poison the Env.
func (e *Env) Study() (*core.Study, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		ctx := e.runCtx
		if ctx == nil {
			ctx = context.Background()
		}
		if e.source != nil {
			e.study, e.err = core.RunFrom(e.Scale, e.source)
		} else {
			e.study, e.err = core.RunContext(ctx, e.Scale, e.tee)
		}
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
			err := e.err
			e.study, e.err, e.runCtx = nil, nil, nil
			return nil, err
		}
		e.done = true
	}
	return e.study, e.err
}

// bind records the context that will govern the study materialisation;
// only the first bind before materialisation wins.
func (e *Env) bind(ctx context.Context) {
	e.mu.Lock()
	if e.runCtx == nil && !e.done {
		e.runCtx = ctx
	}
	e.mu.Unlock()
}

// noteElapsed records an observed experiment wall time; subsequent
// RunAll calls on the same Env use it for longest-job-first ordering.
func (e *Env) noteElapsed(id string, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.elapsed == nil {
		e.elapsed = make(map[string]time.Duration)
	}
	e.elapsed[id] = d
}

// observedElapsed returns the recorded wall time for id (0 if never
// run on this Env).
func (e *Env) observedElapsed(id string) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.elapsed[id]
}

// Driver regenerates one table or figure.
type Driver func(*Env) (*Result, error)

type registration struct {
	id     string
	title  string
	driver Driver
}

var registry = map[string]registration{}

func register(id, title string, driver Driver) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = registration{id: id, title: title, driver: driver}
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the registered title for id ("" when unknown).
func Title(id string) string { return registry[id].title }

// Run executes one experiment against the environment. The context
// governs the shared study's (single) materialisation and is checked
// before the driver starts; drivers themselves are CPU-bound and run
// to completion once started. The result records its wall time in
// Elapsed.
func Run(ctx context.Context, e *Env, id string) (*Result, error) {
	reg, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.bind(ctx)
	start := time.Now()
	res, err := reg.driver(e)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = reg.id
	if res.Title == "" {
		res.Title = reg.title
	}
	res.Elapsed = time.Since(start)
	e.noteElapsed(id, res.Elapsed)
	return res, nil
}

// RunAll executes every experiment on a bounded worker pool sized to
// GOMAXPROCS and returns the results in ID order. The drivers share
// the environment's immutable study (each builds its own generators
// and injectors for what-if runs), so they are safe to run
// concurrently; the first failure in ID order is returned.
func RunAll(ctx context.Context, e *Env) ([]*Result, error) {
	return RunAllWorkers(ctx, e, 0)
}

// RunAllWorkers is RunAll with an explicit pool size (< 1 means
// GOMAXPROCS, 1 runs strictly serially in ID order). The pool claims
// experiments longest-job-first (see schedule), so the grid-heavy
// drivers that dominate the critical path start before the cheap
// table lookups; results still come back in ID order. Cancelling ctx
// stops workers from claiming further experiments.
func RunAllWorkers(ctx context.Context, e *Env, workers int) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ids := IDs()
	index := make(map[string]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	workers = parallel.Workers(workers)
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for i, id := range ids {
			if results[i], errs[i] = Run(ctx, e, id); errs[i] != nil {
				return nil, errs[i]
			}
		}
		return results, nil
	}
	// The study materialises inside the first Run call; forcing it
	// here keeps the per-experiment elapsed times (which drive the
	// scheduling of later RunAll rounds) free of the shared setup cost.
	e.bind(ctx)
	if _, err := e.Study(); err != nil {
		return nil, err
	}
	queue := schedule(e, ids)
	var (
		mu     sync.Mutex
		next   int
		failed bool
		wg     sync.WaitGroup
	)
	claim := func() (string, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next >= len(queue) {
			return "", 0, false
		}
		id := queue[next]
		next++
		return id, index[id], true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				id, i, ok := claim()
				if !ok {
					return
				}
				results[i], errs[i] = Run(ctx, e, id)
				if errs[i] != nil {
					// Stop claiming new experiments; in-flight ones
					// finish, matching the serial path's fail-fast
					// behavior closely enough without cancellation
					// plumbing through every driver.
					mu.Lock()
					failed = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
