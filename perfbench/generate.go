package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

// sizes are the archive windows the workloads generate.
type sizes struct {
	days, burnIn int // generate, generate-shard2, serve: 120 archive days after 60 burn-in days
	analyzeDays  int // analyze: the TestScale window
}

var benchSizes = sizes{days: 120, burnIn: 60, analyzeDays: 35}

// scaleFor is TestScale with the workload seed and window.
func scaleFor(seed uint64, days, burnIn int) core.Scale {
	s := core.TestScale()
	s.Population.Seed = seed
	s.Population.Days = days
	s.BurnInDays = burnIn
	return s
}

func genOptions(s core.Scale) providers.Options {
	o := providers.DefaultOptions(s.Population.Days, s.ListSize)
	o.BurnInDays = s.BurnInDays
	return o
}

func buildWorld(ctx context.Context, e *env, s core.Scale) (*population.World, error) {
	sp := e.tr.begin(spanFrom(ctx), "population.Build")
	defer sp.end()
	return population.Build(s.Population)
}

// newArchiveStore creates the DiskStore Simulate(WithArchiveDir) tees
// into: sized to the window, annotated with the scale name, expecting
// the engine's provider set.
func newArchiveStore(dir string, s core.Scale) (*toplist.DiskStore, error) {
	store, err := toplist.CreateDiskStore(dir, 0, toplist.Day(s.Population.Days-1))
	if err != nil {
		return nil, err
	}
	if err := store.SetScale(s.Name); err != nil {
		return nil, err
	}
	if err := store.Expect(genOptions(s).EnabledProviders()...); err != nil {
		return nil, err
	}
	return store, nil
}

// simulate is one "simulate and persist" run over world w: a fresh
// generator, the pipelined engine (stepping through remote when it is
// set), and the in-memory archive teed with a fresh DiskStore at dir.
func simulate(ctx context.Context, e *env, s core.Scale, w *population.World, dir string, remote *shardFleet) (*toplist.Archive, *toplist.DiskStore, error) {
	parent := spanFrom(ctx)
	opts := genOptions(s)
	m := traffic.NewModel(w)
	sp := e.tr.begin(parent, "providers.NewGenerator")
	g, err := providers.NewGenerator(m, opts)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	store, err := newArchiveStore(dir, s)
	if err != nil {
		return nil, nil, err
	}
	cfg := engine.Config{Workers: 0}
	var coord *shard.Coordinator
	if remote != nil {
		coord, err = shard.NewCoordinator(g, shard.JobFor(s.Population, opts, m), remote.urls,
			shard.WithHTTPClient(e.net.client(2*time.Minute)))
		if err != nil {
			return nil, nil, err
		}
		defer func() {
			coord.Close()
			e.reassigned.Add(coord.Reassigned())
		}()
		cfg.Remote = &tracedStepper{next: coord, tr: e.tr, steps: &e.steps}
	}
	eng := engine.New(g, cfg)
	days := s.Population.Days
	arch := toplist.NewArchive(0, toplist.Day(days-1))
	arch.Expect(eng.Providers()...)
	run := e.tr.begin(parent, "engine.Run")
	sink := &timedSink{next: store, tr: e.tr, parent: run.ref(), puts: &e.puts}
	err = eng.Run(withSpan(ctx, run.ref()), days, engine.Tee(arch, sink))
	run.end()
	if err != nil {
		return nil, nil, err
	}
	e.noteEngine(eng.Stats(), days)
	return arch, store, nil
}

// slot is one (provider, day) snapshot.
type slot struct {
	provider string
	day      toplist.Day
}

func slotsOf(src toplist.Source) []slot {
	var out []slot
	for _, p := range src.Providers() {
		for d := src.First(); d <= src.Last(); d++ {
			out = append(out, slot{p, d})
		}
	}
	return out
}

// listDigest hashes a list's names in rank order, and its IDs when
// withIDs is set (lists decoded from CSV carry none).
func listDigest(l *toplist.List, withIDs bool) [32]byte {
	if l == nil {
		return [32]byte{}
	}
	h := sha256.New()
	for _, n := range l.Names() {
		io.WriteString(h, n)
		h.Write([]byte{'\n'})
	}
	if withIDs {
		binary.Write(h, binary.LittleEndian, l.IDs())
	}
	return [32]byte(h.Sum(nil))
}

// archiveDigest hashes the names and IDs of every slot of src.
func archiveDigest(src toplist.Source) [32]byte {
	h := sha256.New()
	for _, sl := range slotsOf(src) {
		d := listDigest(src.Get(sl.provider, sl.day), true)
		fmt.Fprintf(h, "%s/%v/", sl.provider, sl.day)
		h.Write(d[:])
	}
	return [32]byte(h.Sum(nil))
}

// encodedHash is the content hash of the gzip CSV document the
// DiskStore writes for l — the bytes every backend stores and serves.
func encodedHash(l *toplist.List) (string, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := toplist.WriteCSV(zw, l); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return toplist.ContentHash(buf.Bytes()), nil
}

// generator is the generate and generate-shard2 workload: the world is
// built once; each op simulates and persists the whole window.
type generator struct {
	e      *env
	scale  core.Scale
	world  *population.World
	fleet  *shardFleet // nil: local stepping
	digest [32]byte    // names and IDs of every slot, from the serial reference run
	hashes map[slot]string
}

func setupGenerate(shards int) func(ctx context.Context, e *env) (instance, error) {
	return func(ctx context.Context, e *env) (instance, error) {
		s := scaleFor(e.cfg.seed, e.cfg.sizes.days, e.cfg.sizes.burnIn)
		w, err := buildWorld(ctx, e, s)
		if err != nil {
			return nil, err
		}
		g := &generator{e: e, scale: s, world: w}
		if shards > 0 {
			if g.fleet, err = startShardFleet(e, shards); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
}

func (g *generator) prepare(ctx context.Context) error {
	if err := g.reference(ctx); err != nil {
		return err
	}
	return g.op(ctx, &opRun{})
}

// reference runs the serial reference engine (Workers: 1) once, in
// memory, and keeps the digest and the expected stored hash of every
// slot: every op, pipelined or distributed, must reproduce them.
func (g *generator) reference(ctx context.Context) error {
	sp := g.e.tr.begin(spanFrom(ctx), "engine.Run.serial_reference")
	defer sp.end()
	gen, err := providers.NewGenerator(traffic.NewModel(g.world), genOptions(g.scale))
	if err != nil {
		return err
	}
	arch, err := engine.Run(ctx, gen, g.scale.Population.Days, engine.Config{Workers: 1})
	if err != nil {
		return err
	}
	g.digest = archiveDigest(arch)
	g.hashes = make(map[slot]string)
	for _, sl := range slotsOf(arch) {
		if g.hashes[sl], err = encodedHash(arch.Get(sl.provider, sl.day)); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) op(ctx context.Context, run *opRun) error {
	dir := g.e.newDir("generate")
	defer os.RemoveAll(dir)
	start := time.Now()
	arch, store, err := simulate(ctx, g.e, g.scale, g.world, dir, g.fleet)
	run.timed = time.Since(start)
	if err != nil {
		return err
	}
	run.items = g.scale.BurnInDays + g.scale.Population.Days
	if err := g.e.noteStore(dir); err != nil {
		return err
	}
	if archiveDigest(arch) != g.digest {
		return fmt.Errorf("archive differs from the serial reference")
	}
	if !store.Complete() {
		return fmt.Errorf("disk store incomplete: %d snapshots missing", len(store.Missing()))
	}
	for sl, want := range g.hashes {
		if got := store.RawHash(sl.provider, sl.day); got != want {
			return fmt.Errorf("%s %v: stored hash %q, reference %q", sl.provider, sl.day, got, want)
		}
	}
	return nil
}

func (g *generator) close() {
	if g.fleet != nil {
		g.fleet.close()
	}
}

// shardFleet is n in-process shard workers, each mounted the way
// cmd/shardd mounts one: the worker mux plus /metrics behind the
// production middleware chain, on its own loopback listener.
type shardFleet struct {
	urls []string
	ls   []*listener
}

func startShardFleet(e *env, n int) (*shardFleet, error) {
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		metrics := serve.NewMetrics()
		w := shard.NewWorker(shard.WithWorkerLogger(log.New(io.Discard, "", 0)), shard.WithWorkerMetrics(metrics))
		mux := http.NewServeMux()
		w.Mount(mux)
		l, err := serveChained(e, mux, metrics, "shard.Worker", nil, nil)
		if err != nil {
			f.close()
			return nil, err
		}
		f.ls = append(f.ls, l)
		f.urls = append(f.urls, l.url)
	}
	return f, nil
}

func (f *shardFleet) close() {
	for _, l := range f.ls {
		l.close()
	}
}
