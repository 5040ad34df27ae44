// Package toplists is the public API of the reproduction of "A Long
// Way to the Top: Significance, Structure, and Stability of Internet
// Top Lists" (IMC 2018).
//
// The library simulates the ecosystem the paper measures — a synthetic
// Internet population, daily Alexa/Umbrella/Majestic-style list
// generation, DNS/TLS/HTTP2 measurement infrastructure, and a RIPE
// Atlas-style probe fleet — and regenerates every table and figure of
// the paper's evaluation from it.
//
// The entry points are context-aware and option-driven, and every
// consumer reads snapshots through the Source interface rather than a
// concrete in-memory store, so a study can serve from a live
// simulation or from an archive reopened from disk:
//
//	ctx := context.Background()
//
//	// Simulate and keep the archive in memory.
//	study, err := toplists.Simulate(ctx, toplists.WithScale(toplists.TestScale()))
//	if err != nil { ... }
//	list := study.Archive.Get(toplists.Alexa, 0) // day-0 Alexa snapshot
//
//	// Simulate once, persisting every snapshot to a durable archive.
//	study, err = toplists.Simulate(ctx,
//		toplists.WithScale(toplists.TestScale()),
//		toplists.WithArchiveDir("joint"))
//
//	// Any later process: reopen the archive and rerun an experiment
//	// without resimulating.
//	src, err := toplists.OpenArchive("joint")
//	if err != nil { ... }
//	lab := toplists.NewLab(
//		toplists.WithScale(toplists.TestScale()),
//		toplists.WithSource(src))
//	res, err := lab.Run(ctx, "table5")
//	fmt.Print(res.Render())
//
//	// Or reopen it across the network from an archive server
//	// (`toplistd -serve-archive` or ArchiveHandler) — same Source,
//	// byte-identical results.
//	rsrc, err := toplists.OpenRemote(ctx, "http://archive-host:8080")
package toplists

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/archived"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pack"
	"repro/internal/providers"
	"repro/internal/toplist"
)

// Scale bundles the simulation sizing knobs (population, list size,
// head subset, burn-in).
type Scale = core.Scale

// Study is a fully materialised simulation: world, model, archive, and
// the analysis/measurement layers. Study.Archive is a Source — an
// in-memory archive for simulated studies, or whatever WithSource
// provided for studies loaded from disk.
type Study = core.Study

// Experiment is a regenerated table or figure.
type Experiment = experiments.Result

// Provider names used throughout archives and reports.
const (
	Alexa    = providers.Alexa
	Umbrella = providers.Umbrella
	Majestic = providers.Majestic
)

// TestScale returns the fast scale used by tests and benchmarks.
func TestScale() Scale { return core.TestScale() }

// DefaultScale returns the EXPERIMENTS.md scale.
func DefaultScale() Scale { return core.DefaultScale() }

// SnapshotSink receives snapshots as the simulation engine produces
// them; see Stream.
type SnapshotSink = toplist.SnapshotSink

// Source is the read side of a snapshot archive: Get, First, Last,
// Days, Providers. Every analysis and server consumes this interface,
// so in-memory archives and durable on-disk stores are
// interchangeable.
type Source = toplist.Source

// DiskStore is a durable snapshot archive on disk: one gzip CSV per
// (provider, day) plus a JSON manifest recording the producing scale,
// the day range, and the expected provider set. It implements both
// SnapshotSink and Source.
type DiskStore = toplist.DiskStore

// SinkFunc adapts a function to a SnapshotSink.
type SinkFunc = engine.SinkFunc

// OpenArchive reopens the durable archive previously written at dir
// (by WithArchiveDir, CreateArchive, or cmd/collectd), ready to serve
// snapshots without resimulating.
func OpenArchive(dir string) (*DiskStore, error) { return toplist.OpenArchive(dir) }

// CreateArchive initialises an empty durable archive at dir spanning
// days [first, last] — the sink to hand to Stream when persisting a
// run shaped by something other than a Scale.
func CreateArchive(dir string, first, last toplist.Day) (*DiskStore, error) {
	return toplist.CreateDiskStore(dir, first, last)
}

// Remote is a Source served over HTTP by an archive server (see
// ArchiveHandler and `toplistd -serve-archive`): snapshots are fetched
// lazily with single-flight de-duplication, cached in a bounded LRU,
// and decode failures of corrupt payloads are memoized — the DiskStore
// read contract over the network.
type Remote = toplist.Remote

// RemoteOption configures OpenRemote (HTTP client, cache size).
type RemoteOption = toplist.RemoteOption

// OpenRemote opens the archive served at baseURL over the versioned
// archive wire API and returns it as a Source — the network
// counterpart of OpenArchive. Analyses and labs built over a Source
// run unchanged (and byte-identically) against the result:
//
//	src, err := toplists.OpenRemote(ctx, "http://archive-host:8080")
//	if err != nil { ... }
//	lab := toplists.NewLab(
//		toplists.WithScale(toplists.TestScale()),
//		toplists.WithSource(src))
//
// ctx governs the manifest fetch and becomes the base context for the
// Source-interface Get calls; per-call control uses Remote.GetContext.
func OpenRemote(ctx context.Context, baseURL string, opts ...RemoteOption) (*Remote, error) {
	return toplist.OpenRemote(ctx, baseURL, opts...)
}

// ArchiveHandler returns an http.Handler exposing src over the
// versioned read-only archive wire API (manifest, day and provider
// listings, gzipped snapshots) under toplist.RemoteAPIPrefix. Mount it
// at a server root and any OpenRemote pointed at that server reads the
// archive as a Source. `toplistd -serve-archive` mounts the same
// handler.
func ArchiveHandler(src Source) http.Handler {
	return archived.NewServer(src)
}

// Pack is a packed archive: every snapshot of a DiskStore-style
// archive in one file, read lazily through any io.ReaderAt — a local
// file (OpenPack) or a static file server via HTTP Range requests
// (OpenPackURL). It implements Source, so labs, analyses, and
// ArchiveHandler serve from it unchanged and byte-identically.
type Pack = pack.Pack

// PackOption configures OpenPackURL (the Range backend's HTTP
// client).
type PackOption = pack.Option

// WritePack packs the archive src into a single file at path: gzip
// snapshot documents back to back, indexed by a trailing directory of
// per-slot offsets and content hashes. Stores that persist hashes
// (DiskStore) are packed without re-encoding, and the write refuses
// bytes that do not match their persisted hash. The file is written
// atomically (temp + rename).
func WritePack(path string, src Source) error { return pack.Write(path, src) }

// OpenPack opens the packed archive file at path as a Source. The
// directory is read eagerly (and checked against its hash); snapshots
// are read lazily and every blob is verified against its directory
// hash before it is served.
func OpenPack(path string) (*Pack, error) { return pack.OpenFile(path) }

// OpenPackURL opens a packed archive served by any static file server
// at url, reading it through HTTP Range requests — no archive-aware
// code on the remote side — with the retry discipline of OpenRemote.
func OpenPackURL(ctx context.Context, url string, opts ...PackOption) (*Pack, error) {
	return pack.OpenURL(ctx, url, opts...)
}

// Option configures Simulate, Stream and NewLab.
type Option func(*config)

type config struct {
	scale         Scale
	archiveDir    string
	source        Source
	remoteWorkers []string
}

// WithScale selects the simulation scale (DefaultScale when omitted).
// Its Workers field sets the engine parallelism: 0 uses every core, 1
// forces the serial reference path. The archive is bitwise identical
// either way; the knob only trades wall-clock.
func WithScale(s Scale) Option {
	return func(c *config) { c.scale = s }
}

// WithArchiveDir tees every generated snapshot into a durable
// DiskStore at dir (created fresh), so the simulation persists as it
// runs and a later OpenArchive(dir) can serve it without
// resimulating. The store's manifest records the scale name and the
// engine's expected provider set.
func WithArchiveDir(dir string) Option {
	return func(c *config) { c.archiveDir = dir }
}

// WithSource backs the study with an already-generated archive instead
// of simulating: the world and analysis layers are rebuilt
// deterministically from the scale (which must match the one that
// produced the source), and the engine is never invoked. Typical
// source: a DiskStore from OpenArchive.
func WithSource(src Source) Option {
	return func(c *config) { c.source = src }
}

// WithRemoteWorkers distributes the per-day simulation stepping across
// the shard workers (`shardd` daemons) at the given base URLs: a
// coordinator splits each day's per-domain computation into shards,
// farms them out over the /shard/v1 wire API, and merges the partial
// results — byte-identically to a local run, including across worker
// failures (dead workers' shards are reseeded on survivors mid-day).
// Composes with the Scale's Workers (which keeps setting the local
// rank width) and WithArchiveDir; mutually exclusive with WithSource.
func WithRemoteWorkers(urls ...string) Option {
	return func(c *config) { c.remoteWorkers = append(c.remoteWorkers, urls...) }
}

func buildConfig(opts []Option) (config, error) {
	c := config{scale: DefaultScale()}
	for _, o := range opts {
		o(&c)
	}
	if c.source != nil && c.archiveDir != "" {
		return c, fmt.Errorf("toplists: WithSource and WithArchiveDir are mutually exclusive (nothing is generated from a source)")
	}
	if c.source != nil && len(c.remoteWorkers) > 0 {
		return c, fmt.Errorf("toplists: WithSource and WithRemoteWorkers are mutually exclusive (nothing is generated from a source)")
	}
	return c, nil
}

// newArchiveStore creates the durable store for WithArchiveDir, sized
// to the scale's day range, annotated with the scale name, and
// expecting the provider set the engine will emit — so the manifest's
// Complete/Missing contract mirrors the in-memory archive's.
func newArchiveStore(c config) (*DiskStore, error) {
	store, err := toplist.CreateDiskStore(c.archiveDir, 0, toplist.Day(c.scale.Population.Days-1))
	if err != nil {
		return nil, err
	}
	if err := store.SetScale(c.scale.Name); err != nil {
		return nil, err
	}
	expected := providers.DefaultOptions(c.scale.Population.Days, c.scale.ListSize).EnabledProviders()
	if err := store.Expect(expected...); err != nil {
		return nil, err
	}
	return store, nil
}

// Simulate builds the world and generates the daily snapshot archive.
// Generation runs on the concurrent engine (a Scale with Workers = 1
// forces the serial reference path; the output is identical);
// cancelling ctx stops the run at the next day boundary. With
// WithArchiveDir the run is additionally persisted to disk as it
// generates; with WithSource nothing is simulated at all — the study
// is rebuilt around the given archive and the engine is never invoked.
func Simulate(ctx context.Context, opts ...Option) (*Study, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if c.source != nil {
		return core.RunFrom(c.scale, c.source)
	}
	var tee toplist.SnapshotSink
	if c.archiveDir != "" {
		store, err := newArchiveStore(c)
		if err != nil {
			return nil, err
		}
		tee = store
	}
	if len(c.remoteWorkers) > 0 {
		return core.RunDistributed(ctx, c.scale, tee, c.remoteWorkers)
	}
	return core.RunContext(ctx, c.scale, tee)
}

// Stream builds the world and streams every daily snapshot into sink
// as it is generated — days ascending, providers in Alexa, Umbrella,
// Majestic order within a day — instead of materialising a Study.
// Consumers that want a day barrier can also implement
// EndDay(toplist.Day) error (see internal/engine.DaySink). Cancelling
// ctx stops the stream within one day boundary: no snapshot for any
// later day is delivered, and ctx.Err() is returned. WithArchiveDir
// tees the stream into a durable store as well.
func Stream(ctx context.Context, sink SnapshotSink, opts ...Option) error {
	c, err := buildConfig(opts)
	if err != nil {
		return err
	}
	if c.source != nil {
		return fmt.Errorf("toplists: Stream simulates; it cannot run from WithSource")
	}
	var eng *engine.Engine
	if len(c.remoteWorkers) > 0 {
		_, deng, coord, derr := core.NewDistributedEngine(c.scale, c.remoteWorkers)
		if derr != nil {
			return derr
		}
		defer coord.Close()
		eng = deng
	} else {
		_, leng, lerr := core.NewEngine(c.scale)
		if lerr != nil {
			return lerr
		}
		eng = leng
	}
	if c.archiveDir != "" {
		store, err := newArchiveStore(c)
		if err != nil {
			return err
		}
		sink = engine.Tee(sink, store)
	}
	return eng.Run(ctx, c.scale.Population.Days, sink)
}

// ExperimentIDs lists every reproducible table/figure ID.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns the display title for an experiment ID.
func ExperimentTitle(id string) string { return experiments.Title(id) }

// Lab runs experiments against one shared simulation (or one shared
// loaded archive; see WithSource).
type Lab struct {
	env *experiments.Env
}

// NewLab prepares a lab from the given options. With WithSource the
// lab serves from the loaded archive and never simulates; otherwise
// the simulation runs on first use — persisted through WithArchiveDir
// when given — and is shared by all experiments.
func NewLab(opts ...Option) *Lab {
	c, err := buildConfig(opts)
	if err == nil && len(c.remoteWorkers) > 0 {
		// The lab's study materialises lazily, possibly long after the
		// caller's worker fleet is gone; run Simulate(WithRemoteWorkers)
		// eagerly and hand the study to the lab via WithSource instead.
		err = fmt.Errorf("toplists: NewLab does not support WithRemoteWorkers; Simulate first, then NewLab(WithSource(study.Archive))")
	}
	if err != nil {
		// Surface the configuration error through the lazy study,
		// where every Lab method can report it.
		return &Lab{env: experiments.NewEnvError(c.scale, err)}
	}
	if c.source != nil {
		return &Lab{env: experiments.NewEnvFrom(c.scale, c.source)}
	}
	env := experiments.NewEnv(c.scale)
	if c.archiveDir != "" {
		store, err := newArchiveStore(c)
		if err != nil {
			return &Lab{env: experiments.NewEnvError(c.scale, err)}
		}
		env.SetTee(store)
	}
	return &Lab{env: env}
}

// Study returns the lab's underlying study (materialising it if
// needed).
func (l *Lab) Study() (*Study, error) { return l.env.Study() }

// Run regenerates one table or figure. The context governs the shared
// study's one-time materialisation and is checked before the driver
// starts.
func (l *Lab) Run(ctx context.Context, id string) (*Experiment, error) {
	return experiments.Run(ctx, l.env, id)
}

// RunAll regenerates every table and figure, returned in ID order. The
// worker pool (sized to GOMAXPROCS) claims experiments
// longest-job-first, so the grid-heavy drivers that dominate the
// critical path start before the cheap table lookups.
func (l *Lab) RunAll(ctx context.Context) ([]*Experiment, error) {
	return experiments.RunAll(ctx, l.env)
}
