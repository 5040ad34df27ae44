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
// # API v2
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
//
// Migration from v1:
//
//	v1                          v2
//	--------------------------  --------------------------------------------
//	Simulate(scale)             Simulate(ctx, WithScale(scale))
//	Stream(scale, sink)         Stream(ctx, sink, WithScale(scale))
//	NewLab(scale)               NewLab(WithScale(scale))
//	lab.Run(id)                 lab.Run(ctx, id)
//	lab.RunAll()                lab.RunAll(ctx)
//	scale.Workers = n           WithWorkers(n) (or still via the Scale)
//	(no equivalent)             WithArchiveDir(dir) — persist while simulating
//	(no equivalent)             WithSource(src) — serve from a loaded archive
//
// The v1 entry points survive as deprecated shims (SimulateScale,
// StreamScale, NewLabScale) for external callers migrating gradually;
// nothing inside this repository uses them (CI enforces that).
package toplists

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/archived"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/pack"
	"repro/internal/providers"
	"repro/internal/serve"
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

// SwappableSource is a Source holder whose backing Source can be
// replaced atomically while servers keep reading — the hot-reload
// primitive behind `toplistd`'s SIGHUP/-reload-poll handling. It
// implements Source (and passes through the raw fast-path contract
// when the current Source supports it), so it drops in anywhere a
// Source is accepted; handlers that resolve it through
// serve.Snapshot pin one generation per request.
type SwappableSource = serve.SwappableSource

// NewSwappableSource wraps src in an atomically swappable holder.
// Swap in a freshly opened archive after external repair or growth:
//
//	swap := toplists.NewSwappableSource(src)
//	handler := toplists.ArchiveHandler(swap)
//	...
//	next, err := toplists.OpenArchive(dir) // reopened, repaired, grown
//	if err != nil { ... }
//	swap.Swap(next)                        // in-flight requests unaffected
func NewSwappableSource(src Source) *SwappableSource {
	return serve.NewSwappableSource(src)
}

// Metrics is the serving core's metrics registry: per-route request
// counters, latency histograms, and operational gauges rendered in
// Prometheus text exposition format by its Handler. `toplistd` and
// `collectd -metrics-addr` expose one at /metrics.
type Metrics = serve.Metrics

// NewMetrics returns an empty metrics registry. Mount its Handler and
// wrap application handlers with its Instrument middleware:
//
//	m := toplists.NewMetrics()
//	mux.Handle("GET /metrics", m.Handler())
//	handler := toplists.ChainMiddleware(mux, m.Instrument(toplists.RouteLabel))
func NewMetrics() *Metrics { return serve.NewMetrics() }

// Middleware is a composable http.Handler wrapper; see
// ChainMiddleware.
type Middleware = serve.Middleware

// ChainMiddleware wraps h in mw, first middleware outermost — the
// composition `toplistd` runs in production (instrumentation, access
// log, load shedding, panic recovery, from Metrics.Instrument,
// AccessLog, LimitRequests, and RecoverPanics).
func ChainMiddleware(h http.Handler, mw ...Middleware) http.Handler {
	return serve.Chain(h, mw...)
}

// RouteLabel maps a request to a low-cardinality route label for
// Metrics.Instrument: list-serving and archive-API paths collapse to
// one label per route shape, everything else to "other".
func RouteLabel(r *http.Request) string { return serve.RouteLabel(r) }

// AccessLog logs one line per request (method, path, status, bytes,
// duration) to logger; a nil logger disables it at zero cost.
func AccessLog(logger *log.Logger) Middleware { return serve.AccessLog(logger) }

// LimitRequests caps concurrent in-flight requests at n; excess
// requests are shed immediately with 503 + Retry-After instead of
// queueing. n <= 0 disables the limiter. A non-nil m counts sheds.
func LimitRequests(n int, m *Metrics) Middleware { return serve.Limit(n, m) }

// RecoverPanics converts handler panics into 500s (except
// http.ErrAbortHandler, which propagates), logging the stack to
// logger and counting recoveries in m; both may be nil.
func RecoverPanics(logger *log.Logger, m *Metrics) Middleware {
	return serve.Recover(logger, m)
}

// Peer is one archive server in a replication fleet, with its health
// state: consecutive failures and the jittered-backoff deadline before
// it is tried again.
type Peer = fleet.Peer

// PeerSet is a fixed set of archive-server peers with per-peer health
// tracking, healthiest-first failover ordering, and hash-aware
// snapshot fetching — the multi-peer machinery behind cmd/mirrord and
// cmd/collectd's repeatable -peer flag.
type PeerSet = fleet.PeerSet

// PeerOption configures NewPeerSet (backoff window, wire-client
// options).
type PeerOption = fleet.PeerOption

// NewPeerSet builds a peer set over the given archive-server base URLs
// (duplicates dropped; at least one required).
func NewPeerSet(urls []string, opts ...PeerOption) (*PeerSet, error) {
	return fleet.NewPeerSet(urls, opts...)
}

// WithPeerBackoff sets the failing-peer backoff window: ~base after
// the first failure, doubling per consecutive failure up to max.
func WithPeerBackoff(base, max time.Duration) PeerOption {
	return fleet.WithPeerBackoff(base, max)
}

// WithPeerRemoteOptions passes opts to every wire client the peer set
// opens.
func WithPeerRemoteOptions(opts ...RemoteOption) PeerOption {
	return fleet.WithPeerRemoteOptions(opts...)
}

// Mirror continuously replicates a local archive from a PeerSet over
// the wire API: conditional manifest revalidation (304s in steady
// state), raw byte copies for missing slots, and healing of locally
// corrupt slots from the healthiest peer holding a hash-matching copy.
// cmd/mirrord wraps one in a daemon; embedders drive SyncOnce /
// VerifySweep / Loops directly.
type Mirror = fleet.Mirror

// MirrorOption configures NewMirror (logger, metrics registry).
type MirrorOption = fleet.MirrorOption

// NewMirror builds a mirror replicating store from peers.
func NewMirror(store *DiskStore, peers *PeerSet, opts ...MirrorOption) *Mirror {
	return fleet.NewMirror(store, peers, opts...)
}

// WithMirrorLogger sets the mirror's logger (default: silent).
func WithMirrorLogger(l *log.Logger) MirrorOption { return fleet.WithMirrorLogger(l) }

// WithMirrorMetrics registers the mirror's counters and per-peer lag
// gauges on reg (a shared /metrics registry) instead of a private one.
func WithMirrorMetrics(reg *Metrics) MirrorOption { return fleet.WithMirrorMetrics(reg) }

// BootstrapArchive opens the archive at dir, creating it from the
// first reachable peer's manifest (range, scale, expected providers)
// when none exists yet — how a brand-new mirror node joins a fleet.
func BootstrapArchive(ctx context.Context, dir string, peers *PeerSet) (*DiskStore, error) {
	return fleet.Bootstrap(ctx, dir, peers)
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

// Option configures the v2 entry points (Simulate, Stream, NewLab).
type Option func(*config)

type config struct {
	scale         Scale
	scaleSet      bool
	workers       int
	workersSet    bool
	archiveDir    string
	source        Source
	remoteWorkers []string
}

// WithScale selects the simulation scale (DefaultScale when omitted).
func WithScale(s Scale) Option {
	return func(c *config) {
		c.scale = s
		c.scaleSet = true
	}
}

// WithWorkers overrides the engine parallelism: 0 uses every core,
// 1 forces the serial reference path. The archive is bitwise identical
// either way; the knob only trades wall-clock.
func WithWorkers(n int) Option {
	return func(c *config) {
		c.workers = n
		c.workersSet = true
	}
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
// Composes with WithWorkers (which keeps tuning the local rank/emit
// pipeline) and WithArchiveDir; mutually exclusive with WithSource.
func WithRemoteWorkers(urls ...string) Option {
	return func(c *config) { c.remoteWorkers = append(c.remoteWorkers, urls...) }
}

func buildConfig(opts []Option) (config, error) {
	c := config{scale: DefaultScale()}
	for _, o := range opts {
		o(&c)
	}
	if c.workersSet {
		c.scale.Workers = c.workers
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
// Generation runs on the concurrent engine (WithWorkers(1) forces the
// serial reference path; the output is identical); cancelling ctx
// stops the run at the next day boundary. With WithArchiveDir the run
// is additionally persisted to disk as it generates; with WithSource
// nothing is simulated at all — the study is rebuilt around the given
// archive and the engine is never invoked.
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

// Deprecated v1 shims. These preserve the pre-v2 call shapes for
// external callers; inside this repository everything uses the
// context-aware option-driven API above (CI rejects in-repo shim use).

// SimulateScale is the v1 Simulate.
//
// Deprecated: use Simulate(ctx, WithScale(s)).
func SimulateScale(s Scale) (*Study, error) {
	return Simulate(context.Background(), WithScale(s))
}

// StreamScale is the v1 Stream.
//
// Deprecated: use Stream(ctx, sink, WithScale(s)).
func StreamScale(s Scale, sink SnapshotSink) error {
	return Stream(context.Background(), sink, WithScale(s))
}

// LegacyLab wraps a Lab with the v1 context-free method set.
//
// Deprecated: use NewLab(WithScale(s)) and the context-aware methods.
type LegacyLab struct{ lab *Lab }

// NewLabScale is the v1 NewLab.
//
// Deprecated: use NewLab(WithScale(s)).
func NewLabScale(s Scale) *LegacyLab {
	return &LegacyLab{lab: NewLab(WithScale(s))}
}

// Study returns the lab's underlying study.
//
// Deprecated: part of the v1 shim surface.
func (l *LegacyLab) Study() (*Study, error) { return l.lab.Study() }

// Run regenerates one table or figure.
//
// Deprecated: use Lab.Run(ctx, id).
func (l *LegacyLab) Run(id string) (*Experiment, error) {
	return l.lab.Run(context.Background(), id)
}

// RunAll regenerates every table and figure in ID order.
//
// Deprecated: use Lab.RunAll(ctx).
func (l *LegacyLab) RunAll() ([]*Experiment, error) {
	return l.lab.RunAll(context.Background())
}
