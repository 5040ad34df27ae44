// Command toplistd publishes simulated top-list snapshots over HTTP,
// the way the real providers publish their daily CSVs. It simulates
// the ecosystem at the requested scale and serves every provider's
// daily snapshot under
//
//	/v1/index
//	/v1/{provider}/latest/top-1m.csv[.gz|.zip]
//	/v1/{provider}/{date}/top-1m.csv[.gz|.zip]
//
// With -live, the daemon starts serving immediately and streams days
// out of the simulation engine as they are generated (at most one per
// -live-interval): nothing is visible at startup, each finished day is
// published the moment its snapshots exist, and a Mirror pointed at
// the daemon experiences a real longitudinal collection against a
// still-running simulation.
//
// With -archive, no simulation runs at all: the daemon reopens a
// durable archive previously saved by `toplists -save` (or any
// toplist.DiskStore producer) and serves it straight from disk. With
// -serve-pack, it serves a packed single-file archive (written by
// `toplists pack`) the same way.
//
// With -serve-archive, the daemon additionally mounts the structured
// archive wire API (internal/archived) under /archive/v1 beside the
// provider-style routes, so remote consumers can reopen the served
// archive as a toplist.Source with toplist.OpenRemote.
//
// With one or more -shard-worker URLs (shardd daemons), the per-day
// simulation stepping is farmed out across those workers over the
// /shard/v1 wire API and merged back bitwise-identically to a local
// run — including across worker deaths, whose shards are reseeded on
// the survivors mid-day. The shard_* counters and per-worker lag
// gauges land on this daemon's /metrics. Simulation modes only
// (incompatible with -archive and -serve-pack).
//
// Every mode runs on the shared serving core (internal/serve):
//
//   - /metrics exposes per-route request counts, latency histograms,
//     bytes served, an in-flight gauge, and the load-shed counter in
//     Prometheus text format.
//   - -limit bounds concurrent requests; excess load is shed with
//     503 + Retry-After instead of queueing.
//   - In -archive and -serve-pack modes the served source is held in a
//     serve.SwappableSource: SIGHUP — or, with -reload-poll, a change
//     to the archive's mtime — reopens the store and swaps it in with
//     zero dropped requests (in-flight reads finish on the old
//     generation). Reload a regrown archive or a repacked file without
//     restarting the daemon.
//   - Shutdown is graceful: SIGINT/SIGTERM stop accepting connections,
//     in-flight requests drain (bounded by a deadline), then the
//     process exits.
//
// Usage:
//
//	toplistd [-addr :8080] [-scale test|default] [-seed N] [-days N]
//	         [-workers N] [-live] [-live-interval 2s] [-archive DIR]
//	         [-serve-pack FILE] [-serve-archive] [-shard-worker URL ...]
//	         [-limit N] [-reload-poll D] [-access-log=false]
//
// Exit status: 0 on success, 2 for invocation errors (unknown flags,
// bad flag combos — usage is printed), 1 for operational failures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archived"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/listserv"
	"repro/internal/pack"
	"repro/internal/population"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/toplist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "toplistd:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

const usage = `usage: toplistd [-addr :8080] [-scale test|default] [-seed N] [-days N]
                [-workers N] [-live] [-live-interval 2s] [-archive DIR]
                [-serve-pack FILE] [-serve-archive] [-shard-worker URL ...]
                [-limit N] [-reload-poll D] [-access-log=false]`

// usageError is an invocation mistake — unknown flags, bad flag combos
// — as opposed to an operational failure. main prints it with the
// usage synopsis and exits 2; everything else exits 1, so scripts and
// process supervisors can tell "you called it wrong" from "it ran and
// failed" (the same split cmd/toplists has).
type usageError struct {
	msg string
}

func (e *usageError) Error() string { return e.msg + "\n" + usage }

func badUsage(format string, a ...any) *usageError {
	return &usageError{msg: fmt.Sprintf(format, a...)}
}

// workerList collects repeated -shard-worker flags.
type workerList []string

func (w *workerList) String() string { return fmt.Sprint([]string(*w)) }

func (w *workerList) Set(v string) error {
	*w = append(*w, v)
	return nil
}

// config is the parsed, validated flag set.
type config struct {
	addr         string
	scale        core.Scale
	live         bool
	liveInterval time.Duration
	archiveDir   string
	servePack    string
	serveArchive bool
	shardWorkers []string
	limit        int
	reloadPoll   time.Duration
	accessLog    bool
}

// parseFlags parses and cross-validates the invocation. Every error it
// returns is a usageError.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("toplistd", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are reported through usageError
	addr := fs.String("addr", ":8080", "listen address")
	scaleName := fs.String("scale", "test", "simulation scale: test or default")
	seed := fs.Uint64("seed", 1, "root seed")
	days := fs.Int("days", 0, "override the simulated window length (days)")
	workers := fs.Int("workers", 0, "engine parallelism (0 = all cores, 1 = serial)")
	live := fs.Bool("live", false, "stream days out of the engine as they are generated")
	liveInterval := fs.Duration("live-interval", 2*time.Second, "publication pacing in -live mode")
	archiveDir := fs.String("archive", "", "serve a saved archive from this directory (no simulation)")
	servePack := fs.String("serve-pack", "", "serve a packed archive file (no simulation)")
	serveArchive := fs.Bool("serve-archive", false, "also mount the archive wire API under "+toplist.RemoteAPIPrefix)
	var shardWorkers workerList
	fs.Var(&shardWorkers, "shard-worker", "shard worker (shardd) base URL to distribute generation across (repeatable)")
	limit := fs.Int("limit", 1024, "max concurrent requests before shedding with 503 (0 = unlimited)")
	reloadPoll := fs.Duration("reload-poll", 0, "watch the served archive for changes and hot-reload (0 = SIGHUP only)")
	accessLog := fs.Bool("access-log", true, "log one line per request")
	if err := fs.Parse(args); err != nil {
		return nil, badUsage("%v", err)
	}
	if fs.NArg() > 0 {
		return nil, badUsage("unexpected argument %q", fs.Arg(0))
	}
	if *archiveDir != "" && *servePack != "" {
		return nil, badUsage("-archive and -serve-pack are mutually exclusive")
	}
	if (*archiveDir != "" || *servePack != "") && *live {
		return nil, badUsage("-live cannot serve a saved archive")
	}
	if (*archiveDir != "" || *servePack != "") && len(shardWorkers) > 0 {
		return nil, badUsage("-shard-worker distributes simulation; it cannot serve a saved archive")
	}
	if *reloadPoll < 0 {
		return nil, badUsage("-reload-poll must be >= 0")
	}
	if *reloadPoll > 0 && *archiveDir == "" && *servePack == "" {
		return nil, badUsage("-reload-poll needs -archive or -serve-pack (a simulated source has nothing to reload)")
	}
	if *limit < 0 {
		return nil, badUsage("-limit must be >= 0")
	}

	scale := core.TestScale()
	switch *scaleName {
	case "test":
	case "default":
		scale = core.DefaultScale()
	default:
		return nil, badUsage("unknown scale %q (want test or default)", *scaleName)
	}
	scale.Population.Seed = *seed
	scale.Workers = *workers
	if *days > 0 {
		scale.Population.Days = *days
	}

	return &config{
		addr:         *addr,
		scale:        scale,
		live:         *live,
		liveInterval: *liveInterval,
		archiveDir:   *archiveDir,
		servePack:    *servePack,
		serveArchive: *serveArchive,
		shardWorkers: shardWorkers,
		limit:        *limit,
		reloadPoll:   *reloadPoll,
		accessLog:    *accessLog,
	}, nil
}

// composition is the assembled serving surface: one mux behind the
// standard middleware chain, plus the lifecycle hooks the daemon runs
// (live generation, reload).
type composition struct {
	handler    http.Handler
	metrics    *serve.Metrics
	source     toplist.Source // what -serve-archive exposes
	background []func(context.Context)
	reload     func() error           // nil when the mode has nothing to reload
	stamp      func() (string, error) // fingerprint for -reload-poll
	closeFn    func() error           // releases the current backend on exit
}

func (c *composition) close() error {
	if c.closeFn != nil {
		return c.closeFn()
	}
	return nil
}

// build assembles the serving composition for cfg: source per mode,
// both route families on one mux, /metrics, and the middleware chain.
func build(ctx context.Context, cfg *config, logger *log.Logger) (*composition, error) {
	comp := &composition{metrics: serve.NewMetrics()}
	mux := http.NewServeMux()
	reloads := comp.metrics.Counter("toplistd_reloads_total", "Successful hot reloads of the served source.")

	switch {
	case cfg.archiveDir != "":
		// Serve a durable archive straight from disk — no world, no
		// engine, no resimulation. The store sits in a swappable holder
		// so a reload can reopen a regrown archive in place.
		store, err := toplist.OpenArchive(cfg.archiveDir)
		if err != nil {
			return nil, err
		}
		if missing := store.Missing(); len(missing) > 0 {
			logger.Printf("warning: archive %s has %d missing snapshots", cfg.archiveDir, len(missing))
		}
		swap := serve.NewSwappableSource(store)
		gk := listserv.NewGatekeeper(swap, store.Last())
		listserv.NewServerAt(gk, listserv.WithMux(mux))
		comp.source = swap
		comp.stamp = serve.FileStamp(filepath.Join(cfg.archiveDir, "manifest.json"))
		comp.reload = func() error {
			next, err := toplist.OpenArchive(cfg.archiveDir)
			if err != nil {
				return err
			}
			swap.Swap(next)
			gk.Advance(next.Last())
			reloads.Add(1)
			logger.Printf("archive %s reloaded: %d providers x %d days",
				cfg.archiveDir, len(next.Providers()), next.Days())
			return nil
		}
		logger.Printf("archive %s ready: %d providers x %d days (served from disk)",
			cfg.archiveDir, len(store.Providers()), store.Days())

	case cfg.servePack != "":
		// Serve a packed single-file archive: the same Source contract,
		// read lazily out of one file. A reload reopens the file (a
		// repack writes a new inode via rename) and swaps it in; the
		// old pack is left to in-flight readers and reclaimed when the
		// last reference is dropped.
		p, err := pack.OpenFile(cfg.servePack)
		if err != nil {
			return nil, err
		}
		swap := serve.NewSwappableSource(p)
		gk := listserv.NewGatekeeper(swap, p.Last())
		listserv.NewServerAt(gk, listserv.WithMux(mux))
		comp.source = swap
		comp.stamp = serve.FileStamp(cfg.servePack)
		comp.reload = func() error {
			next, err := pack.OpenFile(cfg.servePack)
			if err != nil {
				return err
			}
			swap.Swap(next)
			gk.Advance(next.Last())
			reloads.Add(1)
			logger.Printf("pack %s reloaded: %d providers x %d days, %d snapshots",
				cfg.servePack, len(next.Providers()), next.Days(), next.Snapshots())
			return nil
		}
		comp.closeFn = func() error {
			if cl, ok := swap.Load().(io.Closer); ok {
				return cl.Close()
			}
			return nil
		}
		logger.Printf("pack %s ready: %d providers x %d days, %d snapshots (served from one file, %d bytes)",
			cfg.servePack, len(p.Providers()), p.Days(), p.Snapshots(), p.Size())

	default:
		logger.Printf("building world at scale %q (seed %d)...", cfg.scale.Name, cfg.scale.Population.Seed)
		var (
			world *population.World
			eng   *engine.Engine
			err   error
		)
		if len(cfg.shardWorkers) > 0 {
			// Distributed generation: per-day stepping runs on the shard
			// workers, merged back through a coordinator whose counters
			// and per-worker lag gauges land on this daemon's /metrics.
			var coord *shard.Coordinator
			world, eng, coord, err = core.NewDistributedEngine(cfg.scale, cfg.shardWorkers,
				shard.WithCoordinatorLogger(logger),
				shard.WithCoordinatorMetrics(comp.metrics))
			if err != nil {
				return nil, err
			}
			comp.closeFn = func() error { coord.Close(); return nil }
			logger.Printf("distributing generation across %d shard workers", len(cfg.shardWorkers))
		} else {
			world, eng, err = core.NewEngine(cfg.scale)
			if err != nil {
				return nil, err
			}
		}
		simDays := cfg.scale.Population.Days
		arch := toplist.NewArchive(0, toplist.Day(simDays-1))
		arch.Expect(eng.Providers()...)

		// In live mode nothing is visible yet and days stream in as the
		// engine produces them; otherwise materialise everything first.
		gk := listserv.NewGatekeeper(arch, -1)
		if !cfg.live {
			if err := eng.Run(ctx, simDays, arch); err != nil {
				return nil, err
			}
			if missing := arch.Missing(); len(missing) > 0 {
				return nil, fmt.Errorf("engine left %d snapshots missing", len(missing))
			}
			gk.Advance(arch.Last())
			logger.Printf("archive ready: %d providers x %d days", len(arch.Providers()), arch.Days())
		} else {
			comp.background = append(comp.background, func(ctx context.Context) {
				sink := newLiveSink(ctx, gk, cfg.liveInterval, logger)
				defer sink.stop()
				if err := eng.Run(ctx, simDays, sink); err != nil && ctx.Err() == nil {
					logger.Printf("live generation failed: %v", err)
					return
				}
				logger.Printf("live generation complete: %d days published", simDays)
			})
		}
		listserv.NewServerAt(gk, listserv.WithMux(mux)).WithZones(worldZones{world})
		// The wire API sees exactly what the CSV routes see: in live
		// mode the gatekeeper's visibility frontier, otherwise the
		// fully materialised archive.
		comp.source = gk.View()
	}

	if cfg.serveArchive {
		archived.NewServer(comp.source, archived.WithMux(mux))
		logger.Printf("archive wire API mounted at %s", toplist.RemoteAPIPrefix)
	}
	mux.Handle("GET /metrics", comp.metrics.Handler())

	var accessLogger *log.Logger
	if cfg.accessLog {
		accessLogger = logger
	}
	comp.handler = serve.Chain(mux,
		comp.metrics.Instrument(serve.RouteLabel),
		serve.AccessLog(accessLogger),
		serve.Limit(cfg.limit, comp.metrics),
		serve.Recover(logger, comp.metrics),
	)
	return comp, nil
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if out == nil {
		out = io.Discard
	}
	logger := log.New(out, "", log.LstdFlags)

	ctx, stop := serve.SignalContext(context.Background())
	defer stop()

	comp, err := build(ctx, cfg, logger)
	if err != nil {
		return err
	}
	defer comp.close()

	background := comp.background
	if comp.reload != nil {
		background = append(background, serve.Reloader(cfg.reloadPoll, comp.stamp, comp.reload, logger))
	}

	daemon := &serve.Daemon{
		Addr:       cfg.addr,
		Handler:    comp.handler,
		Logger:     logger,
		Background: background,
	}
	addr, err := daemon.Listen()
	if err != nil {
		return err
	}
	logger.Printf("serving on http://%s/v1/index", addr)
	return daemon.Run(ctx)
}

// worldZones publishes the simulated world's day-0 com/net/org zone
// files — the §8 general-population source — at /v1/zones/{tld}.zone.
type worldZones struct {
	w *population.World
}

func (z worldZones) ZoneTLDs() []string { return []string{"com", "net", "org"} }

func (z worldZones) ZoneDomains(tld string) []string { return z.w.ZoneDomains(0, tld) }

// liveSink streams engine output into a served archive: snapshots go
// into the gatekeeper's archive under its lock, and each completed day
// becomes visible to HTTP readers at most once per interval. It is the
// engine.DaySink wired up by -live. It runs on the engine's emit
// goroutine, one day behind the day loop, so blocking here on the
// pacing ticker does not stall generation: the engine steps and ranks
// the next day while this sink waits, and publication latency per tick
// is just the archive insert.
type liveSink struct {
	ctx    context.Context
	gk     *listserv.Gatekeeper
	ticker *time.Ticker
	logger *log.Logger
}

func newLiveSink(ctx context.Context, gk *listserv.Gatekeeper, interval time.Duration, logger *log.Logger) *liveSink {
	return &liveSink{ctx: ctx, gk: gk, ticker: time.NewTicker(interval), logger: logger}
}

func (s *liveSink) stop() { s.ticker.Stop() }

// Put stores one snapshot; the day is not yet visible.
func (s *liveSink) Put(provider string, day toplist.Day, l *toplist.List) error {
	return s.gk.Put(provider, day, l)
}

// EndDay paces publication and then makes the finished day visible.
// Cancelling the context aborts the engine run via the returned error.
func (s *liveSink) EndDay(day toplist.Day) error {
	select {
	case <-s.ctx.Done():
		return s.ctx.Err()
	case <-s.ticker.C:
	}
	s.gk.Advance(day)
	s.logger.Printf("published day %v", day)
	return nil
}
