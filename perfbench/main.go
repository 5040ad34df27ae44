// Command perfbench is the repository's end-to-end benchmark. One
// process drives the product path — generate → persist → serve →
// analyze — through the public functions of each layer over loopback
// TCP listeners, checks the output of every operation, and prints one
// JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 20 --trace 0
//
// Every workload is a closed loop with one caller. --trace 0 reports
// the end-to-end metrics with tracing off; --trace 1 records spans
// around every call into a layer, alternates traced and untraced ops,
// and reports the per-layer metrics plus the tracing overhead. The
// workloads, the metrics, and what each layer is predicted to move are
// recorded in provenance.json.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

// procStart is when the process started: the first set-up is timed
// from here, so setup_s covers process start to the first timed op.
var procStart = time.Now()

// A run sets its workload up at least minSetups times, and more while
// the set-ups so far took under setupBudget in all (a quick set-up is
// the noisiest), up to maxSetups; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
	sizes    sizes
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the population seed, and serve's read order")
	seconds := fs.Int("seconds", 20, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory that holds the run's scratch archives")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload {%s} --seed N --seconds N>0 --trace {0,1}\n", strings.Join(workloadNames(), ","))
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workdir:  *workdir,
		sizes:    benchSizes,
	}
	res, err := runWorkload(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// prepare builds what the ops are checked against and runs one
	// warm-up op. It runs once, on the instance that is measured, and
	// is not part of setup_s: it is the benchmark's own work, not the
	// product's.
	prepare(ctx context.Context) error
	// op runs one operation and checks its output; a wrong output is
	// an error.
	op(ctx context.Context, run *opRun) error
	close()
}

// opRun is what an op reports back to the runner.
type opRun struct {
	timed   time.Duration // product work only: excludes output checks and cleanup
	items   int           // work items completed: days stepped, slots read, artifacts rendered
	samples []float64     // per-item latencies in ms, where a workload times items
}

// opRecord is one measured op.
type opRecord struct {
	traced  bool
	err     error
	run     opRun
	net     netCounts
	layer   layerCounts
	gcs     uint32
	gcPause time.Duration
	cpu     time.Duration
}

// layerCounts are per-layer counters the wrappers keep whether or not
// tracing is on, so a traced and an untraced op can be compared.
type layerCounts struct {
	puts, gets, getRaws, snapshotReqs, steps, reassigned int64
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{a.puts - b.puts, a.gets - b.gets, a.getRaws - b.getRaws,
		a.snapshotReqs - b.snapshotReqs, a.steps - b.steps, a.reassigned - b.reassigned}
}

// env is what every workload shares within one run.
type env struct {
	cfg  config
	tr   *tracer
	net  *transport
	work string // scratch directory, removed when the run ends

	puts, gets, getRaws, snapshotReqs, steps, reassigned atomic.Int64

	dirs atomic.Int64

	mu       sync.Mutex
	stats    []engineRun      // traced engine runs
	stores   []storeSizes     // traced store writes
	registry []*serve.Metrics // server metrics, for the shed count
}

// engineRun is one traced engine run's stage report.
type engineRun struct {
	stats engine.Stats
	days  int
}

// storeSizes is what one traced generate run left on disk.
type storeSizes struct {
	manifest, snapshotMean int64
}

func (e *env) counts() layerCounts {
	return layerCounts{e.puts.Load(), e.gets.Load(), e.getRaws.Load(), e.snapshotReqs.Load(), e.steps.Load(), e.reassigned.Load()}
}

// newDir returns a fresh directory path under the run's scratch dir.
func (e *env) newDir(prefix string) string {
	return filepath.Join(e.work, fmt.Sprintf("%s-%d", prefix, e.dirs.Add(1)))
}

func (e *env) noteEngine(st engine.Stats, days int) {
	if !e.tr.on.Load() {
		return
	}
	e.mu.Lock()
	e.stats = append(e.stats, engineRun{st, days})
	e.mu.Unlock()
}

// noteStore records the manifest size and mean snapshot size of the
// store at dir, when tracing.
func (e *env) noteStore(dir string) error {
	if !e.tr.on.Load() {
		return nil
	}
	var sz storeSizes
	var n, total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if d.Name() == "manifest.json" {
			sz.manifest = info.Size()
		} else if strings.HasSuffix(d.Name(), ".csv.gz") {
			n++
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n > 0 {
		sz.snapshotMean = total / n
	}
	e.mu.Lock()
	e.stores = append(e.stores, sz)
	e.mu.Unlock()
	return nil
}

func (e *env) addRegistry(m *serve.Metrics) {
	e.mu.Lock()
	e.registry = append(e.registry, m)
	e.mu.Unlock()
}

func (e *env) shedTotal() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, m := range e.registry {
		n += m.ShedCount()
	}
	return n
}

// runWorkload sets the workload up as many times as the set-up rule
// above asks (setup_s is the median), prepares the last instance, then
// runs ops in a closed loop until cfg.seconds have passed. In trace
// mode one more, traced, set-up follows, and the preparation and every
// other op are traced.
func runWorkload(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	tr := newTracer()
	e := &env{cfg: cfg, tr: tr, net: newTransport(tr), work: work}

	var inst instance
	var setups []float64
	var tracedSetup, total float64
	for i := 0; ; i++ {
		more := i < minSetups || (total < setupBudget.Seconds() && i < maxSetups)
		traced := cfg.trace && !more
		if !more && !traced {
			break
		}
		if inst != nil {
			// Release the previous set-up before the next, so set-ups do
			// not stack in peak_rss_mb.
			inst.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		tr.on.Store(traced)
		root := tr.beginOp("bench.setup")
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		inst, err = wl.setup(withSpan(ctx, root.ref()), e)
		d := time.Since(start).Seconds()
		root.end()
		tr.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		if traced {
			tracedSetup = d
			break
		}
		setups = append(setups, d)
		total += d
	}
	defer inst.close()
	tr.on.Store(cfg.trace)
	root := tr.beginOp("bench.prepare")
	err = inst.prepare(withSpan(ctx, root.ref()))
	root.end()
	tr.on.Store(false)
	if err != nil {
		return nil, fmt.Errorf("%s prepare: %w", cfg.workload, err)
	}

	var ops []opRecord
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; ; i++ {
		if !time.Now().Before(deadline) && (!cfg.trace || i >= 2) {
			break
		}
		ops = append(ops, e.runOp(ctx, inst, cfg.trace && i%2 == 1))
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, op := range ops {
		res.Attempted++
		if op.err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(log, "perfbench: %s op failed: %v\n", cfg.workload, op.err)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	untraced, traced := splitOps(ops)
	lat, thr := wl.endToEnd(untraced)
	e2e := map[string]float64{
		"setup_s":        median(setups),
		"peak_rss_mb":    rss,
		"latency_p50_ms": lat,
		"items_per_s":    thr,
	}
	if !cfg.trace {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		printSummary(log, cfg, wl, res, ops, e2e, len(setups))
		return res, nil
	}

	tlat, tthr := wl.endToEnd(traced)
	layer, notes := layerMetrics(e, tr.snapshot(), traced)
	layer["trace.overhead.setup_s"] = tracedSetup - median(setups)
	layer["trace.overhead.latency_p50_ms"] = tlat - lat
	layer["items_per_s"] = thr
	layer["trace.overhead.items_per_s"] = tthr - thr
	for _, m := range perLayerMetrics {
		v, ok := layer[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	for _, n := range notes {
		fmt.Fprintln(log, "perfbench: note:", n)
	}
	tracePath := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(tr.snapshot()), tracePath)
	printSummary(log, cfg, wl, res, ops, e2e, len(setups))
	return res, nil
}

// runOp runs and measures one op.
func (e *env) runOp(ctx context.Context, inst instance, traced bool) opRecord {
	e.net.resetOp()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	net0, lc0 := e.net.counts(), e.counts()

	e.tr.on.Store(traced)
	root := e.tr.beginOp("bench.op")
	var run opRun
	err := inst.op(withSpan(ctx, root.ref()), &run)
	root.end()
	e.tr.on.Store(false)

	rec := opRecord{
		traced: traced,
		err:    err,
		run:    run,
		net:    e.net.counts().sub(net0),
		layer:  e.counts().sub(lc0),
		cpu:    cpuTime() - cpu0,
	}
	runtime.ReadMemStats(&ms1)
	rec.gcs = ms1.NumGC - ms0.NumGC
	rec.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return rec
}

// splitOps separates the measured ops by tracing, dropping failed ones.
func splitOps(ops []opRecord) (untraced, traced []opRecord) {
	for _, op := range ops {
		switch {
		case op.err != nil:
		case op.traced:
			traced = append(traced, op)
		default:
			untraced = append(untraced, op)
		}
	}
	return untraced, traced
}

// opLatency is the median op time in ms, and the median-based rate of
// items per second.
func opLatency(ops []opRecord) (latencyMs, perSecond float64) {
	var durs []float64
	items := 0
	for _, op := range ops {
		durs = append(durs, op.run.timed.Seconds())
		items = op.run.items
	}
	med := median(durs)
	if med == 0 {
		return 0, 0
	}
	return med * 1e3, float64(items) / med
}

// itemLatency is the median per-item latency in ms, and items
// completed per second of measured time.
func itemLatency(ops []opRecord) (latencyMs, perSecond float64) {
	var samples []float64
	var secs float64
	items := 0
	for _, op := range ops {
		samples = append(samples, op.run.samples...)
		secs += op.run.timed.Seconds()
		items += op.run.items
	}
	if secs == 0 {
		return 0, 0
	}
	return median(samples), float64(items) / secs
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// printSummary writes a human-readable report to log: every metric by
// the name the workload's definition uses, with its unit, and the
// sample counts behind the medians.
func printSummary(log io.Writer, cfg config, wl *workload, res *result, ops []opRecord, e2e map[string]float64, setups int) {
	untraced, traced := splitOps(ops)
	samples := 0
	for _, op := range untraced {
		samples += len(op.run.samples)
	}
	fmt.Fprintf(log, "perfbench: workload %s seed %d: %d ops attempted (%d traced), %d failed, correct=%v\n",
		cfg.workload, cfg.seed, res.Attempted, len(traced), res.Failed, res.Correct)
	fmt.Fprintf(log, "  %-22s %12.4f s    (median of %d set-ups)\n", "setup_s", e2e["setup_s"], setups)
	fmt.Fprintf(log, "  %-22s %12.4f MB\n", "peak_rss_mb", e2e["peak_rss_mb"])
	fmt.Fprintf(log, "  %-22s %12.4f %-4s (%s, n=%d ops, %d samples)\n", wl.latencyName, e2e["latency_p50_ms"], "ms", "latency_p50_ms", len(untraced), samples)
	fmt.Fprintf(log, "  %-22s %12.4f %-4s (%s)\n", wl.throughputName, e2e["items_per_s"], "1/s", "items_per_s, per-layer")
	var durs []string
	for _, op := range untraced {
		durs = append(durs, fmt.Sprintf("%.3f/%.3f", op.run.timed.Seconds(), op.cpu.Seconds()))
	}
	fmt.Fprintf(log, "  untraced op seconds, wall/cpu: %s\n", strings.Join(durs, " "))
	if cfg.trace {
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(log, "  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
}
