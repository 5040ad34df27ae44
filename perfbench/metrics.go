package main

import (
	"context"
	"fmt"
	"sort"
)

// workload is one benchmark workload.
type workload struct {
	setup func(ctx context.Context, e *env) (instance, error)
	// endToEnd turns the measured ops into latency_p50_ms and
	// items_per_s.
	endToEnd func(ops []opRecord) (latencyMs, perSecond float64)
	// latencyName and throughputName are what latency_p50_ms and
	// items_per_s measure on this workload.
	latencyName, throughputName string
}

var workloads = map[string]*workload{
	"generate":        {setupGenerate(0), opLatency, "run_p50_ms", "days_per_s"},
	"generate-shard2": {setupGenerate(2), opLatency, "run_p50_ms", "days_per_s"},
	"serve":           {setupServe, itemLatency, "read_p50_ms", "snapshots_per_s"},
	"analyze":         {setupAnalyze, opLatency, "analysis_p50_ms", "artifacts_per_s"},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported with tracing off, by every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
}

// perLayerMetrics are reported by the traced run, by every workload; a
// layer a workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"items_per_s", "1/s"},
	{"population.build_ms", "ms"},
	{"providers.new_generator_ms", "ms"},
	{"engine.step_ms_per_day", "ms"},
	{"engine.rank_ms_per_day", "ms"},
	{"engine.step_workers", "count"},
	{"engine.rank_workers", "count"},
	{"engine.run_self_ms", "ms"},
	{"toplist.put_ms_p50", "ms"},
	{"toplist.put_ms_p99", "ms"},
	{"toplist.put_busy_share", "ratio"},
	{"toplist.manifest_bytes", "bytes"},
	{"toplist.snapshot_bytes", "bytes"},
	{"shard.stepday_ms_p50", "ms"},
	{"shard.worker_ms_p50", "ms"},
	{"shard.wire_bytes_per_day", "bytes"},
	{"shard.requests_per_day", "count"},
	{"shard.reassigned", "count"},
	{"toplist.open_ms", "ms"},
	{"toplist.fetch_ms_p50", "ms"},
	{"toplist.fetch_ms_p99", "ms"},
	{"toplist.decode_ms_p50", "ms"},
	{"toplist.read_ms_p90", "ms"},
	{"toplist.read_ms_p99", "ms"},
	{"serve.chain_ms_p50", "ms"},
	{"serve.chain_ms_p99", "ms"},
	{"serve.middleware_ms_p50", "ms"},
	{"archived.handler_ms_p50", "ms"},
	{"archived.blob_hit_ratio", "ratio"},
	{"toplist.getraw_ms_p50", "ms"},
	{"serve.shed_total", "count"},
	{"pack.open_ms", "ms"},
	{"pack.get_calls", "count"},
	{"pack.get_ms_total", "ms"},
	{"pack.range_requests_per_op", "count"},
	{"pack.bytes_fetched_per_op", "bytes"},
	{"experiments.study_ms", "ms"},
	{"experiments.run_ms.table2", "ms"},
	{"experiments.run_ms.fig1a", "ms"},
	{"experiments.run_ms.fig1b", "ms"},
	{"experiments.run_ms.fig3a", "ms"},
	{"experiments.run_ms.fig4", "ms"},
	{"experiments.run_ms.table5", "ms"},
	{"http.requests_per_op", "count"},
	{"http.bytes_per_op", "bytes"},
	{"http.dials_per_op", "count"},
	{"http.retries_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"process.cpu_s_per_op", "s"},
	{"trace.overhead.setup_s", "s"},
	{"trace.overhead.latency_p50_ms", "ms"},
	{"trace.overhead.items_per_s", "1/s"},
}

// layerMetrics computes every per-layer metric except the tracing
// overhead from the recorded spans, the traced ops, and what the run
// noted. Notes explain values that read 0 because a percentile was
// refused.
func layerMetrics(e *env, spans []span, traced []opRecord) (map[string]float64, []string) {
	m := map[string]float64{}
	var notes []string
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	ms := func(name string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, s.ms())
		}
		return out
	}
	tail := func(key string, xs []float64, q float64) {
		if len(xs) == 0 {
			m[key] = 0
			return
		}
		v, err := percentile(xs, q)
		if err != nil {
			notes = append(notes, fmt.Sprintf("%s reads 0: %v", key, err))
		}
		m[key] = v
	}
	self := selfTime(spans)
	selfMs := func(name string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(self[s.ID])/1e6)
		}
		return out
	}

	m["population.build_ms"] = median(ms("population.Build"))
	m["providers.new_generator_ms"] = median(ms("providers.NewGenerator"))

	var step, rank, sw, rw []float64
	for _, r := range e.stats {
		step = append(step, float64(r.stats.StepTime)/1e6/float64(r.days))
		rank = append(rank, float64(r.stats.RankTime)/1e6/float64(r.days))
		sw = append(sw, float64(r.stats.StepWorkers))
		rw = append(rw, float64(r.stats.RankWorkers))
	}
	m["engine.step_ms_per_day"] = median(step)
	m["engine.rank_ms_per_day"] = median(rank)
	m["engine.step_workers"] = median(sw)
	m["engine.rank_workers"] = median(rw)
	m["engine.run_self_ms"] = median(selfMs("engine.Run"))

	puts := ms("toplist.DiskStore.Put")
	m["toplist.put_ms_p50"] = median(puts)
	tail("toplist.put_ms_p99", puts, 0.99)
	// Busy share: the time Put ran, over the engine run it ran under.
	putBusy := map[uint64]float64{}
	for _, s := range byName["toplist.DiskStore.Put"] {
		putBusy[s.Parent] += s.ms()
	}
	var shares []float64
	for _, s := range byName["engine.Run"] {
		if busy, ok := putBusy[s.ID]; ok && s.ms() > 0 {
			shares = append(shares, busy/s.ms())
		}
	}
	m["toplist.put_busy_share"] = median(shares)
	var man, snap []float64
	for _, st := range e.stores {
		man = append(man, float64(st.manifest))
		snap = append(snap, float64(st.snapshotMean))
	}
	m["toplist.manifest_bytes"] = median(man)
	m["toplist.snapshot_bytes"] = median(snap)

	m["shard.stepday_ms_p50"] = median(ms("shard.Coordinator.StepDay"))
	m["shard.worker_ms_p50"] = median(ms("shard.Worker"))
	var wire, reqs, reassigned []float64
	for _, op := range traced {
		if op.layer.steps == 0 {
			continue
		}
		days := float64(op.layer.steps)
		wire = append(wire, float64(op.net.bytes)/days)
		reqs = append(reqs, float64(op.net.requests)/days)
		reassigned = append(reassigned, float64(op.layer.reassigned))
	}
	m["shard.wire_bytes_per_day"] = mean(wire)
	m["shard.requests_per_day"] = mean(reqs)
	m["shard.reassigned"] = sum(reassigned)

	m["toplist.open_ms"] = median(ms("toplist.OpenRemote"))
	fetch := ms("toplist.Remote.GetRawContext")
	m["toplist.fetch_ms_p50"] = median(fetch)
	tail("toplist.fetch_ms_p99", fetch, 0.99)
	m["toplist.decode_ms_p50"] = median(ms("toplist.Remote.GetContext"))
	var reads []float64
	for _, op := range traced {
		reads = append(reads, op.run.samples...)
	}
	tail("toplist.read_ms_p90", reads, 0.90)
	tail("toplist.read_ms_p99", reads, 0.99)

	chain := ms("serve.chain")
	m["serve.chain_ms_p50"] = median(chain)
	tail("serve.chain_ms_p99", chain, 0.99)
	m["serve.middleware_ms_p50"] = median(selfMs("serve.chain"))
	m["archived.handler_ms_p50"] = median(ms("archived.Server"))
	var snapReqs, getRaws int64
	for _, op := range traced {
		snapReqs += op.layer.snapshotReqs
		getRaws += op.layer.getRaws
	}
	if snapReqs > 0 {
		m["archived.blob_hit_ratio"] = 1 - float64(getRaws)/float64(snapReqs)
	} else {
		m["archived.blob_hit_ratio"] = 0
	}
	m["toplist.getraw_ms_p50"] = median(ms("toplist.DiskStore.GetRaw"))
	m["serve.shed_total"] = float64(e.shedTotal())

	m["pack.open_ms"] = median(ms("pack.OpenURL"))
	var getCalls, ranged, fetched []float64
	getMs := map[uint64]float64{}
	for _, s := range byName["pack.Get"] {
		getMs[s.Op] += s.ms()
	}
	for _, op := range traced {
		if op.net.ranged == 0 { // not a pack op
			continue
		}
		getCalls = append(getCalls, float64(op.layer.gets))
		ranged = append(ranged, float64(op.net.ranged))
		fetched = append(fetched, float64(op.net.bytes))
	}
	var totals []float64
	for _, v := range getMs {
		totals = append(totals, v)
	}
	m["pack.get_calls"] = mean(getCalls)
	m["pack.get_ms_total"] = mean(totals)
	m["pack.range_requests_per_op"] = mean(ranged)
	m["pack.bytes_fetched_per_op"] = mean(fetched)

	m["experiments.study_ms"] = median(ms("experiments.Lab.Study"))
	for _, id := range analyzeIDs {
		m["experiments.run_ms."+id] = median(ms("experiments.Lab.Run." + id))
	}

	var hreq, hbytes, dials, retries, gcs, pause, cpu []float64
	for _, op := range traced {
		hreq = append(hreq, float64(op.net.requests))
		hbytes = append(hbytes, float64(op.net.bytes))
		dials = append(dials, float64(op.net.dials))
		retries = append(retries, float64(op.net.retries))
		gcs = append(gcs, float64(op.gcs))
		pause = append(pause, float64(op.gcPause)/1e6)
		cpu = append(cpu, op.cpu.Seconds())
	}
	m["http.requests_per_op"] = mean(hreq)
	m["http.bytes_per_op"] = mean(hbytes)
	m["http.dials_per_op"] = mean(dials)
	m["http.retries_per_op"] = mean(retries)
	m["runtime.gc_cycles_per_op"] = mean(gcs)
	m["runtime.gc_pause_ms_per_op"] = mean(pause)
	m["process.cpu_s_per_op"] = mean(cpu)
	return m, notes
}
