package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/pack"
	"repro/internal/toplist"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		refuse bool
	}{
		{1000, 0.99, 990, false}, // exactly ten beyond
		{999, 0.99, 0, true},     // nine beyond
		{100, 0.90, 90, false},
		{99, 0.90, 0, true},
		{0, 0.99, 0, true},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.refuse {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want refusal", tc.q*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeUsesUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "engine.Run", Start: 0, End: 100},
		// Put and StepDay children overlap; the last runs past the parent.
		{Op: 1, ID: 2, Parent: 1, Name: "toplist.DiskStore.Put", Start: 10, End: 40},
		{Op: 1, ID: 3, Parent: 1, Name: "shard.Coordinator.StepDay", Start: 30, End: 60},
		{Op: 1, ID: 4, Parent: 1, Name: "toplist.DiskStore.Put", Start: 80, End: 120},
		// A grandchild covers only its own parent.
		{Op: 1, ID: 5, Parent: 3, Name: "http.client", Start: 35, End: 50},
	}
	self := selfTime(spans)
	for id, want := range map[uint64]int64{1: 100 - (50 + 20), 2: 30, 3: 30 - 15, 4: 40, 5: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := unionLen([][2]int64{{5, 10}, {0, 3}, {2, 4}, {10, 12}}); got != 4+7 {
		t.Errorf("unionLen = %d, want 11", got)
	}
}

func TestTransportCountsKnownExchange(t *testing.T) {
	body := strings.Repeat("x", 1000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.Header.Get("Range") != "" {
			w.Header().Set("Content-Encoding", "gzip")
		}
		io.WriteString(w, body)
	}))
	defer srv.Close()
	tp := newTransport(nil)
	c := tp.client(10 * time.Second)
	get := func(rng string) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/a", nil)
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		req.Header.Set("Accept-Encoding", "gzip") // keep the transport from decoding
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("")
	get("")          // a retry: same method, URL, and range
	get("bytes=0-9") // a different range is not
	resp, err := c.Post(srv.URL+"/b", "application/octet-stream", bytes.NewReader(make([]byte, 250)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	want := netCounts{requests: 4, ranged: 1, bytes: 4*1000 + 250, dials: 1, retries: 1, gzipped: 1}
	if got := tp.counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	tp.resetOp()
	get("")
	if got := tp.counts().retries; got != 1 {
		t.Errorf("retries after resetOp = %d, want 1", got)
	}
}

// The optional interfaces the program type-asserts on the values the
// wrappers replace: archived and serve.SwappableSource on a served
// source, pack.Write on a packed one, experiments on a lab's source,
// and the engine on a sink.
type (
	slotLister interface {
		Has(string, toplist.Day) bool
	}
	scaler      interface{ Scale() string }
	expecter    interface{ Expected() []string }
	timingStore interface {
		RecordTiming(string, time.Duration) error
		Timings() map[string]time.Duration
	}
)

func optionalInterfaces(v any) map[string]bool {
	_, raw := v.(toplist.RawSource)
	_, has := v.(slotLister)
	_, sc := v.(scaler)
	_, ex := v.(expecter)
	_, ts := v.(timingStore)
	_, ds := v.(engine.DaySink)
	return map[string]bool{"RawSource": raw, "Has": has, "Scale": sc, "Expected": ex, "timingStore": ts, "DaySink": ds}
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	dir := t.TempDir()
	store, err := toplist.CreateDiskStore(filepath.Join(dir, "a"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("alexa", 0, toplist.New([]string{"a.com", "b.com"})); err != nil {
		t.Fatal(err)
	}
	packPath := filepath.Join(dir, "a.pack")
	if err := pack.Write(packPath, store); err != nil {
		t.Fatal(err)
	}
	p, err := pack.OpenFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var n atomic.Int64
	for _, tc := range []struct {
		name             string
		wrapped, wrapper any
		// asserted lists the interfaces the program checks on this
		// path. A DiskStore is served, never handed to a lab, so its
		// timing store is not on the path its wrapper sits on.
		asserted []string
	}{
		{"served DiskStore", store, &tracedSource{rawStore: store, gets: &n, getRaws: &n},
			[]string{"RawSource", "Has", "Scale", "Expected", "DaySink"}},
		{"lab's Pack", p, &tracedSource{rawStore: p, gets: &n, getRaws: &n},
			[]string{"RawSource", "Has", "Scale", "Expected", "timingStore", "DaySink"}},
		{"engine's DiskStore sink", store, &timedSink{next: store, puts: &n},
			[]string{"DaySink"}},
	} {
		want, got := optionalInterfaces(tc.wrapped), optionalInterfaces(tc.wrapper)
		for _, iface := range tc.asserted {
			if want[iface] != got[iface] {
				t.Errorf("%s: wrapped implements %s = %v, wrapper = %v", tc.name, iface, want[iface], got[iface])
			}
		}
	}
}

// smallSizes keep the end-to-end tests quick; every workload still
// runs its whole path.
var smallSizes = sizes{days: 8, burnIn: 4, analyzeDays: 14}

// TestTracedOpsDoTheSameWork sets every workload up small and checks
// that a traced op does exactly the work of an untraced one — the same
// requests, Puts, source reads and remote steps — and that tracing
// records spans at every layer boundary the workload crosses.
func TestTracedOpsDoTheSameWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	layers := map[string][]string{
		"generate":        {"providers.NewGenerator", "engine.Run", "toplist.DiskStore.Put"},
		"generate-shard2": {"shard.Coordinator.StepDay", "http.client", "serve.chain", "shard.Worker", "toplist.DiskStore.Put"},
		// The small archive fits the server's blob cache, so after the
		// warm-up no read reaches DiskStore.GetRaw; the raw fast path
		// test below covers that span.
		"serve":   {"toplist.OpenRemote", "toplist.Remote.GetRawContext", "toplist.Remote.GetContext", "http.client", "serve.chain", "archived.Server"},
		"analyze": {"pack.OpenURL", "http.client", "http.FileServer", "experiments.Lab.Study", "experiments.Lab.Run.table5", "pack.Get"},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			tr := newTracer()
			e := &env{
				cfg: config{workload: name, seed: 7, sizes: smallSizes},
				tr:  tr, net: newTransport(tr), work: t.TempDir(),
			}
			inst, err := workloads[name].setup(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if err := inst.prepare(ctx); err != nil {
				t.Fatal(err)
			}
			plain := e.runOp(ctx, inst, false)
			traced := e.runOp(ctx, inst, true)
			for _, op := range []opRecord{plain, traced} {
				if op.err != nil {
					t.Fatalf("op (traced=%v): %v", op.traced, op.err)
				}
			}
			if plain.net.requests != traced.net.requests || plain.net.ranged != traced.net.ranged || plain.net.gzipped != traced.net.gzipped {
				t.Errorf("requests: untraced %+v, traced %+v", plain.net, traced.net)
			}
			if plain.layer != traced.layer {
				t.Errorf("layer work: untraced %+v, traced %+v", plain.layer, traced.layer)
			}
			seen := map[string]int{}
			for _, s := range tr.snapshot() {
				seen[s.Name]++
			}
			for _, l := range layers[name] {
				if seen[l] == 0 {
					t.Errorf("no %s span in a traced op (spans: %v)", l, seen)
				}
			}
		})
	}
}

// TestTracedServeKeepsRawFastPath checks a traced snapshot response
// directly: stored bytes, gzip-encoded, with the persisted hash as ETag.
func TestTracedServeKeepsRawFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves an archive")
	}
	ctx := context.Background()
	tr := newTracer()
	e := &env{cfg: config{workload: "serve", seed: 7, sizes: smallSizes}, tr: tr, net: newTransport(tr), work: t.TempDir()}
	inst, err := setupServe(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	sv := inst.(*server)
	defer sv.close()
	tr.on.Store(true)
	root := tr.beginOp("bench.op")
	c := e.net.client(10 * time.Second)
	for _, sl := range sv.slots[:3] {
		req, _ := http.NewRequestWithContext(withSpan(ctx, root.ref()), http.MethodGet,
			sv.http.url+toplist.RemoteSnapshotPath(sl.provider, sl.day), nil)
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		hash := sv.store.RawHash(sl.provider, sl.day)
		if got := resp.Header.Get("ETag"); got != `"`+hash+`"` {
			t.Errorf("%v: ETag %s, persisted hash %s", sl, got, hash)
		}
		if resp.Header.Get("Content-Encoding") != "gzip" || toplist.ContentHash(data) != hash {
			t.Errorf("%v: response is not the stored gzip document", sl)
		}
	}
	root.end()
	seen := map[string]int{}
	for _, s := range tr.snapshot() {
		seen[s.Name]++
	}
	// The set-up warmed nothing, so every request missed the blob cache.
	for _, name := range []string{"http.client", "serve.chain", "archived.Server", "toplist.DiskStore.GetRaw"} {
		if seen[name] != 3 {
			t.Errorf("%d %s spans for 3 requests (spans: %v)", seen[name], name, seen)
		}
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json, the
// metrics this program prints, and provenance.json in step: every
// workload the program has is either listed or recorded as dropped.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	var prov struct {
		Gaps struct {
			Dropped []struct{ Workload string }
		}
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &doc, "provenance.json": &prov} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	accounted := map[string]bool{}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the program lacks", w.Name)
		}
		accounted[w.Name] = true
	}
	for _, d := range prov.Gaps.Dropped {
		accounted[d.Workload] = true
	}
	for _, name := range workloadNames() {
		if !accounted[name] {
			t.Errorf("workload %s is neither in BENCHMARK.json nor dropped in provenance.json", name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

func TestBadArgumentsExitWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--trace", "2"},
		{"--workload", "serve", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
