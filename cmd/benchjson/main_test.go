package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestNormalizeStripsProcSuffixes(t *testing.T) {
	cases := map[string]string{
		"BenchmarkEngine/serial-2":        "BenchmarkEngine/serial",
		"BenchmarkEngine/barriered-2-2":   "BenchmarkEngine/barriered",
		"BenchmarkEngine/pipelined-16-16": "BenchmarkEngine/pipelined",
		"BenchmarkEngine/pipelined":       "BenchmarkEngine/pipelined",
		"BenchmarkTable1-8":               "BenchmarkTable1",
	}
	for in, want := range cases {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func mkDoc(days, bop, allocs float64) *document {
	return &document{Results: []result{{
		Name:       "BenchmarkEngine/pipelined-2-2",
		Iterations: 3,
		NsPerOp:    1e8,
		Metrics:    map[string]float64{"days/sec": days, "B/op": bop, "allocs/op": allocs},
	}}}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	old := mkDoc(160, 15e6, 1800)
	// 20% slower, 20% more bytes: inside a 30% gate.
	cur := mkDoc(128, 18e6, 1900)
	cur.Results[0].Name = "BenchmarkEngine/pipelined-4-4" // different runner class
	var sb strings.Builder
	if n := diff(&sb, old, cur, 0.30, ""); n != 0 {
		t.Fatalf("diff flagged %d regressions within threshold:\n%s", n, sb.String())
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	old := mkDoc(160, 15e6, 1800)
	cur := mkDoc(100, 25e6, 6000) // all three metrics past 30%
	var sb strings.Builder
	if n := diff(&sb, old, cur, 0.30, ""); n != 3 {
		t.Fatalf("diff flagged %d regressions, want 3:\n%s", n, sb.String())
	}
}

func TestDiffImprovementsNeverFail(t *testing.T) {
	old := mkDoc(160, 15e6, 1800)
	cur := mkDoc(400, 4e6, 300) // large improvements everywhere
	var sb strings.Builder
	if n := diff(&sb, old, cur, 0.30, ""); n != 0 {
		t.Fatalf("diff flagged %d improvements as regressions:\n%s", n, sb.String())
	}
}

func TestDiffSkipsMissingBenchmarks(t *testing.T) {
	old := mkDoc(160, 15e6, 1800)
	cur := &document{Results: []result{{Name: "BenchmarkEngine/renamed-2", Metrics: map[string]float64{"days/sec": 1}}}}
	var sb strings.Builder
	if n := diff(&sb, old, cur, 0.30, ""); n != 0 {
		t.Fatalf("missing counterpart must skip, not fail: %d", n)
	}
	if !strings.Contains(sb.String(), "only in old artifact") {
		t.Fatalf("old-only skip not reported:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "only in new artifact") {
		t.Fatalf("new-only entry not reported:\n%s", sb.String())
	}
}

// TestDiffComparesMedians: repeated entries of one benchmark are read
// as their per-metric median, so one outlier run among three does not
// decide the gate, as it would if the last entry stood for all three.
func TestDiffComparesMedians(t *testing.T) {
	old := mkDoc(160, 15e6, 1800)
	cur := mkDoc(158, 15e6, 1800)
	cur.Results = append(cur.Results, mkDoc(162, 15e6, 1800).Results...)
	cur.Results = append(cur.Results, mkDoc(90, 15e6, 1800).Results...) // one noisy run
	var sb strings.Builder
	if n := diff(&sb, old, cur, 0.15, ""); n != 0 {
		t.Fatalf("one outlier among three entries flagged %d regressions:\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "160.0 ->          158.0") {
		t.Fatalf("diff did not compare the median of the new entries:\n%s", sb.String())
	}

	// Two slow runs of three are a regression.
	cur.Results[1].Metrics["days/sec"] = 95
	sb.Reset()
	if n := diff(&sb, old, cur, 0.15, "days/sec"); n != 1 {
		t.Fatalf("median of two slow runs passed (%d):\n%s", n, sb.String())
	}
}

func TestParseRoundTrip(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkEngine/serial-2   3   199026480 ns/op   170.8 days/sec   15452277 B/op   1095 allocs/op
PASS
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("parsed %d results", len(doc.Results))
	}
	r := doc.Results[0]
	if r.NsPerOp != 199026480 || r.Metrics["days/sec"] != 170.8 || r.Metrics["allocs/op"] != 1095 {
		t.Fatalf("bad parse: %+v", r)
	}
	if doc.CPU == "" || doc.GOOS != "linux" {
		t.Fatalf("header lost: %+v", doc)
	}

	// A run over two packages prints a pkg: line before each package's
	// results; each result's artifact entry names its own.
	text = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Intel(R) Xeon(R) Processor
BenchmarkRunFrom-2   20   43423870 ns/op   12838680 B/op   56126 allocs/op
PASS
ok  	repro/internal/core	2.1s
goos: linux
goarch: amd64
pkg: repro/internal/population
cpu: Intel(R) Xeon(R) Processor
BenchmarkBuildWorld-2   20   39014068 ns/op   9863092 B/op   41960 allocs/op
PASS
`
	doc, err = parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Results []struct {
			Name string `json:"name"`
			Pkg  string `json:"pkg"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BenchmarkRunFrom-2":    "repro/internal/core",
		"BenchmarkBuildWorld-2": "repro/internal/population",
	}
	if len(art.Results) != len(want) {
		t.Fatalf("parsed %d results, want %d", len(art.Results), len(want))
	}
	for _, r := range art.Results {
		if r.Pkg != want[r.Name] {
			t.Errorf("%s: pkg %q, want %q", r.Name, r.Pkg, want[r.Name])
		}
	}
}

func TestDiffReportsMissingMetrics(t *testing.T) {
	old := mkDoc(160, 15e6, 1800)
	cur := mkDoc(160, 0, 0)
	delete(cur.Results[0].Metrics, "B/op")
	delete(cur.Results[0].Metrics, "allocs/op")
	var sb strings.Builder
	if n := diff(&sb, old, cur, 0.30, ""); n != 0 {
		t.Fatalf("missing metrics must skip, not fail: %d\n%s", n, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "B/op") || !strings.Contains(out, "missing from new artifact") {
		t.Fatalf("missing-metric not reported:\n%s", out)
	}
}

// TestRenameResults: -rename turns the diff into a same-run A/B gate —
// the wrapped variant takes the baseline's name (displacing the
// baseline entry in the new artifact) and is compared against the
// baseline measured in the old artifact.
func TestRenameResults(t *testing.T) {
	mk := func(hot, wrapped float64) *document {
		return &document{Results: []result{
			{Name: "BenchmarkServe/raw/hot-4", Metrics: map[string]float64{"req/sec": hot}},
			{Name: "BenchmarkServe/raw/middleware-4", Metrics: map[string]float64{"req/sec": wrapped}},
		}}
	}

	cur := mk(1000, 970) // 3% overhead
	if !renameResults(cur, "BenchmarkServe/raw/middleware", "BenchmarkServe/raw/hot") {
		t.Fatal("rename matched nothing")
	}
	if len(cur.Results) != 1 || normalize(cur.Results[0].Name) != "BenchmarkServe/raw/hot" {
		t.Fatalf("rename left %+v", cur.Results)
	}
	if cur.Results[0].Metrics["req/sec"] != 970 {
		t.Fatal("rename kept the displaced baseline instead of the wrapped variant")
	}
	var sb strings.Builder
	if n := diff(&sb, mk(1000, 970), cur, 0.05, "req/sec"); n != 0 {
		t.Fatalf("3%% overhead flagged at a 5%% gate:\n%s", sb.String())
	}

	// 8% overhead fails the same gate.
	cur = mk(1000, 920)
	renameResults(cur, "BenchmarkServe/raw/middleware", "BenchmarkServe/raw/hot")
	sb.Reset()
	if n := diff(&sb, mk(1000, 920), cur, 0.05, "req/sec"); n != 1 {
		t.Fatalf("8%% overhead passed a 5%% gate (%d):\n%s", n, sb.String())
	}

	// Unknown source name reports failure.
	if renameResults(mk(1, 1), "BenchmarkServe/nope", "BenchmarkServe/raw/hot") {
		t.Fatal("rename of a missing benchmark reported success")
	}
}
