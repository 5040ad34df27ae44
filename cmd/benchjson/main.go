// Command benchjson converts `go test -bench` text output on stdin
// into a machine-readable JSON document on stdout — the format of the
// BENCH_engine.json perf-trajectory artifact CI uploads per run — and
// compares two such artifacts for regressions.
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkEngine$' . | go run ./cmd/benchjson > BENCH_engine.json
//	go run ./cmd/benchjson -diff [-max-regress 0.30] old.json new.json
//
// In convert mode, every benchmark result line becomes one entry
// preserving input order; the ns/op figure plus any custom metrics
// (days/sec, req/sec, B/op, allocs/op) are parsed into numeric fields,
// so a trajectory of artifacts diffs cleanly.
//
// In -diff mode the two artifacts are joined on benchmark name with
// GOMAXPROCS and worker-count suffixes stripped (so "serial-2" on a
// 2-core runner matches "serial-4" on a 4-core one). A benchmark with
// several entries on one side (a -count run, or one command run
// several times into the same input) is read as the per-metric median
// over its entries; a single entry is its own median. Then days/sec,
// req/sec, B/op, and allocs/op are compared, and the exit status is
// nonzero if any metric regressed by more than -max-regress (a
// fraction; default 0.30, generous enough to absorb shared-runner
// noise). Improvements never fail the diff.
//
// -rename from=to (with -diff) renames the new artifact's benchmark
// `from` to `to` before joining, dropping any entry already named
// `to`. That turns the diff into a same-run A/B gate: comparing an
// artifact against itself with "wrapped-variant=baseline" pins the
// wrapped variant's overhead against the baseline measured in the same
// run, immune to cross-machine noise. Names are matched after suffix
// normalisation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line and the package it ran in.
type result struct {
	Name       string             `json:"name"`
	Package    string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// document is the artifact root.
type document struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []result `json:"results"`
}

func main() {
	diffMode := flag.Bool("diff", false, "compare two benchmark artifacts instead of converting")
	maxRegress := flag.Float64("max-regress", 0.30, "fractional regression tolerated per metric in -diff mode")
	rename := flag.String("rename", "", "from=to: rename a benchmark in the new artifact before joining (-diff mode)")
	metric := flag.String("metric", "", "compare only this metric, e.g. req/sec (-diff mode; default all)")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two artifact paths")
			os.Exit(2)
		}
		old, err := loadDoc(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		cur, err := loadDoc(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if *rename != "" {
			from, to, ok := strings.Cut(*rename, "=")
			if !ok || from == "" || to == "" {
				fmt.Fprintln(os.Stderr, "benchjson: -rename wants from=to")
				os.Exit(2)
			}
			if !renameResults(cur, from, to) {
				fmt.Fprintf(os.Stderr, "benchjson: -rename: no benchmark %q in new artifact\n", from)
				os.Exit(2)
			}
		}
		regressions := diff(os.Stdout, old, cur, *maxRegress, *metric)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d metric(s) regressed beyond %.0f%%\n", regressions, *maxRegress*100)
			os.Exit(1)
		}
		return
	}

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadDoc reads a previously written artifact.
func loadDoc(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// procSuffix strips trailing "-N" worker/GOMAXPROCS decorations, so
// artifacts from runners with different core counts join on the same
// logical benchmark ("BenchmarkEngine/pipelined-2-2" → ".../pipelined").
var procSuffix = regexp.MustCompile(`(-\d+)+$`)

func normalize(name string) string {
	return procSuffix.ReplaceAllString(name, "")
}

// renameResults renames benchmarks matching from (normalised) to `to`
// in doc, dropping entries already carrying the target name so the
// renamed ones join cleanly. Reports whether anything matched.
func renameResults(doc *document, from, to string) bool {
	kept := doc.Results[:0]
	renamed := false
	for _, r := range doc.Results {
		switch normalize(r.Name) {
		case to:
			continue // displaced by the renamed entry
		case from:
			r.Name = to
			renamed = true
		}
		kept = append(kept, r)
	}
	doc.Results = kept
	return renamed
}

// diffMetric describes one compared metric: its key in the Metrics map
// and whether larger values are better.
var diffMetrics = []struct {
	key          string
	higherBetter bool
}{
	{"days/sec", true},
	{"req/sec", true},
	{"B/op", false},
	{"allocs/op", false},
}

// medians joins doc's entries on normalised name. It returns the names
// in first-seen order and, per name, each metric's median over the
// entries that report it.
func medians(doc *document) ([]string, map[string]map[string]float64) {
	var order []string
	samples := make(map[string]map[string][]float64)
	for _, r := range doc.Results {
		key := normalize(r.Name)
		m, ok := samples[key]
		if !ok {
			m = make(map[string][]float64)
			samples[key] = m
			order = append(order, key)
		}
		for k, v := range r.Metrics {
			m[k] = append(m[k], v)
		}
	}
	out := make(map[string]map[string]float64, len(samples))
	for key, m := range samples {
		med := make(map[string]float64, len(m))
		for k, vs := range m {
			sort.Float64s(vs)
			n := len(vs)
			med[k] = (vs[(n-1)/2] + vs[n/2]) / 2
		}
		out[key] = med
	}
	return order, out
}

// diff compares the common benchmarks of two artifacts and returns the
// number of metrics regressed beyond maxRegress. Benchmarks or metrics
// present on only one side are reported but never fail the diff — a
// renamed variant should not brick CI. A non-empty only restricts the
// comparison to that one metric (the -metric flag): an A/B gate like
// the middleware-overhead check cares about req/sec alone, where the
// variants legitimately differ on allocation behavior.
func diff(w io.Writer, old, cur *document, maxRegress float64, only string) int {
	oldOrder, oldMed := medians(old)
	newOrder, newMed := medians(cur)
	regressions := 0
	for _, key := range oldOrder {
		n, ok := newMed[key]
		if !ok {
			fmt.Fprintf(w, "%-40s only in old artifact, skipped\n", key)
			continue
		}
		for _, m := range diffMetrics {
			if only != "" && m.key != only {
				continue
			}
			ov, oOK := oldMed[key][m.key]
			nv, nOK := n[m.key]
			if oOK != nOK {
				// A metric present on only one side means the gate no
				// longer covers it — say so instead of silently
				// disarming (a dropped ReportAllocs would otherwise
				// uncheck B/op and allocs/op with CI staying green).
				side := "new"
				if nOK {
					side = "old"
				}
				fmt.Fprintf(w, "%-40s %-10s missing from %s artifact, skipped\n", key, m.key, side)
				continue
			}
			if !oOK || ov == 0 {
				continue
			}
			ratio := nv / ov
			change := ratio - 1
			bad := false
			if m.higherBetter {
				bad = ratio < 1-maxRegress
			} else {
				bad = ratio > 1+maxRegress
			}
			status := "ok"
			if bad {
				status = "REGRESSED"
				regressions++
			}
			fmt.Fprintf(w, "%-40s %-10s %14.1f -> %14.1f  (%+6.1f%%)  %s\n",
				key, m.key, ov, nv, change*100, status)
		}
	}
	for _, key := range newOrder {
		if _, ok := oldMed[key]; !ok {
			fmt.Fprintf(w, "%-40s only in new artifact, skipped\n", key)
		}
	}
	return regressions
}

// parse reads `go test -bench` output. A run over several packages
// prints a pkg: line before each package's results; every result
// records the latest one.
func parse(sc *bufio.Scanner) (*document, error) {
	doc := &document{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseResult(line)
			if ok {
				r.Package = pkg
				doc.Results = append(doc.Results, r)
			}
		}
	}
	return doc, sc.Err()
}

// parseResult parses one result line of the form
//
//	BenchmarkName-8   12   93111 ns/op   42.1 days/sec   16 B/op   3 allocs/op
func parseResult(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		if fields[i+1] == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
