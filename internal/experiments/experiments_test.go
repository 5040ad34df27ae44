package experiments

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/toplist"
)

var (
	sharedEnv  *Env
	sharedOnce sync.Once
)

func env(t *testing.T) *Env {
	t.Helper()
	sharedOnce.Do(func() {
		sharedEnv = NewEnv(core.TestScale())
	})
	return sharedEnv
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2c",
		"fig3a", "fig3b", "fig3c", "fig4", "fig5",
		"fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig8",
		"ttl", "ablation-volume", "aggregation", "similarity",
		"hygiene", "manipulation", "ablation-horizon",
	}
	ids := IDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Fatalf("experiment %q has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run(context.Background(), env(t), "nope"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

// TestAllExperimentsRun executes every registered experiment at test
// scale and sanity-checks the rendered output.
func TestAllExperimentsRun(t *testing.T) {
	e := env(t)
	for _, id := range IDs() {
		res, err := Run(context.Background(), e, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id {
			t.Fatalf("%s: result id %q", id, res.ID)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
		if len(res.Header) == 0 {
			t.Fatalf("%s: no header", id)
		}
		out := res.Render()
		if !strings.Contains(out, id) {
			t.Fatalf("%s: render missing id", id)
		}
		if strings.Count(out, "\n") < 3 {
			t.Fatalf("%s: render too short:\n%s", id, out)
		}
	}
}

func TestRunAllOrder(t *testing.T) {
	// RunAll re-uses the shared env's study; results come back in ID
	// order.
	e := env(t)
	results, err := RunAll(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(results) != len(ids) {
		t.Fatalf("results %d", len(results))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Fatalf("order: %s at %d, want %s", r.ID, i, ids[i])
		}
	}

	// The pooled run must agree with a strictly serial run, driver by
	// driver: same IDs in the same order, same rendered artifacts.
	serial, err := RunAllWorkers(context.Background(), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(results) {
		t.Fatalf("serial run returned %d results, pooled %d", len(serial), len(results))
	}
	for i := range serial {
		if serial[i].ID != results[i].ID {
			t.Fatalf("order diverges at %d: %s vs %s", i, serial[i].ID, results[i].ID)
		}
		if serial[i].Render() != results[i].Render() {
			t.Fatalf("%s: pooled and serial renders differ", serial[i].ID)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	r := &Result{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "longcolumn"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  []string{"a note"},
	}
	out := r.Render()
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "== x: demo ==") {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatal("note missing")
	}
	// Separator present.
	if !strings.Contains(out, "------") {
		t.Fatal("separator missing")
	}
}

func TestEnvStudyMemoised(t *testing.T) {
	e := env(t)
	s1, err := e.Study()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := e.Study()
	if s1 != s2 {
		t.Fatal("study rebuilt")
	}
}

// nameOnlySource copies the shared study's archive with the IDs
// stripped, as a DiskStore, pack or Remote decodes it.
func nameOnlySource(t *testing.T) toplist.Source {
	t.Helper()
	st, err := env(t).Study()
	if err != nil {
		t.Fatal(err)
	}
	arch := toplist.NewArchive(st.Archive.First(), st.Archive.Last())
	for _, p := range st.Archive.Providers() {
		toplist.EachDay(st.Archive, func(d toplist.Day) {
			if l := st.Archive.Get(p, d); l != nil {
				if err := arch.Put(p, d, toplist.New(l.Names())); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	return arch
}

// TestFanOutDriversRenderAlike: the drivers that fan their calls out
// over GOMAXPROCS, and the ones sharing their columns, render the same
// bytes on one core and on four, each from a fresh study over a
// name-only source.
func TestFanOutDriversRenderAlike(t *testing.T) {
	src := nameOnlySource(t)
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	render := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		e := NewEnvFrom(core.TestScale(), src)
		var b strings.Builder
		for _, id := range []string{"table2", "fig1a", "fig1b", "fig3a", "fig4", "table5"} {
			res, err := Run(context.Background(), e, id)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(res.Render())
		}
		return b.String()
	}
	if one, four := render(1), render(4); one != four {
		t.Fatalf("renders differ between GOMAXPROCS 1 and 4:\n%s\n---\n%s", one, four)
	}
}
