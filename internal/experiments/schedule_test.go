package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/toplist"
)

// TestScheduleLongestJobFirst: with no observations, the static cost
// classes put the grid-heavy drivers at the front of the queue and
// keep the cheap unranked majority in deterministic ID order.
func TestScheduleLongestJobFirst(t *testing.T) {
	e := NewEnv(core.TestScale())
	ids := IDs()
	q := schedule(e, ids)
	if len(q) != len(ids) {
		t.Fatalf("queue has %d ids, want %d", len(q), len(ids))
	}
	if q[0] != "fig5" || q[1] != "ttl" {
		t.Fatalf("queue head %v, want fig5 then ttl (the dominating grids)", q[:4])
	}
	pos := make(map[string]int, len(q))
	for i, id := range q {
		pos[id] = i
	}
	for _, heavy := range []string{"manipulation", "ablation-horizon", "ablation-volume", "table5"} {
		if pos[heavy] > pos["table1"] {
			t.Fatalf("%s scheduled after the trivial survey table: %v", heavy, q)
		}
	}
	// The unranked tail stays ID-sorted (stable, deterministic).
	var tail []string
	for _, id := range q {
		if costClass[id] == 0 {
			tail = append(tail, id)
		}
	}
	for i := 1; i < len(tail); i++ {
		if tail[i-1] > tail[i] {
			t.Fatalf("unranked tail not ID-ordered: %v", tail)
		}
	}
}

// TestScheduleUsesObservedElapsed: wall times recorded on the Env
// override the static classes on the next round, while never-observed
// heavy jobs keep their generous static estimate.
func TestScheduleUsesObservedElapsed(t *testing.T) {
	e := NewEnv(core.TestScale())
	e.noteElapsed("table1", 500*time.Second) // observed pathological
	e.noteElapsed("fig5", 10*time.Millisecond)
	q := schedule(e, IDs())
	pos := make(map[string]int, len(q))
	for i, id := range q {
		pos[id] = i
	}
	if pos["table1"] != 0 {
		t.Fatalf("observed-slow table1 at position %d: %v", pos["table1"], q)
	}
	if pos["fig5"] < pos["ttl"] {
		t.Fatalf("observed-fast fig5 still ahead of unobserved ttl: %v", q)
	}
	// Partial information must not demote the critical path: one cheap
	// observation cannot push the never-observed grids behind it.
	e2 := NewEnv(core.TestScale())
	e2.noteElapsed("table5", 3*time.Millisecond)
	q2 := schedule(e2, IDs())
	pos2 := make(map[string]int, len(q2))
	for i, id := range q2 {
		pos2[id] = i
	}
	if pos2["fig5"] > pos2["table5"] || pos2["ttl"] > pos2["table5"] {
		t.Fatalf("observed-cheap table5 outranks unobserved grids: %v", q2)
	}
}

// TestRunAllRespectsCancelledContext: a cancelled context fails fast
// without materialising the study.
func TestRunAllRespectsCancelledContext(t *testing.T) {
	e := NewEnv(core.TestScale())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAll(ctx, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := RunAllWorkers(ctx, e, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
}

// TestRunRecordsElapsed: every Run stamps a wall time onto the result
// and the Env remembers it for scheduling.
func TestRunRecordsElapsed(t *testing.T) {
	e := env(t)
	res, err := Run(context.Background(), e, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Run did not record elapsed wall time")
	}
	if e.observedElapsed("table1") != res.Elapsed {
		t.Fatal("Env did not retain the observed elapsed time")
	}
}

// TestStudyRetriesAfterCancelledMaterialisation: a materialisation
// aborted by a context deadline is not cached as the Env's permanent
// error — a later call with a live context succeeds.
func TestStudyRetriesAfterCancelledMaterialisation(t *testing.T) {
	scale := core.TestScale()
	scale.Population.Days = 10
	scale.BurnInDays = 15
	e := NewEnv(scale)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, e, "table2"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run: err = %v, want DeadlineExceeded", err)
	}
	res, err := Run(context.Background(), e, "table2")
	if err != nil {
		t.Fatalf("retry after cancelled materialisation failed: %v", err)
	}
	if res.ID != "table2" {
		t.Fatalf("retry ran %q", res.ID)
	}
}

// TestSourceEnvLeavesManifestUntouched: running an experiment over a
// reopened archive only reads it. manifest.json keeps its bytes and
// its mtime, so a concurrent writer's update is never overwritten and
// a server polling the file sees no change. The manifest carries the
// timings_us field older builds wrote, which must still open.
func TestSourceEnvLeavesManifestUntouched(t *testing.T) {
	scale := core.TestScale()
	scale.Population.Days = 10
	scale.BurnInDays = 15
	dir := t.TempDir()
	store, err := toplist.CreateDiskStore(dir, 0, toplist.Day(scale.Population.Days-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunContext(context.Background(), scale, store); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["timings_us"] = map[string]int64{"table1": 500_000_000, "fig5": 10_000}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	reopened, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), NewEnvFrom(scale, reopened), "table2"); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, raw) {
		t.Fatalf("manifest rewritten by a read-only run:\nbefore %s\nafter  %s", raw, after)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ModTime().Equal(before.ModTime()) {
		t.Fatalf("manifest mtime moved: %v -> %v", before.ModTime(), st.ModTime())
	}
}
