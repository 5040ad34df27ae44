package toplists

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/toplist"
)

// smallScale is the reduced scale shared by the facade's tests: big
// enough for every provider to publish, small enough to simulate twice
// in a test run.
func smallScale() Scale {
	scale := TestScale()
	scale.Population.Days = 10
	scale.BurnInDays = 15
	return scale
}

// TestStreamCancellationStopsWithinOneDay pins the cancellation
// contract: after ctx is cancelled during day N, no snapshot for any
// day after N+1 is delivered and the stream returns ctx.Err() — for
// the serial reference path and the concurrent engine alike.
func TestStreamCancellationStopsWithinOneDay(t *testing.T) {
	const cancelDay = 3
	for _, workers := range []int{1, 0} {
		scale := smallScale()
		scale.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		var lastDay toplist.Day
		err := Stream(ctx, SinkFunc(func(provider string, day toplist.Day, l *toplist.List) error {
			if day > lastDay {
				lastDay = day
			}
			if day == cancelDay {
				cancel()
			}
			return nil
		}), WithScale(scale))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if lastDay > cancelDay+1 {
			t.Fatalf("workers=%d: snapshots delivered through day %d after cancelling at day %d",
				workers, lastDay, cancelDay)
		}
	}
}

// TestSimulateTeesToDurableArchive: WithArchiveDir persists the run as
// it generates, and the reopened store is bitwise identical to the
// in-memory archive, including Complete/Missing via the manifest.
func TestSimulateTeesToDurableArchive(t *testing.T) {
	scale := smallScale()
	dir := filepath.Join(t.TempDir(), "joint")
	study, err := Simulate(context.Background(), WithScale(scale), WithArchiveDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Complete() {
		t.Fatalf("reopened archive incomplete: %d missing", len(src.Missing()))
	}
	if src.Scale() != scale.Name {
		t.Fatalf("manifest scale %q, want %q", src.Scale(), scale.Name)
	}
	if !reflect.DeepEqual(src.Expected(), []string{Alexa, Umbrella, Majestic}) {
		t.Fatalf("manifest expected providers %v", src.Expected())
	}
	if !reflect.DeepEqual(src.Providers(), study.Archive.Providers()) {
		t.Fatalf("providers %v vs %v", src.Providers(), study.Archive.Providers())
	}
	for _, p := range study.Archive.Providers() {
		toplist.EachDay(study.Archive, func(d toplist.Day) {
			want := study.Archive.Get(p, d).Names()
			got := src.Get(p, d)
			if got == nil || !reflect.DeepEqual(want, got.Names()) {
				t.Fatalf("%s %v: persisted snapshot differs", p, d)
			}
		})
	}
}

// TestResumeFromDiskIsByteIdenticalWithoutResimulation is the
// acceptance scenario: simulate once persisting to disk, reopen the
// archive, run an experiment through WithSource, and get byte-
// identical output to the in-memory run — with the engine provably
// never invoked on the resumed path.
func TestResumeFromDiskIsByteIdenticalWithoutResimulation(t *testing.T) {
	scale := smallScale()
	dir := filepath.Join(t.TempDir(), "joint")
	ctx := context.Background()

	// Simulate once, teeing to disk, and render the reference result.
	memLab := NewLab(WithScale(scale), WithArchiveDir(dir))
	memRes, err := memLab.Run(ctx, "table5")
	if err != nil {
		t.Fatal(err)
	}

	// Reopen and rerun from disk: the engine must not run again.
	src, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	runsBefore := engine.RunCount()
	diskLab := NewLab(WithScale(scale), WithSource(src))
	diskRes, err := diskLab.Run(ctx, "table5")
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.RunCount(); got != runsBefore {
		t.Fatalf("engine invoked %d times on the resumed path", got-runsBefore)
	}
	if memRes.Render() != diskRes.Render() {
		t.Fatalf("resumed output differs:\n--- in-memory ---\n%s\n--- from disk ---\n%s",
			memRes.Render(), diskRes.Render())
	}

	// The study built from the source serves the source itself.
	st, err := diskLab.Study()
	if err != nil {
		t.Fatal(err)
	}
	if st.Archive != Source(src) {
		t.Fatal("study from WithSource does not serve the given source")
	}

	// Simulate(WithSource) is the study-only variant of the same path.
	runsBefore = engine.RunCount()
	st2, err := Simulate(ctx, WithScale(scale), WithSource(src))
	if err != nil {
		t.Fatal(err)
	}
	if engine.RunCount() != runsBefore {
		t.Fatal("Simulate(WithSource) invoked the engine")
	}
	if st2.Archive.Get(Alexa, 0) == nil {
		t.Fatal("study from source serves no snapshots")
	}
}

// TestOptionValidation covers the option conflicts and the deferred
// Lab construction error.
func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	scale := smallScale()
	src, err := CreateArchive(filepath.Join(t.TempDir(), "a"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(ctx, WithScale(scale), WithSource(src), WithArchiveDir(t.TempDir())); err == nil {
		t.Fatal("WithSource + WithArchiveDir should fail")
	}
	if err := Stream(ctx, SinkFunc(func(string, toplist.Day, *toplist.List) error { return nil }),
		WithScale(scale), WithSource(src)); err == nil {
		t.Fatal("Stream from a source should fail")
	}
	// Archive days not matching the scale's window fails RunFrom.
	if _, err := Simulate(ctx, WithScale(scale), WithSource(src)); err == nil {
		t.Fatal("mismatched source window should fail")
	}
	// A cancelled context fails Lab.Run before any simulation.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	lab := NewLab(WithScale(scale))
	if _, err := lab.Run(cancelled, "table1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lab run: err = %v", err)
	}
	// A Lab built from conflicting options surfaces the real
	// configuration error at first use, not a downstream symptom.
	bad := NewLab(WithScale(scale), WithSource(src), WithArchiveDir(t.TempDir()))
	if _, err := bad.Study(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("conflicting lab options surfaced %v", err)
	}
}
