package toplists

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// TestPackedAnalysisIsByteIdenticalToDiskStore is the packed-archive
// acceptance scenario: simulate once persisting to disk, pack the
// archive into one file, and run the same analysis against three read
// paths — the DiskStore, the pack opened from the local file, and the
// pack served by a plain static file server and opened over HTTP
// Range requests. All three rendered outputs must be byte-identical
// and the engine must never run on any read path: a packed file
// behind any dumb byte server is a full archive backend.
func TestPackedAnalysisIsByteIdenticalToDiskStore(t *testing.T) {
	scale := smallScale()
	dir := filepath.Join(t.TempDir(), "joint")
	packPath := filepath.Join(t.TempDir(), "joint.pack")
	ctx := context.Background()

	// Simulate once, teeing to disk, then pack the result.
	simLab := NewLab(WithScale(scale), WithArchiveDir(dir))
	if _, err := simLab.Run(ctx, "table5"); err != nil {
		t.Fatal(err)
	}
	store, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePack(packPath, store); err != nil {
		t.Fatal(err)
	}

	runsBefore := engine.RunCount()

	// Read path 1: the DiskStore directly.
	diskLab := NewLab(WithScale(scale), WithSource(store))
	diskRes, err := diskLab.Run(ctx, "table5")
	if err != nil {
		t.Fatal(err)
	}

	// Read path 2: the packed file from local disk.
	local, err := OpenPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if local.Scale() != store.Scale() {
		t.Fatalf("pack scale %q, store scale %q", local.Scale(), store.Scale())
	}
	localRes, err := NewLab(WithScale(scale), WithSource(local)).Run(ctx, "table5")
	if err != nil {
		t.Fatal(err)
	}

	// Read path 3: the same file behind a plain static file server —
	// http.FileServer knows nothing about archives, it just answers
	// the pack reader's real Range requests.
	ts := httptest.NewServer(http.FileServer(http.Dir(filepath.Dir(packPath))))
	defer ts.Close()
	remote, err := OpenPackURL(ctx, ts.URL+"/joint.pack")
	if err != nil {
		t.Fatal(err)
	}
	remoteRes, err := NewLab(WithScale(scale), WithSource(remote)).Run(ctx, "table5")
	if err != nil {
		t.Fatal(err)
	}

	if got := engine.RunCount(); got != runsBefore {
		t.Fatalf("engine invoked %d times on the read paths", got-runsBefore)
	}
	if diskRes.Render() != localRes.Render() {
		t.Fatalf("packed (local) output differs:\n--- from disk ---\n%s\n--- from pack ---\n%s",
			diskRes.Render(), localRes.Render())
	}
	if diskRes.Render() != remoteRes.Render() {
		t.Fatalf("packed (HTTP Range) output differs:\n--- from disk ---\n%s\n--- over HTTP ---\n%s",
			diskRes.Render(), remoteRes.Render())
	}
}

// TestIDAnalysesAreByteIdenticalAcrossBackends renders every experiment
// that reads the analyses' ID columns from three Labs over one
// archive: the in-memory one, whose lists carry world IDs, and a
// DiskStore and a pack, whose lists are names only. Every render must
// be byte-identical across the three.
func TestIDAnalysesAreByteIdenticalAcrossBackends(t *testing.T) {
	scale := smallScale()
	dir := filepath.Join(t.TempDir(), "joint")
	packPath := filepath.Join(t.TempDir(), "joint.pack")
	ctx := context.Background()

	mem := NewLab(WithScale(scale), WithArchiveDir(dir))
	if _, err := mem.Study(); err != nil {
		t.Fatal(err)
	}
	store, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePack(packPath, store); err != nil {
		t.Fatal(err)
	}
	packed, err := OpenPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	backends := []struct {
		name string
		lab  *Lab
	}{
		{"disk", NewLab(WithScale(scale), WithSource(store))},
		{"pack", NewLab(WithScale(scale), WithSource(packed))},
	}

	ids := []string{"table2", "table3", "fig1a", "fig1b", "fig1c", "fig2a", "fig2b",
		"fig2c", "fig3a", "fig3b", "fig3c", "fig4", "similarity"}
	for _, id := range ids {
		want, err := mem.Run(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			got, err := b.lab.Run(ctx, id)
			if err != nil {
				t.Fatalf("%s from %s: %v", id, b.name, err)
			}
			if got.Render() != want.Render() {
				t.Errorf("%s renders differently from %s:\n--- in memory ---\n%s\n--- %s ---\n%s",
					id, b.name, want.Render(), b.name, got.Render())
			}
		}
	}
}
