// Archive: simulate the ecosystem once while persisting every snapshot
// to a durable on-disk archive, then reread that one archive three
// ways and rerun an experiment against each — no resimulation, and
// byte-identical output every time:
//
//   - from disk (toplists.OpenArchive): the paper's own workflow, where
//     the JOINT dataset is collected once and re-read by every
//     analysis;
//   - over the versioned archive wire API (toplists.ArchiveHandler,
//     toplists.OpenRemote): one archive host serving many analysis
//     consumers;
//   - packed into one file (toplists.WritePack) behind a plain
//     http.FileServer that knows nothing about archives
//     (toplists.OpenPackURL reads it through HTTP Range requests).
//
// Everything reads through toplists.Source, so the analysis code cannot
// tell the backends apart. The program exits non-zero unless table5
// renders byte-identically each way.
//
// Run it with `go run ./examples/archive`.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	toplists "repro"
)

func main() {
	if err := run(context.Background()); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context) error {
	scale := toplists.TestScale()
	scale.Population.Days = 21
	scale.BurnInDays = 30

	work, err := os.MkdirTemp("", "toplists-archive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "joint")

	// Simulate once, teeing every snapshot into the durable store, and
	// render the reference output.
	start := time.Now()
	want, err := toplists.NewLab(toplists.WithScale(scale), toplists.WithArchiveDir(dir)).Run(ctx, "table5")
	if err != nil {
		return err
	}
	fmt.Print(want.Render())
	fmt.Printf("\nsimulated and persisted in %v\n", since(start))

	// Any later process: reopen the archive from disk.
	store, err := toplists.OpenArchive(dir)
	if err != nil {
		return err
	}
	fmt.Printf("reopened archive: scale %q, %d providers x %d days, complete=%v\n",
		store.Scale(), len(store.Providers()), store.Days(), store.Complete())

	// Serve it over the wire API — what `toplistd -archive DIR
	// -serve-archive` does — and open it from the network.
	wire := httptest.NewServer(toplists.ArchiveHandler(store))
	defer wire.Close()
	remote, err := toplists.OpenRemote(ctx, wire.URL)
	if err != nil {
		return err
	}

	// Pack it into one file — what `toplists pack` does — and publish
	// that file on a static file server, which only answers byte
	// ranges; every archive-aware step happens client-side.
	packPath := filepath.Join(work, "joint.pack")
	if err := toplists.WritePack(packPath, store); err != nil {
		return err
	}
	files := httptest.NewServer(http.FileServer(http.Dir(work)))
	defer files.Close()
	packed, err := toplists.OpenPackURL(ctx, files.URL+"/"+filepath.Base(packPath))
	if err != nil {
		return err
	}
	defer packed.Close()

	for _, b := range []struct {
		name string
		src  toplists.Source
	}{
		{"disk", store},
		{"wire API", remote},
		{"pack over HTTP Range", packed},
	} {
		start := time.Now()
		got, err := toplists.NewLab(toplists.WithScale(scale), toplists.WithSource(b.src)).Run(ctx, "table5")
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		if got.Render() != want.Render() {
			return fmt.Errorf("table5 from %s differs from the simulated run", b.name)
		}
		fmt.Printf("%-20s rerun in %v, byte-identical\n", b.name, since(start))
	}
	return nil
}

func since(t time.Time) time.Duration { return time.Since(t).Round(time.Millisecond) }
