package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	toplists "repro"
	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/toplist"
)

// analyzeIDs are the artifacts one analyze op renders, in order.
var analyzeIDs = []string{"table2", "fig1a", "fig1b", "fig3a", "fig4", "table5"}

// analyzer is the analyze workload: a TestScale archive packed into one
// file and served by a bare http.FileServer; each op opens the pack
// over HTTP Range requests and renders analyzeIDs from it.
type analyzer struct {
	e     *env
	scale core.Scale
	url   string
	store *toplist.DiskStore // the archive the pack was written from
	want  map[string]string  // rendered from store
	http  *listener
	amb   ambient // the experiment span a pack Get runs under
}

func setupAnalyze(ctx context.Context, e *env) (instance, error) {
	s := scaleFor(e.cfg.seed, e.cfg.sizes.analyzeDays, core.TestScale().BurnInDays)
	w, err := buildWorld(ctx, e, s)
	if err != nil {
		return nil, err
	}
	dir := e.newDir("analyze")
	_, store, err := simulate(ctx, e, s, w, dir, nil)
	if err != nil {
		return nil, err
	}
	if err := e.noteStore(dir); err != nil {
		return nil, err
	}
	packDir := e.newDir("pack")
	if err := os.MkdirAll(packDir, 0o755); err != nil {
		return nil, err
	}
	sp := e.tr.begin(spanFrom(ctx), "pack.Write")
	err = pack.Write(filepath.Join(packDir, "archive.pack"), store)
	sp.end()
	if err != nil {
		return nil, err
	}
	a := &analyzer{e: e, scale: s, store: store}
	files := spanHandler(e.tr, "http.FileServer", http.FileServer(http.Dir(packDir)), nil, nil)
	if a.http, err = listen(files); err != nil {
		return nil, err
	}
	a.url = a.http.url + "/archive.pack"
	return a, nil
}

func (a *analyzer) prepare(ctx context.Context) error {
	a.want = make(map[string]string)
	lab := toplists.NewLab(toplists.WithScale(a.scale), toplists.WithSource(a.store))
	for _, id := range analyzeIDs {
		res, err := lab.Run(ctx, id)
		if err != nil {
			return fmt.Errorf("reference %s: %w", id, err)
		}
		a.want[id] = res.Render()
	}
	return a.op(ctx, &opRun{})
}

func (a *analyzer) op(ctx context.Context, run *opRun) error {
	tr := a.e.tr
	parent := spanFrom(ctx)
	start := time.Now()
	sp := tr.begin(parent, "pack.OpenURL")
	// The pack issues every later range read under this context, so
	// those requests join the op's root span.
	p, err := pack.OpenURL(ctx, a.url, pack.WithHTTPClient(a.e.net.client(30*time.Second)))
	sp.end()
	if err != nil {
		return err
	}
	defer p.Close()
	src := &tracedSource{rawStore: p, tr: tr, amb: &a.amb, layer: "pack", gets: &a.e.gets, getRaws: &a.e.getRaws}
	lab := toplists.NewLab(toplists.WithScale(a.scale), toplists.WithSource(src))
	if tr.on.Load() {
		// Untraced, the first Run materialises the study; traced, it is
		// materialised first so the rebuild gets its own span.
		ssp := tr.begin(parent, "experiments.Lab.Study")
		a.amb.set(ssp.ref())
		_, err := lab.Study()
		ssp.end()
		if err != nil {
			return err
		}
	}
	for _, id := range analyzeIDs {
		rsp := tr.begin(parent, "experiments.Lab.Run."+id)
		a.amb.set(rsp.ref())
		res, err := lab.Run(ctx, id)
		var out string
		if err == nil {
			out = res.Render()
		}
		rsp.end()
		if err != nil {
			return err
		}
		if out != a.want[id] {
			return fmt.Errorf("%s renders differently from the local DiskStore", id)
		}
		run.items++
	}
	run.timed = time.Since(start)
	return nil
}

func (a *analyzer) close() { a.http.close() }
