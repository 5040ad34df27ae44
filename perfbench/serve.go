package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"repro/internal/archived"
	"repro/internal/listserv"
	"repro/internal/serve"
	"repro/internal/toplist"
)

// server is the serve workload: a generated archive reopened from disk
// and served the way `toplistd -archive DIR -serve-archive` composes
// it; each op is one pass of a fresh Remote client reading every slot
// once, in a seeded random order.
type server struct {
	e     *env
	arch  *toplist.Archive // the generated lists, until prepare digests them
	store *toplist.DiskStore
	slots []slot
	want  map[slot]slotWant
	order *rand.Rand
	http  *listener
	amb   ambient // the archived.Server span a GetRaw runs under
}

// slotWant is what a read of one slot must return.
type slotWant struct {
	hash   string   // persisted content hash of the stored document
	digest [32]byte // names of the list
}

func setupServe(ctx context.Context, e *env) (instance, error) {
	s := scaleFor(e.cfg.seed, e.cfg.sizes.days, e.cfg.sizes.burnIn)
	w, err := buildWorld(ctx, e, s)
	if err != nil {
		return nil, err
	}
	dir := e.newDir("serve")
	arch, _, err := simulate(ctx, e, s, w, dir, nil)
	if err != nil {
		return nil, err
	}
	if err := e.noteStore(dir); err != nil {
		return nil, err
	}
	store, err := toplist.OpenArchive(dir)
	if err != nil {
		return nil, err
	}
	sv := &server{
		e:     e,
		arch:  arch,
		store: store,
		slots: slotsOf(store),
		order: rand.New(rand.NewPCG(e.cfg.seed, 0x5e47e)),
	}

	src := &tracedSource{rawStore: store, tr: e.tr, amb: &sv.amb, layer: "toplist.DiskStore", gets: &e.gets, getRaws: &e.getRaws}
	swap := serve.NewSwappableSource(src)
	mux := http.NewServeMux()
	listserv.NewServerAt(listserv.NewGatekeeper(swap, store.Last()), listserv.WithMux(mux))
	archived.NewServer(swap, archived.WithMux(mux))
	countSnapshots := func(r *http.Request) {
		if strings.HasPrefix(r.URL.Path, toplist.RemoteAPIPrefix+"/snapshots/") {
			e.snapshotReqs.Add(1)
		}
	}
	if sv.http, err = serveChained(e, mux, serve.NewMetrics(), "archived.Server", &sv.amb, countSnapshots); err != nil {
		return nil, err
	}
	return sv, nil
}

func (sv *server) prepare(ctx context.Context) error {
	sv.want = make(map[slot]slotWant)
	for _, sl := range sv.slots {
		h := sv.store.RawHash(sl.provider, sl.day)
		if h == "" {
			return fmt.Errorf("%s %v: no persisted hash", sl.provider, sl.day)
		}
		sv.want[sl] = slotWant{h, listDigest(sv.arch.Get(sl.provider, sl.day), false)}
	}
	sv.arch = nil
	return sv.op(ctx, &opRun{})
}

func (sv *server) op(ctx context.Context, run *opRun) error {
	tr := sv.e.tr
	parent := spanFrom(ctx)
	order := make([]slot, len(sv.slots))
	copy(order, sv.slots)
	sv.order.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	gzipped := sv.e.net.gzipped.Load()

	start := time.Now()
	sp := tr.begin(parent, "toplist.OpenRemote")
	remote, err := toplist.OpenRemote(withSpan(ctx, sp.ref()), sv.http.url,
		toplist.WithRemoteHTTPClient(sv.e.net.client(30*time.Second)))
	sp.end()
	run.timed = time.Since(start)
	if err != nil {
		return err
	}
	traced := tr.on.Load()
	for _, sl := range order {
		var l *toplist.List
		t0 := time.Now()
		if traced {
			// The untraced op's GetContext, split in two calls over the
			// same cache entry: the fetch, then the decode.
			fsp := tr.begin(parent, "toplist.Remote.GetRawContext")
			_, err = remote.GetRawContext(withSpan(ctx, fsp.ref()), sl.provider, sl.day)
			fsp.end()
			if err == nil {
				dsp := tr.begin(parent, "toplist.Remote.GetContext")
				l, err = remote.GetContext(ctx, sl.provider, sl.day)
				dsp.end()
			}
		} else {
			l, err = remote.GetContext(ctx, sl.provider, sl.day)
		}
		d := time.Since(t0)
		run.timed += d
		if err != nil {
			return fmt.Errorf("read %s %v: %w", sl.provider, sl.day, err)
		}
		run.samples = append(run.samples, float64(d)/1e6)
		run.items++
		if err := sv.check(ctx, remote, sl, l); err != nil {
			return err
		}
	}
	if n := sv.e.net.gzipped.Load() - gzipped; n != int64(len(order)) {
		return fmt.Errorf("%d of %d snapshot responses left the raw gzip path", int64(len(order))-n, len(order))
	}
	return nil
}

// check verifies one read: the fetched bytes hash to the manifest's
// slot hash, the ETag names that hash, and the list decodes to the
// generated one. The raw bytes come from the client's cache (no
// request).
func (sv *server) check(ctx context.Context, remote *toplist.Remote, sl slot, l *toplist.List) error {
	want := sv.want[sl]
	raw, err := remote.GetRawContext(ctx, sl.provider, sl.day)
	if err != nil || raw == nil {
		return fmt.Errorf("%s %v: no raw bytes cached after read (%v)", sl.provider, sl.day, err)
	}
	if raw.Hash != want.hash || toplist.ContentHash(raw.Data) != want.hash {
		return fmt.Errorf("%s %v: served bytes do not match the persisted hash", sl.provider, sl.day)
	}
	if listDigest(l, false) != want.digest {
		return fmt.Errorf("%s %v: decoded list differs from the generated one", sl.provider, sl.day)
	}
	return nil
}

func (sv *server) close() { sv.http.close() }
