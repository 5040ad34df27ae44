package archived

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/listserv"
	"repro/internal/toplist"
)

// testStore builds a 2-provider x 4-day DiskStore with one gap
// (umbrella day 2) and one corrupt snapshot (alexa day 3, garbage
// bytes written behind the store's back).
func testStore(t *testing.T) *toplist.DiskStore {
	t.Helper()
	dir := t.TempDir()
	ds, err := toplist.CreateDiskStore(dir, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetScale("unit"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"alexa", "umbrella"} {
		for d := toplist.Day(0); d <= 3; d++ {
			if p == "umbrella" && d == 2 {
				continue // gap
			}
			names := []string{
				fmt.Sprintf("%s-top-%d.com", p, d),
				fmt.Sprintf("%s-second-%d.org", p, d),
				"shared.net",
			}
			if err := ds.Put(p, d, toplist.New(names)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Corrupt alexa day 3 on disk; the store still believes it present.
	path := filepath.Join(dir, "alexa", toplist.Day(3).String()+".csv.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Reopen cold so the corrupt bytes are what Get decodes.
	reopened, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	return reopened
}

// countingHandler wraps a handler counting requests per URL path.
type countingHandler struct {
	h http.Handler

	mu   sync.Mutex
	hits map[string]int
}

func newCounting(h http.Handler) *countingHandler {
	return &countingHandler{h: h, hits: make(map[string]int)}
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.hits[r.URL.Path]++
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

func (c *countingHandler) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[path]
}

func serve(t *testing.T, src toplist.Source) (*httptest.Server, *countingHandler) {
	t.Helper()
	ch := newCounting(NewServer(src))
	ts := httptest.NewServer(ch)
	t.Cleanup(ts.Close)
	return ts, ch
}

func csvBytes(t *testing.T, l *toplist.List) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := toplist.WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteSourceEquivalence is the wire round trip: every Source
// observation over OpenRemote — range, providers, snapshot bytes, the
// absent slot, the corrupt slot — matches the DiskStore it serves.
func TestRemoteSourceEquivalence(t *testing.T) {
	ds := testStore(t)
	ts, _ := serve(t, ds)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if remote.First() != ds.First() || remote.Last() != ds.Last() || remote.Days() != ds.Days() {
		t.Fatalf("range mismatch: remote [%v,%v] %d days, store [%v,%v] %d days",
			remote.First(), remote.Last(), remote.Days(), ds.First(), ds.Last(), ds.Days())
	}
	if got, want := remote.Providers(), ds.Providers(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("providers = %v, want %v", got, want)
	}
	if got, want := remote.Scale(), ds.Scale(); got != want {
		t.Fatalf("scale = %q, want %q", got, want)
	}
	for _, p := range ds.Providers() {
		for d := ds.First(); d <= ds.Last(); d++ {
			want := ds.Get(p, d)
			got := remote.Get(p, d)
			switch {
			case want == nil && got == nil:
				// gap or corrupt: both sides agree on nil
			case want == nil || got == nil:
				t.Fatalf("%s day %v: remote %v, store %v", p, d, got != nil, want != nil)
			default:
				if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
					t.Fatalf("%s day %v: snapshot bytes differ over the wire", p, d)
				}
			}
		}
	}
	// The store distinguishes absent from corrupt; the remote's
	// advisory listing stays empty either way. On the raw fast path the
	// server refuses the corrupt slot with a 500 — a final, non-retried
	// error the client reports as nil without ever receiving (let alone
	// decoding) a payload, so the slot is not remote-corrupt; it is
	// simply unreadable over the wire until the server's store repairs.
	if c := ds.Corrupt(); len(c) != 1 || c[0].Provider != "alexa" || c[0].Day != 3 {
		t.Fatalf("store Corrupt() = %v, want [alexa 3]", c)
	}
	if c := remote.Corrupt(); len(c) != 0 {
		t.Fatalf("remote Corrupt() = %v, want none (server refuses its corrupt slot)", c)
	}
	// Unknown provider and out-of-range day are nil without a request.
	if remote.Get("majestic", 0) != nil || remote.Get("alexa", 99) != nil {
		t.Fatal("unknown provider / out-of-range day not nil")
	}
}

// TestRemoteMemoizesAbsentAndCaches: repeated Gets of the same present
// snapshot hit the server once (LRU cache), and repeated Gets of an
// absent snapshot also hit it once (memoized nil) — the DiskStore
// decode-once contract over HTTP.
func TestRemoteMemoizesAbsentAndCaches(t *testing.T) {
	ds := testStore(t)
	ts, ch := serve(t, ds)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	presentPath := toplist.RemoteSnapshotPath("alexa", 0)
	gapPath := toplist.RemoteSnapshotPath("umbrella", 2)
	for i := 0; i < 3; i++ {
		if remote.Get("alexa", 0) == nil {
			t.Fatal("present snapshot nil")
		}
		if remote.Get("umbrella", 2) != nil {
			t.Fatal("gap snapshot not nil")
		}
	}
	if n := ch.count(presentPath); n != 1 {
		t.Fatalf("present snapshot fetched %d times, want 1", n)
	}
	if n := ch.count(gapPath); n != 1 {
		t.Fatalf("absent snapshot fetched %d times, want 1 (memoized)", n)
	}
}

// TestRemoteCorruptPayloadMemoized: a payload that transfers as 200
// but does not decode is memoized as nil and listed by Corrupt — one
// fetch, not one per call.
func TestRemoteCorruptPayloadMemoized(t *testing.T) {
	ds := testStore(t)
	inner := NewServer(ds)
	corruptPath := toplist.RemoteSnapshotPath("alexa", 1)
	var hits atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == corruptPath {
			hits.Add(1)
			w.Header().Set("Content-Type", "application/gzip")
			w.Write([]byte("definitely not gzip")) //nolint:errcheck
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l, err := remote.GetContext(context.Background(), "alexa", 1)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			t.Fatal("corrupt payload decoded")
		}
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("corrupt payload fetched %d times, want 1 (memoized)", n)
	}
	if c := remote.Corrupt(); len(c) != 1 || c[0].Provider != "alexa" || c[0].Day != 1 {
		t.Fatalf("Corrupt() = %v, want [alexa 1]", c)
	}
	// A healthy slot fetched afterwards is not polluted.
	if remote.Get("alexa", 0) == nil {
		t.Fatal("healthy snapshot nil after corrupt fetch")
	}
}

// TestRemoteGetSingleFlight: concurrent readers of one uncached
// snapshot share a single fetch. Run under -race this also proves the
// entry publication is properly synchronised.
func TestRemoteGetSingleFlight(t *testing.T) {
	ds := testStore(t)
	inner := NewServer(ds)
	path := toplist.RemoteSnapshotPath("alexa", 0)
	var hits atomic.Int32
	gate := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path {
			hits.Add(1)
			<-gate // hold every fetch until all readers queued
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var wg sync.WaitGroup
	results := make([]*toplist.List, readers)
	wg.Add(readers)
	var started sync.WaitGroup
	started.Add(readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			results[i] = remote.Get("alexa", 0)
		}(i)
	}
	started.Wait()
	close(gate)
	wg.Wait()
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d concurrent readers made %d fetches, want 1", readers, n)
	}
	for i, l := range results {
		if l == nil {
			t.Fatalf("reader %d got nil", i)
		}
		if l != results[0] {
			t.Fatalf("reader %d got a different decoded list (no shared cache entry)", i)
		}
	}
}

// TestRemoteCancellationMidFetch: cancelling a GetContext mid-transfer
// returns ctx.Err() promptly and does NOT poison the slot — the next
// reader fetches fresh and succeeds.
func TestRemoteCancellationMidFetch(t *testing.T) {
	ds := testStore(t)
	inner := NewServer(ds)
	path := toplist.RemoteSnapshotPath("alexa", 0)
	var block atomic.Bool
	block.Store(true)
	reached := make(chan struct{}, 8)
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path && block.Load() {
			reached <- struct{}{}
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(func() { close(release); ts.Close() })
	remote, err := toplist.OpenRemote(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := remote.GetContext(ctx, "alexa", 0)
		done <- err
	}()
	<-reached // fetch is in flight
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled fetch returned nil error")
	}
	// The failed fetch must not be memoized: a fresh context succeeds.
	block.Store(false)
	l, err := remote.GetContext(context.Background(), "alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil {
		t.Fatal("snapshot nil after recovered fetch")
	}
}

// joinSpy is a context whose first Done call is observable: a reader
// that found another reader's fetch in flight asks for Done only when
// it starts waiting on that fetch.
type joinSpy struct {
	context.Context
	waiting chan struct{}
	once    sync.Once
}

func (c *joinSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestRemoteJoinerSurvivesCancelledFetch: a reader that joined another
// reader's in-flight fetch does not inherit that reader's cancellation;
// it fetches again under its own context and gets the snapshot.
func TestRemoteJoinerSurvivesCancelledFetch(t *testing.T) {
	ds := testStore(t)
	inner := NewServer(ds)
	path := toplist.RemoteSnapshotPath("alexa", 0)
	var block atomic.Bool
	block.Store(true)
	reached := make(chan struct{}, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path && block.Load() {
			reached <- struct{}{}
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := remote.GetContext(ctx, "alexa", 0)
		first <- err
	}()
	<-reached // the first reader's fetch is in flight
	spy := &joinSpy{Context: context.Background(), waiting: make(chan struct{})}
	joiner := make(chan *toplist.List, 1)
	go func() {
		l, err := remote.GetContext(spy, "alexa", 0)
		if err != nil {
			t.Errorf("joiner inherited the cancelled fetch: %v", err)
		}
		joiner <- l
	}()
	<-spy.waiting // the joiner waits on the first reader's fetch
	block.Store(false)
	cancel()
	if err := <-first; err == nil {
		t.Fatal("cancelled fetch returned nil error")
	}
	if l := <-joiner; l == nil {
		t.Fatal("joiner got no snapshot")
	}
}

// TestRemoteLRUEviction: the decoded-snapshot cache is bounded; the
// least recently used slot is refetched after eviction.
func TestRemoteLRUEviction(t *testing.T) {
	ds := testStore(t)
	ts, ch := serve(t, ds)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL,
		toplist.WithRemoteCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	day0 := toplist.RemoteSnapshotPath("alexa", 0)
	remote.Get("alexa", 0) // cache: {0}
	remote.Get("alexa", 1) // cache: {0,1}
	remote.Get("alexa", 2) // cache: {1,2} — 0 evicted
	if remote.Get("alexa", 0) == nil {
		t.Fatal("evicted snapshot nil on refetch")
	}
	if n := ch.count(day0); n != 2 {
		t.Fatalf("evicted snapshot fetched %d times, want 2", n)
	}
}

// TestRemoteRefreshFollowsGrowth: a Remote following a still-growing
// archive picks up new days and providers via Refresh, and its range
// never shrinks.
func TestRemoteRefreshFollowsGrowth(t *testing.T) {
	dir := t.TempDir()
	ds, err := toplist.CreateDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 0, toplist.New([]string{"a.com"})); err != nil {
		t.Fatal(err)
	}
	ts, _ := serve(t, ds)
	ctx := context.Background()
	remote, err := toplist.OpenRemote(ctx, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Days() != 1 || len(remote.Providers()) != 1 {
		t.Fatalf("initial: %d days, providers %v", remote.Days(), remote.Providers())
	}
	if err := ds.ExtendTo(2); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("umbrella", 1, toplist.New([]string{"u.com"})); err != nil {
		t.Fatal(err)
	}
	if err := remote.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if remote.Last() != 2 || remote.Days() != 3 {
		t.Fatalf("after refresh: last %v, %d days", remote.Last(), remote.Days())
	}
	if got := remote.Providers(); len(got) != 2 || got[1] != "umbrella" {
		t.Fatalf("after refresh: providers %v", got)
	}
	if remote.Get("umbrella", 1) == nil {
		t.Fatal("new provider's snapshot nil after refresh")
	}
	// A slot probed while absent is memoized nil — until a Refresh
	// declares the archive may have changed, after which the server's
	// later fill becomes visible (the client-side analog of Put
	// invalidating a DiskStore's memoized decode failure).
	if remote.Get("alexa", 2) != nil {
		t.Fatal("unfilled day not nil")
	}
	if err := ds.Put("alexa", 2, toplist.New([]string{"a2.com"})); err != nil {
		t.Fatal(err)
	}
	if remote.Get("alexa", 2) != nil {
		t.Fatal("memoized-absent day served without a refresh")
	}
	if err := remote.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if remote.Get("alexa", 2) == nil {
		t.Fatal("filled day still nil after refresh")
	}
}

// TestRemoteRejectsUnknownProtocolVersion mirrors OpenArchive's
// manifest check: a server speaking a different protocol version must
// fail loudly at open, not half-work.
func TestRemoteRejectsUnknownProtocolVersion(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(toplist.RemoteManifest{ //nolint:errcheck
			Version:  99,
			FirstDay: "2017-06-06", LastDay: "2017-06-06", Days: 1,
			Providers: []string{"alexa"},
		})
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	if _, err := toplist.OpenRemote(context.Background(), ts.URL); err == nil {
		t.Fatal("unknown protocol version accepted")
	}
}

// TestListingEndpoints pins the days/providers listings of the wire
// API.
func TestListingEndpoints(t *testing.T) {
	ds := testStore(t)
	ts, _ := serve(t, ds)
	var days []string
	resp, err := http.Get(ts.URL + toplist.RemoteDaysPath())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&days); err != nil {
		t.Fatal(err)
	}
	if len(days) != 4 || days[0] != toplist.Day(0).String() || days[3] != toplist.Day(3).String() {
		t.Fatalf("days listing = %v", days)
	}
	var provs []string
	resp2, err := http.Get(ts.URL + toplist.RemoteProvidersPath())
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&provs); err != nil {
		t.Fatal(err)
	}
	if len(provs) != 2 || provs[0] != "alexa" {
		t.Fatalf("providers listing = %v", provs)
	}
}

// TestGatekeeperViewOverWireAPI: serving a gatekept live collection
// over the wire API honours day-by-day visibility — the manifest and
// the snapshots advance together, and a Remote follows via Refresh.
func TestGatekeeperViewOverWireAPI(t *testing.T) {
	arch := toplist.NewArchive(0, 2)
	for d := toplist.Day(0); d <= 2; d++ {
		if err := arch.Put("alexa", d, toplist.New([]string{fmt.Sprintf("d%d.com", d)})); err != nil {
			t.Fatal(err)
		}
	}
	gk := listserv.NewGatekeeper(arch, 0)
	ts, _ := serve(t, gk.View())
	ctx := context.Background()
	remote, err := toplist.OpenRemote(ctx, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Days() != 1 {
		t.Fatalf("visible days = %d, want 1", remote.Days())
	}
	if remote.Get("alexa", 0) == nil {
		t.Fatal("published day nil")
	}
	if remote.Get("alexa", 1) != nil {
		t.Fatal("unpublished day served")
	}
	gk.Advance(2)
	if err := remote.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if remote.Days() != 3 {
		t.Fatalf("after advance: %d days, want 3", remote.Days())
	}
	if remote.Get("alexa", 2) == nil {
		t.Fatal("newly published day nil after refresh")
	}
	// Day 1 was never fetched while unpublished (it sat outside the
	// manifest's range, so the range check answered nil locally); after
	// Refresh it is in range and serves.
	if remote.Get("alexa", 1) == nil {
		t.Fatal("day inside refreshed range nil")
	}
}

// TestRemoteRetriesTransientFailures: a transient server failure (5xx)
// does not degrade a read into a spurious nil — the fetch retries with
// backoff and succeeds, so an analysis over a remote source survives a
// blip instead of silently treating the day as a gap.
func TestRemoteRetriesTransientFailures(t *testing.T) {
	ds := testStore(t)
	inner := NewServer(ds)
	path := toplist.RemoteSnapshotPath("alexa", 0)
	var hits atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path && hits.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL,
		toplist.WithRemoteBaseBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	l, err := remote.GetContext(context.Background(), "alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil {
		t.Fatal("snapshot nil despite eventual success")
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server hit %d times, want 3 (two transient failures + success)", n)
	}
}

// TestRemoteGivesUpAfterRetryBudget: persistent server failure
// surfaces as an error from GetContext (never memoized — a later call
// against a recovered server succeeds).
func TestRemoteGivesUpAfterRetryBudget(t *testing.T) {
	ds := testStore(t)
	inner := NewServer(ds)
	path := toplist.RemoteSnapshotPath("alexa", 0)
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path && failing.Load() {
			hits.Add(1)
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL,
		toplist.WithRemoteBaseBackoff(time.Millisecond),
		toplist.WithRemoteMaxAttempts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.GetContext(context.Background(), "alexa", 0); err == nil {
		t.Fatal("persistent failure returned nil error")
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server hit %d times, want 2 (retry budget)", n)
	}
	// The failure was not memoized: the recovered server serves.
	failing.Store(false)
	l, err := remote.GetContext(context.Background(), "alexa", 0)
	if err != nil || l == nil {
		t.Fatalf("recovered fetch: list=%v err=%v", l != nil, err)
	}
}

// TestRemoteBodyLengths: a snapshot body that ends short of its
// declared Content-Length is a truncated transfer and is retried, and a
// body sent without a declared length (chunked) is read whole.
func TestRemoteBodyLengths(t *testing.T) {
	ds := testStore(t)
	raw, err := ds.GetRaw("alexa", 0)
	if err != nil || raw == nil {
		t.Fatalf("GetRaw: %v %v", raw, err)
	}
	inner := NewServer(ds)
	path := toplist.RemoteSnapshotPath("alexa", 0)
	var hits atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			inner.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		if hits.Add(1) == 1 {
			w.Header().Set("Content-Length", fmt.Sprint(len(raw.Data)))
			w.Write(raw.Data[:len(raw.Data)/2]) //nolint:errcheck
			return
		}
		w.(http.Flusher).Flush() // headers out before the body: chunked
		w.Write(raw.Data)        //nolint:errcheck
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	remote, err := toplist.OpenRemote(context.Background(), ts.URL,
		toplist.WithRemoteBaseBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	l, err := remote.GetContext(context.Background(), "alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.Get("alexa", 0); l == nil || !slices.Equal(l.Names(), want.Names()) {
		t.Fatalf("read %v, want %v", l, want)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server hit %d times, want 2 (truncated transfer + chunked retry)", n)
	}
}

// serveOpts is serve with server options (raw fast path off, cache
// sizing) for the paired-path tests.
func serveOpts(t *testing.T, src toplist.Source, opts ...Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(src, opts...))
	t.Cleanup(ts.Close)
	return ts
}

// fetchStored GETs a path requesting the stored encoding (what
// toplist.Remote sends), optionally conditional on an ETag, and
// returns the response with its body drained.
func fetchStored(t *testing.T, ts *httptest.Server, path, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// cleanStore builds a small corruption-free archive and returns the
// cold-reopened store plus its directory for on-disk comparisons.
func cleanStore(t *testing.T) (*toplist.DiskStore, string) {
	t.Helper()
	dir := t.TempDir()
	ds, err := toplist.CreateDiskStore(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for d := toplist.Day(0); d <= 1; d++ {
		l := toplist.New([]string{fmt.Sprintf("day%d-a.com", d), fmt.Sprintf("day%d-b.org", d)})
		if err := ds.Put("alexa", d, l); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	return reopened, dir
}

// TestRawAndEncodePathsByteIdentical is the fast-path equivalence
// acceptance check: for the same slot, the raw path and the encode
// fallback produce byte-identical compressed bodies and equal ETags,
// and the raw body is exactly the on-disk file — gzip determinism is
// what makes the paths interchangeable.
func TestRawAndEncodePathsByteIdentical(t *testing.T) {
	ds, dir := cleanStore(t)
	rawTS := serveOpts(t, ds)
	encTS := serveOpts(t, ds, WithoutRawFastPath())
	for d := toplist.Day(0); d <= 1; d++ {
		path := toplist.RemoteSnapshotPath("alexa", d)
		rawResp, rawBody := fetchStored(t, rawTS, path, "")
		encResp, encBody := fetchStored(t, encTS, path, "")
		if rawResp.StatusCode != http.StatusOK || encResp.StatusCode != http.StatusOK {
			t.Fatalf("day %v: status raw %d, encode %d", d, rawResp.StatusCode, encResp.StatusCode)
		}
		for _, r := range []*http.Response{rawResp, encResp} {
			if ce := r.Header.Get("Content-Encoding"); ce != "gzip" {
				t.Fatalf("day %v: Content-Encoding %q, want gzip", d, ce)
			}
		}
		if !bytes.Equal(rawBody, encBody) {
			t.Fatalf("day %v: raw and encode bodies differ (%d vs %d bytes)", d, len(rawBody), len(encBody))
		}
		rawETag, encETag := rawResp.Header.Get("ETag"), encResp.Header.Get("ETag")
		if rawETag == "" || rawETag != encETag {
			t.Fatalf("day %v: ETag raw %q vs encode %q", d, rawETag, encETag)
		}
		disk, err := os.ReadFile(filepath.Join(dir, "alexa", d.String()+".csv.gz"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rawBody, disk) {
			t.Fatalf("day %v: raw body is not the on-disk file", d)
		}
	}
}

// TestConditionalRequests pins If-None-Match handling: a matching ETag
// turns both snapshot paths and the manifest route into an empty 304.
func TestConditionalRequests(t *testing.T) {
	ds, _ := cleanStore(t)
	for name, ts := range map[string]*httptest.Server{
		"raw":    serveOpts(t, ds),
		"encode": serveOpts(t, ds, WithoutRawFastPath()),
	} {
		for _, path := range []string{
			toplist.RemoteSnapshotPath("alexa", 0),
			toplist.RemoteManifestPath(),
		} {
			first, body := fetchStored(t, ts, path, "")
			if first.StatusCode != http.StatusOK || len(body) == 0 {
				t.Fatalf("%s %s: first GET status %d, %d bytes", name, path, first.StatusCode, len(body))
			}
			etag := first.Header.Get("ETag")
			if etag == "" {
				t.Fatalf("%s %s: no ETag", name, path)
			}
			second, body := fetchStored(t, ts, path, etag)
			if second.StatusCode != http.StatusNotModified {
				t.Fatalf("%s %s: conditional GET status %d, want 304", name, path, second.StatusCode)
			}
			if len(body) != 0 {
				t.Fatalf("%s %s: 304 carried %d body bytes", name, path, len(body))
			}
			// A stale validator still gets the full representation.
			third, body := fetchStored(t, ts, path, `"different"`)
			if third.StatusCode != http.StatusOK || len(body) == 0 {
				t.Fatalf("%s %s: mismatched If-None-Match status %d, %d bytes", name, path, third.StatusCode, len(body))
			}
		}
	}
}

// TestETagStableAcrossRestarts: the snapshot ETag comes from the hash
// persisted in the manifest, so a cold store reopen plus a brand-new
// server yields the same validator — clients' cached 304s survive
// server restarts.
func TestETagStableAcrossRestarts(t *testing.T) {
	ds, dir := cleanStore(t)
	path := toplist.RemoteSnapshotPath("alexa", 0)
	first, _ := fetchStored(t, serveOpts(t, ds), path, "")
	etag := first.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on first serve")
	}
	reopened, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := fetchStored(t, serveOpts(t, reopened), path, "")
	if got := second.Header.Get("ETag"); got != etag {
		t.Fatalf("ETag changed across restart: %q -> %q", etag, got)
	}
	// And the restarted server honours a validator minted before it
	// existed.
	cond, _ := fetchStored(t, serveOpts(t, reopened), path, etag)
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("pre-restart ETag got status %d, want 304", cond.StatusCode)
	}
}

// TestRepairBehindWarmBlobCache: a Put that rewrites a slot the
// server has already cached must not leave the old document in
// service. The raw path validates its entry by the persisted hash, the
// encode path by the decoded list's identity; either way the next GET
// returns the new bytes under the new ETag.
func TestRepairBehindWarmBlobCache(t *testing.T) {
	for name, opts := range map[string][]Option{
		"raw":    nil,
		"encode": {WithoutRawFastPath()},
	} {
		t.Run(name, func(t *testing.T) {
			ds, dir := cleanStore(t)
			ts := serveOpts(t, ds, opts...)
			path := toplist.RemoteSnapshotPath("alexa", 0)
			before, oldBody := fetchStored(t, ts, path, "")
			if before.StatusCode != http.StatusOK {
				t.Fatalf("first GET status %d", before.StatusCode)
			}
			if err := ds.Put("alexa", 0, toplist.New([]string{"repaired.com"})); err != nil {
				t.Fatal(err)
			}
			after, newBody := fetchStored(t, ts, path, "")
			if after.StatusCode != http.StatusOK {
				t.Fatalf("GET after repair status %d", after.StatusCode)
			}
			if bytes.Equal(newBody, oldBody) {
				t.Fatal("repaired slot served the cached pre-repair bytes")
			}
			disk, err := os.ReadFile(filepath.Join(dir, "alexa", toplist.Day(0).String()+".csv.gz"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(newBody, disk) {
				t.Fatal("body after repair is not the repaired file")
			}
			if got, want := after.Header.Get("ETag"), `"`+ds.RawHash("alexa", 0)+`"`; got != want || got == before.Header.Get("ETag") {
				t.Fatalf("ETag after repair %s (before %s), want %s", got, before.Header.Get("ETag"), want)
			}
		})
	}
}

// TestCorruptSlotRefusal is the integrity acceptance flow: Verify()
// flags the tampered slot before any reader request, and the raw path
// then refuses it with a 5xx — never a 200 over bytes that fail their
// hash — while the encode fallback (which cannot distinguish corrupt
// from undecodable) keeps its historical 404.
func TestCorruptSlotRefusal(t *testing.T) {
	ds := testStore(t) // alexa day 3 corrupted behind the store's back
	if c := ds.Verify(); len(c) != 1 || c[0].Provider != "alexa" || c[0].Day != 3 {
		t.Fatalf("Verify() = %v, want [alexa 3]", c)
	}
	path := toplist.RemoteSnapshotPath("alexa", 3)
	resp, _ := fetchStored(t, serveOpts(t, ds), path, "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("raw path served corrupt slot with status %d, want 500", resp.StatusCode)
	}
	encResp, _ := fetchStored(t, serveOpts(t, ds, WithoutRawFastPath()), path, "")
	if encResp.StatusCode != http.StatusNotFound {
		t.Fatalf("encode path status %d, want 404", encResp.StatusCode)
	}
	// Healthy slots on the same server still serve.
	ok, _ := fetchStored(t, serveOpts(t, ds), toplist.RemoteSnapshotPath("alexa", 0), "")
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("healthy slot status %d after corrupt refusal", ok.StatusCode)
	}
}

// TestManifestRevalidation pins the replication hook: the manifest
// carries a content fingerprint over every stored slot, so its ETag —
// and therefore Remote.Revalidate's changed verdict — reacts to slot
// fills and repairs inside an unchanged day range, not just to range
// growth. Steady state is a 304 and changed == false.
func TestManifestRevalidation(t *testing.T) {
	ds, _ := cleanStore(t)
	ts, _ := serve(t, ds)
	ctx := context.Background()
	rem, err := toplist.OpenRemote(ctx, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rem.Snapshots() != 2 {
		t.Fatalf("manifest reports %d snapshots, want 2", rem.Snapshots())
	}
	fp := rem.ContentFingerprint()
	if fp == "" {
		t.Fatal("manifest reports no content fingerprint over a DiskStore")
	}

	// Nothing changed: revalidation is a 304 and reports unchanged.
	for i := 0; i < 2; i++ {
		changed, err := rem.Revalidate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatalf("revalidate %d over an unchanged archive reported changed", i)
		}
	}

	// A new provider's slot fills INSIDE the existing day range: first
	// and last days are untouched, yet the manifest must change.
	if err := ds.Put("umbrella", 0, toplist.New([]string{"filled.com"})); err != nil {
		t.Fatal(err)
	}
	changed, err := rem.Revalidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("mid-range slot fill did not change the manifest")
	}
	if rem.Snapshots() != 3 {
		t.Fatalf("manifest reports %d snapshots after fill, want 3", rem.Snapshots())
	}
	fp2 := rem.ContentFingerprint()
	if fp2 == fp {
		t.Fatal("content fingerprint unchanged by a slot fill")
	}

	// A repair that rewrites a slot to different bytes: same count,
	// same range, different fingerprint.
	if err := ds.Put("alexa", 0, toplist.New([]string{"repaired.net"})); err != nil {
		t.Fatal(err)
	}
	if changed, err = rem.Revalidate(ctx); err != nil || !changed {
		t.Fatalf("slot repair: changed=%v err=%v, want true nil", changed, err)
	}
	if rem.Snapshots() != 3 {
		t.Fatalf("manifest reports %d snapshots after repair, want 3", rem.Snapshots())
	}
	if rem.ContentFingerprint() == fp2 {
		t.Fatal("content fingerprint unchanged by a slot repair")
	}

	// And the steady state re-establishes.
	if changed, err = rem.Revalidate(ctx); err != nil || changed {
		t.Fatalf("post-repair steady state: changed=%v err=%v, want false nil", changed, err)
	}
}

// TestCacheControlHeaders pins the caching contract mirrors depend on:
// the manifest must always revalidate (no-cache — a pinned manifest
// would blind a mirror to every change), while snapshot documents are
// immutable-cacheable (their bytes are deterministic and
// content-hash-validated).
func TestCacheControlHeaders(t *testing.T) {
	ds, _ := cleanStore(t)
	ts := serveOpts(t, ds)
	for _, tc := range []struct {
		path string
		want string
	}{
		{toplist.RemoteManifestPath(), "no-cache"},
		{toplist.RemoteDaysPath(), "no-cache"},
		{toplist.RemoteProvidersPath(), "no-cache"},
		{toplist.RemoteSnapshotPath("alexa", 0), "public, max-age=31536000, immutable"},
	} {
		resp, _ := fetchStored(t, ts, tc.path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Cache-Control"); got != tc.want {
			t.Fatalf("%s: Cache-Control %q, want %q", tc.path, got, tc.want)
		}
	}
	// The encode fallback serves the same snapshot caching contract.
	resp, _ := fetchStored(t, serveOpts(t, ds, WithoutRawFastPath()),
		toplist.RemoteSnapshotPath("alexa", 0), "")
	if got := resp.Header.Get("Cache-Control"); got != "public, max-age=31536000, immutable" {
		t.Fatalf("encode path snapshot Cache-Control %q", got)
	}
}
