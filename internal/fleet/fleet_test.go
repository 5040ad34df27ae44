package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archived"
	"repro/internal/httpx"
	"repro/internal/toplist"
)

// seedStore creates an archive at a temp dir with providers × days
// filled snapshots.
func seedStore(t *testing.T, providers []string, days int) *toplist.DiskStore {
	t.Helper()
	ds, err := toplist.CreateDiskStore(t.TempDir(), 0, toplist.Day(days-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetScale("test"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Expect(providers...); err != nil {
		t.Fatal(err)
	}
	for _, p := range providers {
		for d := 0; d < days; d++ {
			l := toplist.New([]string{fmt.Sprintf("%s-day%d.com", p, d), "shared.org"})
			if err := ds.Put(p, toplist.Day(d), l); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// emptyStore creates an empty archive covering [0, days).
func emptyStore(t *testing.T, days int) *toplist.DiskStore {
	t.Helper()
	ds, err := toplist.CreateDiskStore(t.TempDir(), 0, toplist.Day(days-1))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// serveArchive mounts src on a test server speaking the wire API.
func serveArchive(t *testing.T, src toplist.Source) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(archived.NewServer(src))
	t.Cleanup(ts.Close)
	return ts
}

// testPeerSet builds a set with deterministic clock/jitter hooks.
func testPeerSet(t *testing.T, urls ...string) *PeerSet {
	t.Helper()
	ps, err := NewPeerSet(urls, WithPeerBackoff(time.Second, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ps.backoff.Jitter = func() float64 { return 0.5 } // backoff = exactly base<<n
	return ps
}

// fail and ok record one failed and one successful conversation, made
// by a caller whose context is live.
func (p *Peer) fail() { p.Record(context.Background(), errors.New("conversation failed")) }
func (p *Peer) ok()   { p.Record(context.Background(), nil) }

// corruptSlot overwrites one snapshot file on disk with garbage,
// simulating bit rot under a live store.
func corruptSlot(t *testing.T, ds *toplist.DiskStore, provider string, day toplist.Day) {
	t.Helper()
	path := filepath.Join(ds.Dir(), provider, day.String()+".csv.gz")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("rotten bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPeerSetBackoffAndFailover(t *testing.T) {
	ps := testPeerSet(t, "http://a:1/", "http://a:1", "http://b:2")
	if len(ps.Peers()) != 2 {
		t.Fatalf("duplicate URL not collapsed: %d peers", len(ps.Peers()))
	}
	now := time.Unix(1000, 0)
	ps.now = func() time.Time { return now }

	a, b := ps.peers[0], ps.peers[1]
	if a.URL() != "http://a:1" {
		t.Fatalf("trailing slash not normalised: %q", a.URL())
	}
	if got := ps.Available(); len(got) != 2 || got[0] != a {
		t.Fatalf("fresh set should list both peers in order, got %v", got)
	}

	// One failure backs a off; the set fails over to b alone.
	a.fail()
	if got := ps.Available(); len(got) != 1 || got[0] != b {
		t.Fatalf("failed peer should be in backoff, got %d peers", len(got))
	}
	// Backoff expires → a is available again but ranked after healthy b.
	now = now.Add(time.Second + time.Millisecond)
	if got := ps.Available(); len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatal("healthiest-first order should rank the failing peer last")
	}
	// Consecutive failures double the backoff (jitter pinned to 1×).
	a.fail()
	if got := a.Failures(); got != 2 {
		t.Fatalf("failures = %d, want 2", got)
	}
	now = now.Add(time.Second + time.Millisecond) // base<<1 = 2s: still backed off
	if got := ps.Available(); len(got) != 1 {
		t.Fatalf("doubled backoff should still hold, got %d peers", len(got))
	}
	now = now.Add(time.Second)
	if got := ps.Available(); len(got) != 2 {
		t.Fatal("expired doubled backoff should release the peer")
	}
	// Success resets health entirely.
	a.ok()
	if a.Failures() != 0 {
		t.Fatal("ok() should reset the failure count")
	}
}

func TestMirrorSyncSteadyState(t *testing.T) {
	// Source archive with a mid-range gap: umbrella day 1 is missing.
	src := emptyStore(t, 3)
	for _, p := range []string{"alexa", "umbrella"} {
		for d := toplist.Day(0); d <= 2; d++ {
			if p == "umbrella" && d == 1 {
				continue
			}
			if err := src.Put(p, d, toplist.New([]string{fmt.Sprintf("%s-day%d.com", p, d)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := serveArchive(t, src)
	local := emptyStore(t, 3)
	ps := testPeerSet(t, ts.URL)
	m := NewMirror(local, ps)

	ctx := context.Background()
	m.SyncOnce(ctx)
	if got, want := m.Copied(), int64(5); got != want {
		t.Fatalf("copied = %d, want %d", got, want)
	}
	for _, p := range src.Providers() {
		for d := src.First(); d <= src.Last(); d++ {
			want := src.RawHash(p, d)
			if got := local.RawHash(p, d); got != want {
				t.Fatalf("slot %s %s: hash %q, want %q", p, d, got, want)
			}
		}
	}

	// Steady state: further rounds are pure 304s, nothing copied.
	before304 := m.NotModified()
	m.SyncOnce(ctx)
	m.SyncOnce(ctx)
	if got := m.Copied(); got != 5 {
		t.Fatalf("steady-state round copied %d extra slots", got-5)
	}
	if got := m.NotModified(); got != before304+2 {
		t.Fatalf("304s = %d, want %d", got, before304+2)
	}

	// A mid-range fill on the source changes the manifest fingerprint
	// (the day range does NOT move): the next conditional revalidation
	// sees it and copies exactly the filled slot.
	if err := src.Put("umbrella", 1, toplist.New([]string{"refilled.example"})); err != nil {
		t.Fatal(err)
	}
	m.SyncOnce(ctx)
	if got := m.Copied(); got != 6 {
		t.Fatalf("filled slot not copied: copied = %d, want 6", got)
	}
	if got, want := local.RawHash("umbrella", 1), src.RawHash("umbrella", 1); got != want {
		t.Fatalf("filled slot hash %q, want %q", got, want)
	}
	if m.Rounds() < 4 {
		t.Fatalf("rounds = %d", m.Rounds())
	}
}

func TestMirrorRepairPropagation(t *testing.T) {
	// A repair that changes slot CONTENT mid-range must propagate: the
	// fingerprint manifest extension is what makes the mirror notice.
	src := seedStore(t, []string{"alexa"}, 2)
	ts := serveArchive(t, src)
	local := emptyStore(t, 2)
	m := NewMirror(local, testPeerSet(t, ts.URL))
	ctx := context.Background()
	m.SyncOnce(ctx)
	if err := src.Put("alexa", 0, toplist.New([]string{"rewritten.example"})); err != nil {
		t.Fatal(err)
	}
	m.SyncOnce(ctx)
	// The local store still holds the OLD bytes for day 0: drain skips
	// slots it Has. That is by design — replicas are append-only unless
	// locally corrupt; divergence is healed by VerifySweep, not by
	// trusting a peer over intact local bytes. What must not happen is
	// the mirror failing to notice new days or providers after the
	// rewrite.
	if got := local.RawHash("alexa", 1); got != src.RawHash("alexa", 1) {
		t.Fatal("day 1 should have replicated")
	}
}

func TestMirrorHealsCorruption(t *testing.T) {
	src := seedStore(t, []string{"alexa", "umbrella"}, 3)
	ts := serveArchive(t, src)
	local := emptyStore(t, 3)
	ps := testPeerSet(t, ts.URL)
	m := NewMirror(local, ps)
	ctx := context.Background()
	m.SyncOnce(ctx)

	wantHash := local.RawHash("umbrella", 1)
	corruptSlot(t, local, "umbrella", 1)
	if n := m.VerifySweep(); n != 1 {
		t.Fatalf("sweep found %d corrupt slots, want 1", n)
	}
	if m.Healing() != 1 {
		t.Fatal("corrupt slot not queued for healing")
	}
	m.SyncOnce(ctx)
	if got := m.Healed(); got != 1 {
		t.Fatalf("healed = %d, want 1", got)
	}
	if m.Healing() != 0 {
		t.Fatal("heal queue not drained")
	}
	if got := local.RawHash("umbrella", 1); got != wantHash {
		t.Fatalf("healed slot hash %q, want %q", got, wantHash)
	}
	if raw, err := local.GetRaw("umbrella", 1); err != nil || raw == nil {
		t.Fatalf("healed slot unreadable: %v", err)
	}
	// Clean sweep afterwards.
	if n := m.VerifySweep(); n != 0 {
		t.Fatalf("post-heal sweep found %d corrupt slots", n)
	}
}

func TestFetchRawPrefersMatchingHash(t *testing.T) {
	// Two peers hold DIFFERENT documents for the same slot; the heal
	// path must pick the one whose hash matches the local manifest.
	good := seedStore(t, []string{"alexa"}, 1)
	other := emptyStore(t, 1)
	if err := other.Put("alexa", 0, toplist.New([]string{"divergent.example"})); err != nil {
		t.Fatal(err)
	}
	tsOther := serveArchive(t, other)
	tsGood := serveArchive(t, good)
	// The divergent peer is listed first, so hash preference — not
	// ordering luck — must select the good copy.
	ps := testPeerSet(t, tsOther.URL, tsGood.URL)
	want := good.RawHash("alexa", 0)

	raw, p, err := ps.FetchRaw(context.Background(), "alexa", 0, want)
	if err != nil || raw == nil {
		t.Fatalf("FetchRaw: %v, raw=%v", err, raw)
	}
	if raw.Hash != want {
		t.Fatalf("fetched hash %q, want %q", raw.Hash, want)
	}
	if p.URL() != tsGood.URL {
		t.Fatalf("fetched from %s, want %s", p.URL(), tsGood.URL)
	}

	// With no matching peer, any decodable copy is better than none.
	tsGood.Close()
	ps2 := testPeerSet(t, tsOther.URL)
	raw, _, err = ps2.FetchRaw(context.Background(), "alexa", 0, want)
	if err != nil || raw == nil {
		t.Fatalf("fallback FetchRaw: %v, raw=%v", err, raw)
	}
	if raw.Hash == want {
		t.Fatal("fallback should be the divergent copy")
	}
}

func TestFetchRawSkipsCorruptPeerCopy(t *testing.T) {
	// A peer refusing a corrupt slot (plain 500) is slot-level trouble:
	// the fetch fails over without counting a peer failure.
	bad := seedStore(t, []string{"alexa"}, 1)
	corruptSlot(t, bad, "alexa", 0)
	bad.Verify() // settle the corruption so the server refuses it
	good := seedStore(t, []string{"alexa"}, 1)
	tsBad, tsGood := serveArchive(t, bad), serveArchive(t, good)
	ps := testPeerSet(t, tsBad.URL, tsGood.URL)

	raw, p, err := ps.FetchRaw(context.Background(), "alexa", 0, "")
	if err != nil || raw == nil {
		t.Fatalf("FetchRaw: %v, raw=%v", err, raw)
	}
	if p.URL() != tsGood.URL {
		t.Fatalf("fetched from %s, want failover to %s", p.URL(), tsGood.URL)
	}
	if ps.peers[0].Failures() != 0 {
		t.Fatal("corrupt refusal must not count as a peer failure")
	}
}

func TestMirrorSurvivesDeadPeer(t *testing.T) {
	src := seedStore(t, []string{"alexa"}, 2)
	tsLive := serveArchive(t, src)
	tsDead := httptest.NewServer(http.NotFoundHandler())
	deadURL := tsDead.URL
	tsDead.Close() // connection refused from the start

	local := emptyStore(t, 2)
	ps := testPeerSet(t, deadURL, tsLive.URL)
	// Fast retries so the dead peer's open fails quickly.
	ps.remoteOpts = append(ps.remoteOpts, toplist.WithRemoteRetry(httpx.Policy{Attempts: 1}))
	m := NewMirror(local, ps)
	ctx := context.Background()
	m.SyncOnce(ctx)
	if got := m.Copied(); got != 2 {
		t.Fatalf("live peer should have been drained despite dead peer: copied=%d", got)
	}
	if m.PeerFailures() == 0 {
		t.Fatal("dead peer conversation should have been counted")
	}
	if ps.peers[0].Failures() == 0 {
		t.Fatal("dead peer should be unhealthy")
	}
	if ps.peers[1].Failures() != 0 {
		t.Fatal("live peer should be healthy")
	}
}

// TestCancelledRevalidationKeepsPeerHealthy: a round cancelled while a
// peer's manifest revalidation is in flight, as when a mirror's loops
// are stopped, records no failure against the peer, so a later round
// (a heal pass, say) can still use it.
func TestCancelledRevalidationKeepsPeerHealthy(t *testing.T) {
	src := seedStore(t, []string{"alexa"}, 2)
	inner := archived.NewServer(src)
	var hold atomic.Bool
	held := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/manifest") && hold.CompareAndSwap(true, false) {
			close(held)
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ps := testPeerSet(t, ts.URL)
	m := NewMirror(emptyStore(t, 2), ps)
	m.SyncOnce(context.Background()) // opens the peer and drains it
	if got := m.Copied(); got != 2 {
		t.Fatalf("copied = %d, want 2", got)
	}

	hold.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-held
		cancel()
	}()
	m.SyncOnce(ctx)
	if got := ps.peers[0].Failures(); got != 0 || m.PeerFailures() != 0 {
		t.Fatalf("cancelled revalidation counted against the peer: %d failures (%d counted)", got, m.PeerFailures())
	}
	if len(ps.Available()) != 1 {
		t.Fatal("peer benched after a cancelled round")
	}
}

// TestCancelledCallerNeverChargesPeer: a caller whose context ends
// while Peer.Remote opens the peer, or while PeerSet.Revalidate
// revalidates its manifest, leaves the peer with no failure and still
// available, because a cancelled caller is never the peer's fault.
func TestCancelledCallerNeverChargesPeer(t *testing.T) {
	for _, tc := range []struct {
		name string
		open bool // open the peer's client before the held request
		call func(t *testing.T, ctx context.Context, ps *PeerSet)
	}{
		{"Remote", false, func(t *testing.T, ctx context.Context, ps *PeerSet) {
			if _, err := ps.Peers()[0].Remote(ctx); err == nil {
				t.Error("Remote succeeded through a held manifest request")
			}
		}},
		{"Revalidate", true, func(t *testing.T, ctx context.Context, ps *PeerSet) { ps.Revalidate(ctx) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := archived.NewServer(seedStore(t, []string{"alexa"}, 2))
			var hold atomic.Bool
			held := make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/manifest") && hold.CompareAndSwap(true, false) {
					close(held)
					<-r.Context().Done()
					return
				}
				inner.ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			ps := testPeerSet(t, ts.URL)
			p := ps.Peers()[0]
			if tc.open {
				if _, err := p.Remote(context.Background()); err != nil {
					t.Fatal(err)
				}
			}

			hold.Store(true)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-held
				cancel()
			}()
			tc.call(t, ctx, ps)
			if got := p.Failures(); got != 0 {
				t.Fatalf("cancelled %s charged the peer: %d failures", tc.name, got)
			}
			if len(ps.Available()) != 1 {
				t.Fatalf("peer benched after a cancelled %s", tc.name)
			}
		})
	}
}

func TestBootstrap(t *testing.T) {
	src := seedStore(t, []string{"alexa", "umbrella"}, 4)
	ts := serveArchive(t, src)
	ps := testPeerSet(t, ts.URL)
	dir := filepath.Join(t.TempDir(), "node")

	store, err := Bootstrap(context.Background(), dir, ps)
	if err != nil {
		t.Fatal(err)
	}
	if store.First() != src.First() || store.Last() != src.Last() {
		t.Fatalf("bootstrap range [%s,%s], want [%s,%s]", store.First(), store.Last(), src.First(), src.Last())
	}
	if got := store.Scale(); got != "test" {
		t.Fatalf("bootstrap scale %q, want test", got)
	}
	if got := len(store.Missing()); got != 8 {
		t.Fatalf("fresh bootstrap should expect 8 slots missing, got %d", got)
	}

	// Reopening an existing archive never consults peers.
	ts.Close()
	again, err := Bootstrap(context.Background(), dir, testPeerSet(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if again.First() != store.First() || again.Last() != store.Last() {
		t.Fatal("reopen changed the archive range")
	}
}

func TestLoopsRunAndStop(t *testing.T) {
	src := seedStore(t, []string{"alexa"}, 2)
	ts := serveArchive(t, src)
	local := emptyStore(t, 2)
	m := NewMirror(local, testPeerSet(t, ts.URL))

	ctx, cancel := context.WithCancel(context.Background())
	loops := m.Loops(5*time.Millisecond, 5*time.Millisecond)
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	done := make(chan struct{})
	for _, loop := range loops {
		loop := loop
		go func() { loop(ctx); done <- struct{}{} }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Rounds() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	<-done
	if m.Rounds() < 3 {
		t.Fatalf("sync loop made %d rounds", m.Rounds())
	}
	if got := m.Copied(); got != 2 {
		t.Fatalf("copied = %d, want 2", got)
	}
}
