package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/archived"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/httpx"
	"repro/internal/listserv"
	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

func publisher(t *testing.T, days int) (*httptest.Server, *toplist.Archive, *listserv.Gatekeeper) {
	t.Helper()
	arch := toplist.NewArchive(0, toplist.Day(days-1))
	for _, p := range []string{"alexa", "umbrella"} {
		for d := 0; d < days; d++ {
			names := []string{fmt.Sprintf("%s-top-%d.com", p, d), "second.com"}
			if err := arch.Put(p, toplist.Day(d), toplist.New(names)); err != nil {
				t.Fatal(err)
			}
		}
	}
	gk := listserv.NewGatekeeper(arch, 0)
	ts := httptest.NewServer(listserv.NewServerAt(gk))
	t.Cleanup(ts.Close)
	return ts, arch, gk
}

func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// peerSet builds a gap-fill peer set with a small retry budget so
// dead-peer tests fail over fast.
func peerSet(t *testing.T, urls ...string) *fleet.PeerSet {
	t.Helper()
	ps, err := fleet.NewPeerSet(urls,
		fleet.WithPeerRemoteOptions(toplist.WithRemoteRetry(httpx.Policy{Attempts: 2, Base: time.Millisecond, Max: time.Millisecond})))
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestStoreStreamsFromEngine produces the collector's on-disk archive
// straight from the simulation engine — no HTTP hop — by handing the
// same toplist.DiskStore collectOnce writes to engine.Run as its
// streaming sink, then reopening it cold.
func TestStoreStreamsFromEngine(t *testing.T) {
	cfg := population.TestConfig()
	cfg.Days = 8
	cfg.Sites = 2000
	w, err := population.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := providers.DefaultOptions(cfg.Days, 500)
	opts.BurnInDays = 10
	g, err := providers.NewGenerator(traffic.NewModel(w), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := openStore(dir, 0, toplist.Day(cfg.Days-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.New(g, engine.Config{}).Run(context.Background(), cfg.Days, store); err != nil {
		t.Fatal(err)
	}
	reopened, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.EnabledProviders() {
		for d := 0; d < cfg.Days; d++ {
			l := reopened.Get(p, toplist.Day(d))
			if l == nil {
				t.Fatalf("%s day %d: missing after reopen", p, d)
			}
			if l.Len() != 500 {
				t.Fatalf("%s day %d: %d entries", p, d, l.Len())
			}
		}
	}
}

func TestCollectOnceWritesAndSkipsExisting(t *testing.T) {
	ts, _, gk := publisher(t, 4)
	dir := t.TempDir()
	client := listserv.NewClient(ts.URL)
	ctx := context.Background()

	n, err := collectOnce(ctx, client, dir, nil, nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // day 0 visible, two providers
		t.Fatalf("wrote %d, want 2", n)
	}
	// Re-running collects nothing new.
	n, err = collectOnce(ctx, client, dir, nil, nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("second pass wrote %d, want 0", n)
	}
	// Publisher advances two days; the collector catches up.
	gk.Advance(2)
	n, err = collectOnce(ctx, client, dir, nil, nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("catch-up wrote %d, want 4", n)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.csv.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 6 {
		t.Fatalf("files = %d, want 6", len(matches))
	}
	// No temp leftovers.
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp")); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
	// The collected archive reopens as a servable source covering the
	// extended day range.
	store, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Days() != 3 || len(store.Providers()) != 2 {
		t.Fatalf("reopened store: %d days, providers %v", store.Days(), store.Providers())
	}
}

func TestCollectedSnapshotsRoundTrip(t *testing.T) {
	ts, arch, _ := publisher(t, 1)
	dir := t.TempDir()
	if _, err := collectOnce(context.Background(), listserv.NewClient(ts.URL), dir, nil, nil, quiet(), nil); err != nil {
		t.Fatal(err)
	}
	store, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := store.Get("alexa", 0)
	if got == nil {
		t.Fatal("alexa day 0 missing from reopened store")
	}
	want := arch.Get("alexa", 0)
	if got.Len() != want.Len() || got.Name(1) != want.Name(1) {
		t.Fatalf("round trip: got %v, want %v", got.Names(), want.Names())
	}
}

func TestCollectOnceRecordsGapsWithoutFailing(t *testing.T) {
	// umbrella misses day 1.
	arch := toplist.NewArchive(0, 1)
	arch.Put("alexa", 0, toplist.New([]string{"a.com"}))    //nolint:errcheck
	arch.Put("alexa", 1, toplist.New([]string{"a2.com"}))   //nolint:errcheck
	arch.Put("umbrella", 0, toplist.New([]string{"u.com"})) //nolint:errcheck
	ts := httptest.NewServer(listserv.NewServer(arch))
	defer ts.Close()

	dir := t.TempDir()
	n, err := collectOnce(context.Background(), listserv.NewClient(ts.URL), dir, nil, nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("wrote %d, want 3 (gap skipped)", n)
	}
}

func TestRunOnceMode(t *testing.T) {
	ts, _, _ := publisher(t, 2)
	dir := t.TempDir()
	err := run([]string{"-url", ts.URL, "-out", dir, "-once"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "*.csv.gz"))
	if len(matches) == 0 {
		t.Fatal("once mode wrote nothing")
	}
}

// lockedBuffer lets the metrics test read run's log output while run
// is still writing to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunServesMetrics: with -metrics-addr the collector exposes its
// pass/snapshot counters on a second listener while following.
func TestRunServesMetrics(t *testing.T) {
	ts, _, _ := publisher(t, 2)
	dir := t.TempDir()
	var buf lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-url", ts.URL, "-out", dir,
			"-interval", "1h", "-metrics-addr", "127.0.0.1:0"}, &buf)
	}()

	// The daemon logs its bound address; wait for it.
	re := regexp.MustCompile(`metrics on (http://[^/\s]+/metrics)`)
	var metricsURL string
	deadline := time.Now().Add(10 * time.Second)
	for metricsURL == "" && time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			metricsURL = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if metricsURL == "" {
		t.Fatalf("metrics address never logged:\n%s", buf.String())
	}

	// The first pass runs concurrently; wait for its counters to land.
	var body string
	for time.Now().Before(deadline) {
		resp, err := http.Get(metricsURL)
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(b)
			if strings.Contains(body, "collectd_passes_total 1") {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(body, "collectd_passes_total 1") {
		t.Fatalf("pass counter missing from exposition:\n%s", body)
	}
	if !strings.Contains(body, "collectd_snapshots_collected_total") {
		t.Fatalf("snapshot counter missing from exposition:\n%s", body)
	}

	// SIGTERM stops the follow loop and the metrics daemon cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop on SIGTERM")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-url", "http://127.0.0.1:1", "-once", "-out", t.TempDir()}, io.Discard); err == nil {
		t.Fatal("unreachable publisher should fail in -once mode")
	}
}

// TestCollectOnceFillsGapsFromPeer: days the publisher never published
// are fetched from a peer archive server speaking the wire API, so two
// collectors with different outage windows converge on a complete
// dataset.
func TestCollectOnceFillsGapsFromPeer(t *testing.T) {
	// Publisher misses umbrella day 1.
	arch := toplist.NewArchive(0, 1)
	arch.Put("alexa", 0, toplist.New([]string{"a.com"}))    //nolint:errcheck
	arch.Put("alexa", 1, toplist.New([]string{"a2.com"}))   //nolint:errcheck
	arch.Put("umbrella", 0, toplist.New([]string{"u.com"})) //nolint:errcheck
	ts := httptest.NewServer(listserv.NewServer(arch))
	defer ts.Close()

	// The peer's archive has the day the publisher is missing.
	peerArch := toplist.NewArchive(0, 1)
	peerArch.Put("umbrella", 1, toplist.New([]string{"u2.com"})) //nolint:errcheck
	peer := httptest.NewServer(archived.NewServer(peerArch))
	defer peer.Close()

	dir := t.TempDir()
	n, err := collectOnce(context.Background(), listserv.NewClient(ts.URL), dir, peerSet(t, peer.URL), nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // 3 from the publisher + 1 gap filled from the peer
		t.Fatalf("wrote %d, want 4", n)
	}
	store, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := store.Get("umbrella", 1)
	if got == nil || got.Name(1) != "u2.com" {
		t.Fatalf("peer-filled snapshot = %v", got)
	}
	if missing := store.Missing(); len(missing) != 0 {
		t.Fatalf("archive still missing %v after peer fill", missing)
	}
}

// TestCollectOnceSurvivesDeadPeer: an unreachable peer never fails the
// pass — the publisher's snapshots are stored and the gaps simply
// remain for the next pass.
func TestCollectOnceSurvivesDeadPeer(t *testing.T) {
	// The publisher covers two days but published only day 0, so the
	// pass records one gap and consults the (dead) peer for it.
	arch := toplist.NewArchive(0, 1)
	arch.Put("alexa", 0, toplist.New([]string{"a.com"})) //nolint:errcheck
	ts := httptest.NewServer(listserv.NewServer(arch))
	defer ts.Close()

	dir := t.TempDir()
	n, err := collectOnce(context.Background(), listserv.NewClient(ts.URL), dir,
		peerSet(t, "http://127.0.0.1:1"), nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("wrote %d, want 1 (gap left open, pass not failed)", n)
	}
}

// TestVerifyRecollectsCorruptSnapshots: the -verify startup sweep turns
// corrupt slots into recollection work — the first pass refetches them
// from the publisher even though Has() reports them present, and the
// repaired archive passes a clean sweep.
func TestVerifyRecollectsCorruptSnapshots(t *testing.T) {
	ts, _, _ := publisher(t, 1)
	dir := t.TempDir()
	client := listserv.NewClient(ts.URL)
	ctx := context.Background()
	if _, err := collectOnce(ctx, client, dir, nil, nil, quiet(), nil); err != nil {
		t.Fatal(err)
	}
	// Rot one collected snapshot on disk.
	path := filepath.Join(dir, "alexa", toplist.Day(0).String()+".csv.gz")
	if err := os.WriteFile(path, []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	recollect, err := verifyArchive(dir, quiet())
	if err != nil {
		t.Fatal(err)
	}
	want := toplist.Snapshot{Provider: "alexa", Day: 0}
	if len(recollect) != 1 || !recollect[want] {
		t.Fatalf("verify sweep found %v, want {%v}", recollect, want)
	}
	// Without the recollect set the slot is skipped as present...
	n, err := collectOnce(ctx, client, dir, nil, nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("pass without recollect wrote %d, want 0", n)
	}
	// ...with it, the corrupt slot is refetched and healed.
	n, err = collectOnce(ctx, client, dir, nil, recollect, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recollect pass wrote %d, want 1", n)
	}
	store, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c := store.Verify(); len(c) != 0 {
		t.Fatalf("archive still corrupt after recollect: %v", c)
	}
	if got := store.Get("alexa", 0); got == nil || got.Name(1) != "alexa-top-0.com" {
		t.Fatalf("healed snapshot = %v", got)
	}
	// A fresh out dir has no manifest: the sweep is a quiet no-op.
	if m, err := verifyArchive(t.TempDir(), quiet()); err != nil || m != nil {
		t.Fatalf("sweep over empty dir = %v, %v", m, err)
	}
}

// TestRunOnceWithVerify is the wired-up flag: -verify -once on a
// tampered archive repairs it in the same invocation.
func TestRunOnceWithVerify(t *testing.T) {
	ts, _, _ := publisher(t, 1)
	dir := t.TempDir()
	if err := run([]string{"-url", ts.URL, "-out", dir, "-once"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "umbrella", toplist.Day(0).String()+".csv.gz")
	if err := os.WriteFile(path, []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-url", ts.URL, "-out", dir, "-once", "-verify"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	store, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c := store.Verify(); len(c) != 0 {
		t.Fatalf("still corrupt after -verify run: %v", c)
	}
}

// TestCollectOnceFailsOverAcrossPeers: with several -peer URLs, a dead
// first peer is skipped (and backed off) and the gap is filled from
// the live one — the fleet peer-set machinery under the collector.
func TestCollectOnceFailsOverAcrossPeers(t *testing.T) {
	// Publisher misses umbrella day 1.
	arch := toplist.NewArchive(0, 1)
	arch.Put("alexa", 0, toplist.New([]string{"a.com"}))    //nolint:errcheck
	arch.Put("alexa", 1, toplist.New([]string{"a2.com"}))   //nolint:errcheck
	arch.Put("umbrella", 0, toplist.New([]string{"u.com"})) //nolint:errcheck
	ts := httptest.NewServer(listserv.NewServer(arch))
	defer ts.Close()

	peerArch := toplist.NewArchive(0, 1)
	peerArch.Put("umbrella", 1, toplist.New([]string{"u2.com"})) //nolint:errcheck
	peer := httptest.NewServer(archived.NewServer(peerArch))
	defer peer.Close()

	ps := peerSet(t, "http://127.0.0.1:1", peer.URL)
	dir := t.TempDir()
	n, err := collectOnce(context.Background(), listserv.NewClient(ts.URL), dir, ps, nil, quiet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // 3 from the publisher + 1 gap failed over to the live peer
		t.Fatalf("wrote %d, want 4", n)
	}
	store, err := toplist.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Get("umbrella", 1); got == nil || got.Name(1) != "u2.com" {
		t.Fatalf("peer-filled snapshot = %v", got)
	}
	if ps.Peers()[0].Failures() == 0 {
		t.Fatal("dead peer should have been marked unhealthy")
	}
}
