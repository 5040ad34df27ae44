package toplists

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/toplist"
)

// chaosGate fronts an archive server so a test can kill the node at a
// chosen moment: arm(n) lets n more snapshot downloads through, after
// which every request — manifest included — is answered 503 until the
// listener itself is torn down. That is the closest an httptest server
// gets to `kill -9` at a deterministic point mid-replication.
type chaosGate struct {
	h http.Handler

	mu     sync.Mutex
	budget int // <0: unlimited; 0: dead; >0: snapshot downloads left
}

func (g *chaosGate) arm(n int) {
	g.mu.Lock()
	g.budget = n
	g.mu.Unlock()
}

func (g *chaosGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	if g.budget == 0 {
		g.mu.Unlock()
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	if g.budget > 0 && strings.Contains(r.URL.Path, "/snapshots/") {
		g.budget--
	}
	g.mu.Unlock()
	g.h.ServeHTTP(w, r)
}

// fastPeerOpts keeps chaos-test failover snappy: one attempt per wire
// call (the PeerSet's own failover replaces the client's retry loop)
// and a benched peer stays benched for the whole test.
func fastPeerOpts() []PeerOption {
	return []PeerOption{
		WithPeerBackoff(time.Hour, time.Hour),
		WithPeerRemoteOptions(toplist.WithRemoteRetry(httpx.Policy{Attempts: 1})),
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetChaosConvergence is the acceptance scenario for the
// self-healing fleet: node A simulates once and serves its archive;
// node C replicates fully; then A is killed after handing node B only
// a handful of snapshots, and a slot on B's disk is corrupted behind
// its back. The survivors must converge — B finishes replication from
// C, the verify sweep quarantines the corrupt slot and heals it with a
// hash-matching copy — and both render table5 byte-identically to the
// original without the simulation engine ever running again.
func TestFleetChaosConvergence(t *testing.T) {
	scale := smallScale()
	ctx := context.Background()
	base := t.TempDir()

	// Node A: simulate once, persisting, and render the reference.
	dirA := filepath.Join(base, "a")
	labA := NewLab(WithScale(scale), WithArchiveDir(dirA))
	refRes, err := labA.Run(ctx, "table5")
	if err != nil {
		t.Fatal(err)
	}
	srcA, err := OpenArchive(dirA)
	if err != nil {
		t.Fatal(err)
	}
	gate := &chaosGate{h: ArchiveHandler(srcA), budget: -1}
	srvA := httptest.NewServer(gate)
	defer srvA.Close()

	// From here on the engine must never run again: replication and
	// healing are archive-to-archive byte copies.
	runsBefore := engine.RunCount()

	// Node C: bootstrap from A and replicate fully while A is healthy.
	dirC := filepath.Join(base, "c")
	peersC, err := NewPeerSet([]string{srvA.URL}, fastPeerOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	storeC, err := BootstrapArchive(ctx, dirC, peersC)
	if err != nil {
		t.Fatal(err)
	}
	mirrorC := NewMirror(storeC, peersC)
	mirrorC.SyncOnce(ctx)
	if !storeC.Complete() {
		t.Fatalf("node C incomplete after sync: %d missing", len(storeC.Missing()))
	}
	srvC := httptest.NewServer(ArchiveHandler(storeC))
	defer srvC.Close()

	// Node B bootstraps against [A, C], then A dies five snapshots into
	// B's replication. B's mirror loops must fail over to C and finish.
	dirB := filepath.Join(base, "b")
	peersB, err := NewPeerSet([]string{srvA.URL, srvC.URL}, fastPeerOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := BootstrapArchive(ctx, dirB, peersB)
	if err != nil {
		t.Fatal(err)
	}
	mirrorB := NewMirror(storeB, peersB)
	gate.arm(5)

	loopCtx, stopLoops := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, loop := range mirrorB.Loops(2*time.Millisecond, 0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(loopCtx)
		}()
	}
	waitFor(t, "node B to finish replicating", storeB.Complete)
	stopLoops()
	wg.Wait()

	if mirrorB.PeerFailures() == 0 {
		t.Fatal("node A died mid-replication but no peer failure was recorded")
	}
	if got := peersB.Peers()[0].Failures(); got == 0 {
		t.Fatal("dead node A shows zero consecutive failures")
	}

	// Now A is gone for good.
	srvA.Close()

	// Chaos, part two: corrupt a slot on B's disk behind its back. Has
	// stays true (the slot is present, just rotten), the verify sweep
	// flags it, and the heal pass re-fetches a copy whose content hash
	// matches the locally persisted one — from C, since A is dead.
	day := storeB.First()
	wantHash := storeB.RawHash(Alexa, day)
	if wantHash == "" {
		t.Fatal("no persisted hash for the slot about to be corrupted")
	}
	path := filepath.Join(dirB, Alexa, day.String()+".csv.gz")
	if err := os.WriteFile(path, []byte("rotten bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := mirrorB.VerifySweep(); n != 1 {
		t.Fatalf("verify sweep flagged %d slots, want 1", n)
	}
	mirrorB.SyncOnce(ctx)
	if got := mirrorB.Healed(); got != 1 {
		t.Fatalf("healed = %d, want 1", got)
	}
	if got := storeB.RawHash(Alexa, day); got != wantHash {
		t.Fatalf("healed slot hash = %q, want the original %q", got, wantHash)
	}
	if _, err := storeB.GetRaw(Alexa, day); err != nil {
		t.Fatalf("healed slot unreadable: %v", err)
	}

	// Convergence: every surviving node holds byte-identical snapshots
	// (same persisted content hash for every slot as the original).
	for _, p := range srcA.Providers() {
		for d := srcA.First(); d <= srcA.Last(); d++ {
			want := srcA.RawHash(p, d)
			for name, ds := range map[string]*DiskStore{"B": storeB, "C": storeC} {
				if got := ds.RawHash(p, d); got != want {
					t.Fatalf("node %s: %s day %d hash %q, want %q", name, p, d, got, want)
				}
			}
		}
	}

	// Steady state: one more round is a conditional manifest check per
	// peer — 304s, zero copies.
	copied, notModified := mirrorB.Copied(), mirrorB.NotModified()
	mirrorB.SyncOnce(ctx)
	if got := mirrorB.Copied(); got != copied {
		t.Fatalf("steady-state round copied %d snapshots", got-copied)
	}
	if got := mirrorB.NotModified(); got <= notModified {
		t.Fatal("steady-state round recorded no 304")
	}

	// The punchline: both survivors regenerate table5 byte-identically
	// to the pre-chaos original, and the engine never ran again.
	for name, ds := range map[string]*DiskStore{"B": storeB, "C": storeC} {
		res, err := NewLab(WithScale(scale), WithSource(ds)).Run(ctx, "table5")
		if err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		if res.Render() != refRes.Render() {
			t.Fatalf("node %s renders a different table5:\n--- original ---\n%s\n--- node %s ---\n%s",
				name, refRes.Render(), name, res.Render())
		}
	}
	if got := engine.RunCount(); got != runsBefore {
		t.Fatalf("engine invoked %d times during replication/healing", got-runsBefore)
	}
}
