package fleet

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/toplist"
)

// Mirror continuously replicates a local DiskStore from a PeerSet over
// the archive wire API. One SyncOnce round costs, per reachable peer,
// a single conditional manifest GET — answered 304 in steady state —
// and, when the peer's manifest changed (its ETag covers the content
// fingerprint, so any filled or repaired slot changes it), a walk that
// byte-copies every snapshot the local store lacks (GetRaw → PutRaw;
// the one decode is PutRaw's write validation). The engine and the CSV
// codecs are never involved beyond that: replication moves compressed
// documents.
//
// Healing: VerifySweep integrity-checks the local store; slots that
// fail are removed from the mirror's has-view and re-fetched on the
// next round from the healthiest peer holding a copy with the locally
// persisted content hash (which survives on-disk byte corruption — it
// lives in the manifest, the corrupted file does not change it).
//
// All methods are safe for concurrent use; the sync and verify loops
// (Loops) run as independent Daemon background tasks.
type Mirror struct {
	store  *toplist.DiskStore
	peers  *PeerSet
	logger *log.Logger

	metrics      *serve.Metrics
	rounds       *serve.Counter
	syncs        *serve.Counter
	notModified  *serve.Counter
	copied       *serve.Counter
	healed       *serve.Counter
	peerFailures *serve.Counter
	sweeps       *serve.Counter

	mu      sync.Mutex
	drained map[string]bool // peer URL → fully copied at its last-seen manifest
	heal    map[slot]bool   // locally corrupt slots awaiting re-fetch
}

// slot is one (provider, day) key.
type slot struct {
	provider string
	day      toplist.Day
}

// MirrorOption configures NewMirror.
type MirrorOption func(*Mirror)

// WithMirrorLogger sets the mirror's logger (default: silent).
func WithMirrorLogger(l *log.Logger) MirrorOption {
	return func(m *Mirror) { m.logger = l }
}

// WithMirrorMetrics registers the mirror's counters and per-peer lag
// gauges on reg instead of a private registry, so cmd/mirrord exposes
// them on its /metrics beside the HTTP series.
func WithMirrorMetrics(reg *serve.Metrics) MirrorOption {
	return func(m *Mirror) { m.metrics = reg }
}

// NewMirror builds a mirror replicating store from peers. The peer
// set's failure accounting feeds the mirror's
// fleet_peer_failures_total counter.
func NewMirror(store *toplist.DiskStore, peers *PeerSet, opts ...MirrorOption) *Mirror {
	m := &Mirror{
		store:   store,
		peers:   peers,
		drained: make(map[string]bool),
		heal:    make(map[slot]bool),
	}
	for _, o := range opts {
		o(m)
	}
	if m.metrics == nil {
		m.metrics = serve.NewMetrics()
	}
	m.rounds = m.metrics.Counter("fleet_rounds_total", "Sync rounds completed.")
	m.syncs = m.metrics.Counter("fleet_manifest_syncs_total", "Peer manifests that changed and were folded in.")
	m.notModified = m.metrics.Counter("fleet_manifest_304_total", "Conditional manifest revalidations answered 304 (steady state).")
	m.copied = m.metrics.Counter("fleet_slots_copied_total", "Snapshot documents byte-copied from peers.")
	m.healed = m.metrics.Counter("fleet_corrupt_healed_total", "Locally corrupt slots re-fetched from a peer.")
	m.peerFailures = m.metrics.Counter("fleet_peer_failures_total", "Failed peer conversations (open, revalidate, fetch).")
	m.sweeps = m.metrics.Counter("fleet_verify_sweeps_total", "Local integrity sweeps completed.")
	peers.onFail = func(string) { m.peerFailures.Add(1) }
	return m
}

// Store returns the local store the mirror replicates into.
func (m *Mirror) Store() *toplist.DiskStore { return m.store }

// Counter accessors for tests and status logging.

// Rounds returns completed sync rounds.
func (m *Mirror) Rounds() int64 { return m.rounds.Value() }

// Copied returns snapshot documents byte-copied from peers.
func (m *Mirror) Copied() int64 { return m.copied.Value() }

// NotModified returns manifest revalidations answered 304.
func (m *Mirror) NotModified() int64 { return m.notModified.Value() }

// Healed returns locally corrupt slots repaired from a peer.
func (m *Mirror) Healed() int64 { return m.healed.Value() }

// PeerFailures returns failed peer conversations.
func (m *Mirror) PeerFailures() int64 { return m.peerFailures.Value() }

// Healing returns how many locally corrupt slots still await repair.
func (m *Mirror) Healing() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.heal)
}

func (m *Mirror) logf(format string, args ...any) {
	if m.logger != nil {
		m.logger.Printf(format, args...)
	}
}

// SyncOnce runs one replication round: revalidate each available
// peer's manifest (healthiest first), drain whatever a changed peer
// holds that the local store lacks, then attempt to heal any slots a
// VerifySweep flagged. Per-peer trouble is recorded against that peer
// and the round moves on — a dead peer costs one failed conversation,
// never a stalled round.
func (m *Mirror) SyncOnce(ctx context.Context) {
	for _, p := range m.peers.Available() {
		if ctx.Err() != nil {
			return
		}
		m.syncPeer(ctx, p)
	}
	m.healPass(ctx)
	m.rounds.Add(1)
}

// syncPeer revalidates one peer and drains it if anything changed.
func (m *Mirror) syncPeer(ctx context.Context, p *Peer) {
	rem, err := p.Remote(ctx)
	if err != nil {
		m.logf("peer %s: open: %v", p.URL(), err)
		return
	}
	changed, err := rem.Revalidate(ctx)
	if err != nil {
		// As for a drain: a round cancelled mid-request says nothing
		// about the peer, and benching it would starve later rounds.
		if ctx.Err() == nil {
			p.fail()
			m.logf("peer %s: revalidate: %v", p.URL(), err)
		}
		return
	}
	m.peerLag(p).Set(lagDays(m.store.Last(), rem.Last()))
	m.mu.Lock()
	if changed {
		m.drained[p.URL()] = false
	}
	drained := m.drained[p.URL()]
	m.mu.Unlock()
	if changed {
		m.syncs.Add(1)
	} else {
		m.notModified.Add(1)
		if drained {
			return // steady state: one conditional GET, nothing else
		}
	}
	if err := m.drainPeer(ctx, p, rem); err != nil {
		if ctx.Err() == nil {
			p.fail()
			m.logf("peer %s: drain: %v", p.URL(), err)
		}
		return
	}
	p.ok()
	m.mu.Lock()
	m.drained[p.URL()] = true
	m.mu.Unlock()
}

// drainPeer byte-copies every snapshot the peer holds and the local
// store lacks. The local range extends to cover the peer's (forward
// only — a DiskStore range never shrinks and cannot grow backwards),
// the expected-provider set is merged, and slots awaiting heal are
// left to healPass, which fetches them hash-aware.
func (m *Mirror) drainPeer(ctx context.Context, p *Peer, rem *toplist.Remote) error {
	if last := rem.Last(); last > m.store.Last() {
		if err := m.store.ExtendTo(last); err != nil {
			return err
		}
	}
	if provs := rem.Providers(); len(provs) > 0 {
		if err := m.store.Expect(provs...); err != nil {
			return err
		}
	}
	first, last := rem.First(), rem.Last()
	if f := m.store.First(); first < f {
		first = f
	}
	if l := m.store.Last(); last > l {
		last = l
	}
	for _, provider := range rem.Providers() {
		for d := first; d <= last; d++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if m.healPending(provider, d) || m.store.Has(provider, d) {
				continue
			}
			raw, err := rem.GetRawContext(ctx, provider, d)
			if err != nil {
				if isCorruptRefusal(err) {
					continue // the peer's own copy is corrupt; try elsewhere later
				}
				return err
			}
			if raw == nil {
				continue // the peer has the same gap
			}
			if err := m.store.PutRaw(provider, d, raw.Data); err != nil {
				// The document failed write validation — the peer served
				// bytes that do not decode. Skip the slot, keep draining.
				m.logf("peer %s: refusing %s %s: %v", p.URL(), provider, d, err)
				continue
			}
			m.copied.Add(1)
		}
	}
	return nil
}

// VerifySweep integrity-checks every present local snapshot
// (DiskStore.Verify: persisted hash, then full decode) and marks the
// failures for healing: they leave the mirror's has-view immediately
// and the next sync round re-fetches each from the healthiest peer
// holding a hash-matching copy. Returns how many corrupt slots the
// sweep found.
func (m *Mirror) VerifySweep() int {
	corrupt := m.store.Verify()
	m.mu.Lock()
	for _, s := range corrupt {
		m.heal[slot{s.Provider, s.Day}] = true
	}
	m.mu.Unlock()
	m.sweeps.Add(1)
	if len(corrupt) > 0 {
		m.logf("verify: %d corrupt slots queued for healing", len(corrupt))
	}
	return len(corrupt)
}

// healPending reports whether a slot is queued for healing.
func (m *Mirror) healPending(provider string, day toplist.Day) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.heal[slot{provider, day}]
}

// healPass re-fetches every queued corrupt slot. The locally persisted
// content hash — which an on-disk corruption does not touch — is the
// wanted hash, so a peer still holding the byte-identical document is
// preferred; any decodable copy heals the slot as a fallback (PutRaw
// refuses anything that does not decode). Slots no peer currently
// holds stay queued and are retried next round.
func (m *Mirror) healPass(ctx context.Context) {
	m.mu.Lock()
	pending := make([]slot, 0, len(m.heal))
	for s := range m.heal {
		pending = append(pending, s)
	}
	m.mu.Unlock()
	for _, s := range pending {
		if ctx.Err() != nil {
			return
		}
		raw, p, err := m.peers.FetchRaw(ctx, s.provider, s.day, m.store.RawHash(s.provider, s.day))
		if err != nil || raw == nil {
			continue
		}
		if err := m.store.PutRaw(s.provider, s.day, raw.Data); err != nil {
			m.logf("heal %s %s from %s: %v", s.provider, s.day, p.URL(), err)
			continue
		}
		m.mu.Lock()
		delete(m.heal, s)
		m.mu.Unlock()
		m.healed.Add(1)
		m.logf("healed %s %s from %s", s.provider, s.day, p.URL())
	}
}

// peerLag returns (registering lazily) the peer's lag gauge.
func (m *Mirror) peerLag(p *Peer) *serve.Gauge {
	return m.metrics.Gauge(
		fmt.Sprintf("fleet_peer_lag_days{peer=%q}", p.URL()),
		"Days the peer's archive trails the local one (0 = caught up or ahead).")
}

// lagDays is how many days peerLast trails localLast, clamped at 0.
func lagDays(localLast, peerLast toplist.Day) int64 {
	if peerLast >= localLast {
		return 0
	}
	return int64(localLast - peerLast)
}

// Loops returns the mirror's background tasks for serve.Daemon: the
// sync loop (one immediate round, then one per syncEvery) and — when
// verifyEvery > 0 — the periodic local integrity sweep.
func (m *Mirror) Loops(syncEvery, verifyEvery time.Duration) []func(context.Context) {
	loops := []func(context.Context){
		func(ctx context.Context) {
			m.SyncOnce(ctx)
			serve.Poll(ctx, syncEvery, m.SyncOnce)
		},
	}
	if verifyEvery > 0 {
		loops = append(loops, func(ctx context.Context) {
			serve.Poll(ctx, verifyEvery, func(context.Context) { m.VerifySweep() })
		})
	}
	return loops
}

// Bootstrap opens the local archive at dir, creating it from the first
// reachable peer's manifest when none exists yet: the new store adopts
// the peer's day range, scale, and expected-provider set, ready for
// the first SyncOnce to fill it. A directory already holding an
// archive is simply reopened (peers are not consulted).
func Bootstrap(ctx context.Context, dir string, peers *PeerSet) (*toplist.DiskStore, error) {
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return toplist.OpenArchive(dir)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	var lastErr error
	for _, p := range peers.Available() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rem, err := p.Remote(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		store, err := toplist.CreateDiskStore(dir, rem.First(), rem.Last())
		if err != nil {
			return nil, err
		}
		if s := rem.Scale(); s != "" {
			if err := store.SetScale(s); err != nil {
				return nil, err
			}
		}
		if provs := rem.Providers(); len(provs) > 0 {
			if err := store.Expect(provs...); err != nil {
				return nil, err
			}
		}
		return store, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no peer available")
	}
	return nil, fmt.Errorf("fleet: bootstrap %s: %w", dir, lastErr)
}
