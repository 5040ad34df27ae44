// Package fleet composes the per-node replication pieces — the
// versioned /archive/v1 wire API, persisted-hash ETags and conditional
// requests, DiskStore.Verify, and raw byte copies — into a
// self-healing archive fleet: every node runs a Mirror that
// continuously replicates archive-to-archive from a PeerSet, any
// member of which may be down, lagging, or serving corrupted slots,
// and all surviving nodes converge to byte-identical archives.
//
// The package is deliberately thin glue: health tracking and failover
// live in PeerSet, the sync/heal loops in Mirror, and everything else
// — conditional revalidation, retry with jittered backoff, corrupt
// refusal, decode-validated byte copies — is the toplist wire client
// and DiskStore doing what they already do.
package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/toplist"
)

// Peer is one archive server a Mirror replicates from, with its health
// state: consecutive failures and the jittered-backoff deadline before
// it is tried again. A peer in backoff is simply skipped — a dead or
// flapping peer never stalls the sync loop, it just stops being asked
// until its backoff expires.
type Peer struct {
	url string
	set *PeerSet

	mu       sync.Mutex
	remote   *toplist.Remote
	failures int
	until    time.Time // in backoff until this instant
}

// URL returns the peer's base URL.
func (p *Peer) URL() string { return p.url }

// Failures returns the peer's consecutive-failure count (0 = healthy).
func (p *Peer) Failures() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failures
}

// Remote returns the peer's wire client, opening it lazily on first
// use. The open is recorded against the peer's health (the manifest
// fetch inside OpenRemote is the probe); the next attempt after the
// backoff expires retries the open.
func (p *Peer) Remote(ctx context.Context) (*toplist.Remote, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.remote != nil {
		return p.remote, nil
	}
	rem, err := toplist.OpenRemote(ctx, p.url, p.set.remoteOpts...)
	p.recordLocked(ctx, err)
	if err != nil {
		return nil, err
	}
	p.remote = rem
	return rem, nil
}

// Record folds the outcome of one conversation with the peer, made
// under ctx, into its health; every peer charge goes through it. A nil
// err clears the failure count and backoff. A failure charges the
// peer: the consecutive-failure count grows and the peer is benched
// for the set's backoff Delay (the wait the wire clients use between
// retries, applied here between whole conversations) — unless ctx is
// done, because a cancelled caller is never the peer's fault. Record
// reports whether it charged the peer.
func (p *Peer) Record(ctx context.Context, err error) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recordLocked(ctx, err)
}

func (p *Peer) recordLocked(ctx context.Context, err error) bool {
	switch {
	case err == nil:
		p.failures = 0
		p.until = time.Time{}
		return false
	case ctx.Err() != nil:
		return false
	}
	p.failures++
	p.until = p.set.now().Add(p.set.backoff.Delay(p.failures))
	if p.set.onFail != nil {
		p.set.onFail(p.url)
	}
	return true
}

// available reports whether the peer is out of backoff at now.
func (p *Peer) available(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !now.Before(p.until)
}

// PeerSet is a fixed set of archive-server peers with per-peer health
// tracking. It is safe for concurrent use.
type PeerSet struct {
	peers      []*Peer
	backoff    httpx.Policy // only Base, Max and Jitter apply
	now        func() time.Time
	remoteOpts []toplist.RemoteOption
	onFail     func(url string) // Mirror's failure counter hook
}

// PeerOption configures NewPeerSet.
type PeerOption func(*PeerSet)

// WithPeerBackoff sets the backoff window for a failing peer: the
// first failure backs off ~base, doubling per consecutive failure up
// to max (defaults 1s and 2m).
func WithPeerBackoff(base, max time.Duration) PeerOption {
	return func(ps *PeerSet) {
		if base > 0 {
			ps.backoff.Base = base
		}
		if max > 0 {
			ps.backoff.Max = max
		}
	}
}

// WithPeerRemoteOptions passes opts to every OpenRemote the set
// performs (HTTP client, retry budget, cache size).
func WithPeerRemoteOptions(opts ...toplist.RemoteOption) PeerOption {
	return func(ps *PeerSet) { ps.remoteOpts = append(ps.remoteOpts, opts...) }
}

// NewPeerSet builds a set over the given base URLs (duplicates are
// dropped). At least one peer is required — a mirror with nothing to
// mirror from is a configuration error worth failing loudly.
func NewPeerSet(urls []string, opts ...PeerOption) (*PeerSet, error) {
	ps := &PeerSet{
		backoff: httpx.Policy{Base: time.Second, Max: 2 * time.Minute},
		now:     time.Now,
	}
	for _, o := range opts {
		o(ps)
	}
	seen := make(map[string]bool)
	for _, u := range urls {
		u = normalizeURL(u)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		ps.peers = append(ps.peers, &Peer{url: u, set: ps})
	}
	if len(ps.peers) == 0 {
		return nil, errors.New("fleet: peer set needs at least one peer URL")
	}
	return ps, nil
}

func normalizeURL(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// Peers returns every peer, healthy or not, in configuration order.
func (ps *PeerSet) Peers() []*Peer { return append([]*Peer(nil), ps.peers...) }

// Available returns the peers currently out of backoff, healthiest
// first (fewest consecutive failures; configuration order breaks
// ties). This is the failover order: callers walk it until one peer
// answers.
func (ps *PeerSet) Available() []*Peer {
	now := ps.now()
	var out []*Peer
	for _, p := range ps.peers {
		if p.available(now) {
			out = append(out, p)
		}
	}
	// Insertion sort: peer sets are tiny and the sort must be stable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Failures() < out[j-1].Failures(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Revalidate conditionally refreshes every available peer's manifest
// (opening clients lazily), so later FetchRaw calls see each peer's
// current day range and provider set — the cheap pre-pass a gap-filler
// runs once per collection round. Outcomes are recorded against the
// peers (see Record) and failures otherwise ignored; a 304 costs
// nothing and changes nothing.
func (ps *PeerSet) Revalidate(ctx context.Context) {
	for _, p := range ps.Available() {
		if ctx.Err() != nil {
			return
		}
		rem, err := p.Remote(ctx)
		if err != nil {
			continue // Remote already recorded the failure
		}
		_, err = rem.Revalidate(ctx)
		p.Record(ctx, err)
	}
}

// FetchRaw fetches one snapshot document from the healthiest peer that
// holds it, failing over peer by peer. When wantHash is non-empty, a
// copy whose content hash matches is preferred — the heal path passes
// the local persisted hash, so a peer serving the byte-identical
// document wins over one serving a different (re-encoded or stale)
// copy — but any decodable copy is returned as a fallback when no peer
// matches. Returns (nil, nil, nil) when no available peer has the
// slot; per-peer failures are recorded against the peers, not
// surfaced, unless ctx itself is done.
func (ps *PeerSet) FetchRaw(ctx context.Context, provider string, day toplist.Day, wantHash string) (*toplist.RawSnapshot, *Peer, error) {
	var fallback *toplist.RawSnapshot
	var fallbackPeer *Peer
	for _, p := range ps.Available() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		rem, err := p.Remote(ctx)
		if err != nil {
			continue // Remote already recorded the failure
		}
		raw, err := rem.GetRawContext(ctx, provider, day)
		if err != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if !isCorruptRefusal(err) {
				// A refusal of this one slot (the peer's copy is corrupt)
				// is a slot-level verdict, not peer-level trouble.
				p.Record(ctx, err)
			}
			continue
		}
		if raw == nil {
			continue // the peer has the same gap
		}
		p.Record(ctx, nil)
		if wantHash == "" || raw.Hash == wantHash {
			return raw, p, nil
		}
		if fallback == nil {
			fallback, fallbackPeer = raw, p
		}
	}
	return fallback, fallbackPeer, nil
}

// isCorruptRefusal reports whether err is an archive server refusing a
// corrupt slot (the raw fast path's plain 500 — final by protocol).
func isCorruptRefusal(err error) bool {
	var se *httpx.StatusError
	return errors.As(err, &se) && se.Code == http.StatusInternalServerError
}
