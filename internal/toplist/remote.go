package toplist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// This file defines the archive wire protocol — the versioned
// read-only HTTP API that makes a Source servable across machines —
// and the client side of it, OpenRemote. The server side lives in
// internal/archived and is mounted by `toplistd -serve-archive`; both
// halves share the path helpers and the RemoteManifest document below,
// so the protocol has exactly one definition.
//
// The protocol (all endpoints GET/HEAD, rooted at RemoteAPIPrefix):
//
//	GET /archive/v1/manifest                    RemoteManifest (JSON)
//	GET /archive/v1/days                        ["2017-06-06", ...] (JSON)
//	GET /archive/v1/providers                   ["alexa", ...] (JSON)
//	GET /archive/v1/snapshots/{provider}/{day}  gzip-compressed CSV
//
// Snapshot responses are the same gzip CSV a DiskStore keeps on disk.
// A server with raw access to those bytes (toplist.RawSource) serves
// them as a verbatim copy with Content-Encoding: gzip; one without
// (in-memory archives, gatekept views) re-encodes from the decoded
// list — the same deterministic encoder, so the bytes match either
// way. This client always requests the stored encoding (it sets
// Accept-Encoding: gzip itself, which also disables the transport's
// transparent decompression) and treats the body as the compressed
// document under both response shapes.
//
// An absent snapshot is a plain 404 — the nil Source.Get already
// returns for it. A slot the server knows is corrupt is a 500 on the
// raw path (it refuses to serve bytes that cannot decode) and a 404 on
// the decode path (its own Get is nil); the client maps both to nil.

// RemoteAPIVersion is the archive wire-protocol version this build
// speaks. The manifest carries it; OpenRemote refuses any other
// version outright, mirroring OpenArchive's manifest-version check.
const RemoteAPIVersion = 1

// RemoteAPIPrefix roots every archive-API route. The version is part
// of the path, so a future incompatible protocol mounts beside this
// one instead of redefining it.
const RemoteAPIPrefix = "/archive/v1"

// RemoteManifestPath returns the server-relative path of the manifest
// document.
func RemoteManifestPath() string { return RemoteAPIPrefix + "/manifest" }

// RemoteDaysPath returns the server-relative path of the day listing.
func RemoteDaysPath() string { return RemoteAPIPrefix + "/days" }

// RemoteProvidersPath returns the server-relative path of the provider
// listing.
func RemoteProvidersPath() string { return RemoteAPIPrefix + "/providers" }

// RemoteSnapshotPath returns the server-relative path of one
// (provider, day) snapshot document. The provider segment is
// path-escaped, so sources with unusual provider names round-trip
// (the server's PathValue decodes it back).
func RemoteSnapshotPath(provider string, day Day) string {
	return RemoteAPIPrefix + "/snapshots/" + url.PathEscape(provider) + "/" + day.String()
}

// RemoteManifest is the JSON document at RemoteManifestPath describing
// a served archive: the protocol version, the producing scale (when
// recorded), the covered day range, and the provider set. It is the
// wire analog of a DiskStore's manifest.json.
//
// Snapshots and Content are the replication extension (both optional —
// older servers omit them): the count of stored snapshot documents and
// a fingerprint over every stored slot's content hash. They exist so
// the manifest document — and therefore its ETag — changes whenever
// ANY slot changes, not just when the day range or provider set grows:
// a gap filled or a corrupt slot repaired mid-range alters the
// fingerprint even though first/last days stay put. That is what makes
// conditional revalidation (Revalidate) a sound "anything to copy?"
// probe for mirrors: a 304 genuinely means byte-for-byte nothing
// changed.
type RemoteManifest struct {
	Version   int      `json:"version"`
	Scale     string   `json:"scale,omitempty"`
	FirstDay  string   `json:"first_day"`
	LastDay   string   `json:"last_day"`
	Days      int      `json:"days"`
	Providers []string `json:"providers"` // insertion order
	// Snapshots counts the snapshot documents the server currently
	// stores (0 when the source cannot enumerate them cheaply).
	Snapshots int `json:"snapshots,omitempty"`
	// Content fingerprints the stored snapshot set: a content hash over
	// every slot's (provider, day, hash) triple, empty when the source
	// cannot enumerate per-slot hashes. Two archives with equal
	// fingerprints hold byte-identical snapshot sets.
	Content string `json:"content,omitempty"`
}

// Remote is a Source served over HTTP by an archive server
// (internal/archived). It mirrors DiskStore.Get's read semantics
// across the network hop: snapshots are fetched lazily and held in a
// bounded LRU cache; concurrent readers of the same uncached snapshot
// share one in-flight fetch; and a payload that arrives but does not
// decode is memoized as nil (one fetch per corrupt snapshot, not one
// per call) for as long as it stays cached. Absent snapshots (404) are
// memoized the same way.
//
// The cache holds snapshots in their compressed wire form; a slot pays
// gunzip+parse lazily, once, on its first Get. That keeps client
// memory near the on-disk archive size rather than the decoded size,
// and slots that are only ever byte-copied onward — GetRawContext,
// collectd's peer gap-fill — never decode at all.
//
// The day range and provider set are snapshotted from the manifest at
// OpenRemote time — First, Last, Days, and Providers never touch the
// network — and can be re-synchronised against a still-growing archive
// with Refresh. All methods are safe for concurrent use.
//
// The Source methods carry no context, so Get runs requests under the
// context OpenRemote was given; callers that need per-call deadlines
// or cancellation use GetContext.
type Remote struct {
	baseURL string
	httpc   *http.Client
	base    context.Context

	maxAttempts int
	baseBackoff time.Duration
	jitter      func() float64
	sleep       func(context.Context, time.Duration) error

	mu        sync.Mutex
	synced    bool   // first manifest fetch folded in
	manETag   string // ETag of the last manifest fetched (Revalidate sends it back)
	snapshots int    // stored-snapshot count from the last manifest (0 when not reported)
	content   string // snapshot-set fingerprint from the last manifest ("" when not reported)
	first     Day
	last      Day
	scale     string
	providers []string
	known     map[string]bool
	cache     *cache.LRU[storeKey, *remoteDoc]
}

// remoteMaxBody caps accepted response bodies, bounding what a
// misbehaving server can make the client buffer.
const remoteMaxBody = 256 << 20

// remoteDoc is one fetched snapshot: the compressed wire document
// (raw == nil memoizes an absent slot) and, once a Get has touched the
// slot, its decoded list.
//
// Decoding is lazy and memoized separately from the fetch: decode()
// runs gunzip+parse at most once (sync.Once), so the LRU stores
// compressed bytes and only slots a Get actually touches pay the
// decode. decoded is an atomic flag observers that must not trigger a
// decode (Corrupt, Refresh) read; decodeOnce alone orders the fields
// for decode() callers.
type remoteDoc struct {
	raw  []byte // compressed wire document; nil memoizes absent (404)
	hash string // content hash from the wire ETag ("" when not sent)

	decodeOnce sync.Once
	decoded    atomic.Bool
	list       *List
	corrupt    bool // payload arrived but did not decode
}

// decode lazily decompresses and parses the document, at most once.
// Returns the decoded list (nil for absent or corrupt slots).
func (d *remoteDoc) decode() *List {
	d.decodeOnce.Do(func() {
		if d.raw != nil {
			if l, err := DecodeSnapshot(d.raw); err != nil {
				// The document transferred intact (the HTTP layer said
				// 200 and the body completed) but is not a snapshot —
				// the wire analog of a corrupt file on disk. Final and
				// memoized, like DiskStore; deliberately not retried.
				d.corrupt = true
			} else {
				d.list = l
			}
		}
		d.decoded.Store(true)
	})
	return d.list
}

// memoizedNil reports whether the document stands for a nil snapshot
// the client has already settled: absent, or decoded as corrupt.
func (d *remoteDoc) memoizedNil() bool {
	return d.raw == nil || (d.decoded.Load() && d.corrupt)
}

var _ Source = (*Remote)(nil)

// RemoteOption configures OpenRemote.
type RemoteOption func(*Remote)

// WithRemoteHTTPClient substitutes the underlying *http.Client
// (timeouts, transports, test doubles).
func WithRemoteHTTPClient(h *http.Client) RemoteOption {
	return func(r *Remote) { r.httpc = h }
}

// WithRemoteCacheSize bounds the client's snapshot LRU cache to n
// entries (default 256). Entries hold the compressed wire document
// plus, once a Get has touched the slot, its decoded list. Analyses
// typically sweep day ranges per provider, so the default comfortably
// covers a test-scale JOINT window; shrink it when lists are huge,
// grow it to pin a whole archive in memory.
func WithRemoteCacheSize(n int) RemoteOption {
	return func(r *Remote) {
		if n > 0 {
			r.cache = cache.New[storeKey, *remoteDoc](n)
		}
	}
}

// WithRemoteMaxAttempts bounds the tries per transfer (default 4).
// Transient failures — connection errors, 502/503/504, 429 — are
// retried with jittered exponential backoff before a fetch is declared
// failed; 404s, plain 500s (a raw-serving archive refusing a corrupt
// slot), undecodable payloads, and cancellation are never retried.
func WithRemoteMaxAttempts(n int) RemoteOption {
	return func(r *Remote) {
		if n > 0 {
			r.maxAttempts = n
		}
	}
}

// WithRemoteBaseBackoff sets the first retry delay (default 250ms;
// doubled per attempt with ±50% jitter).
func WithRemoteBaseBackoff(d time.Duration) RemoteOption {
	return func(r *Remote) {
		if d > 0 {
			r.baseBackoff = d
		}
	}
}

// OpenRemote opens the archive served at baseURL (the host root — the
// wire API lives under RemoteAPIPrefix), fetches its manifest, and
// returns a Source reading through the wire API. It is the network
// counterpart of OpenArchive: analyses, labs, and servers built over a
// Source run unchanged against the returned Remote.
//
// ctx governs the manifest fetch and becomes the base context for
// context-free Get calls; cancelling it fails every later fetch, so
// tie it to the consumer's lifetime (or just use
// context.Background()).
func OpenRemote(ctx context.Context, baseURL string, opts ...RemoteOption) (*Remote, error) {
	r := &Remote{
		baseURL:     strings.TrimRight(baseURL, "/"),
		httpc:       &http.Client{Timeout: 30 * time.Second},
		base:        ctx,
		maxAttempts: 4,
		baseBackoff: 250 * time.Millisecond,
		jitter:      rand.Float64,
		known:       make(map[string]bool),
		cache:       cache.New[storeKey, *remoteDoc](256),
	}
	r.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	for _, o := range opts {
		o(r)
	}
	if err := r.Refresh(ctx); err != nil {
		return nil, fmt.Errorf("toplist: open remote %s: %w", baseURL, err)
	}
	return r, nil
}

// Refresh re-fetches the manifest and folds it in: the covered day
// range only ever grows (mirroring DiskStore.ExtendTo) and new
// providers are appended in server order, so a Remote following a
// still-publishing archive sees days appear without reopening. It
// also forgets memoized-nil snapshots (absent and corrupt slots), so
// days the server filled or repaired since the last sync become
// readable; cached present snapshots are immutable and survive.
// Transient transport failures are retried like any other fetch.
func (r *Remote) Refresh(ctx context.Context) error {
	_, err := r.revalidate(ctx, false)
	return err
}

// Revalidate is the conditional Refresh: the manifest is requested
// with If-None-Match carrying the ETag of the last manifest this
// client folded in, and a 304 answer — the server's document is
// byte-identical, so (given a server reporting the Content
// fingerprint) nothing about the archive changed — returns (false,
// nil) without touching any client state and without transferring a
// body. A 200 folds the new manifest in exactly as Refresh would
// (range growth, new providers, memoized-nil slots forgotten) and
// returns (true, nil). Mirrors poll with this: steady state costs one
// conditional GET per peer per round, nothing more.
//
// Servers that send no manifest ETag degrade gracefully: every
// Revalidate behaves like Refresh and reports changed.
func (r *Remote) Revalidate(ctx context.Context) (changed bool, err error) {
	return r.revalidate(ctx, true)
}

// revalidate is the shared Refresh/Revalidate implementation; when
// conditional is false the If-None-Match header is never sent, so the
// fetch is unconditional and always folds in (Refresh's historical
// "assume changed" semantics, which consumers rely on to drop
// memoized-nil slots).
func (r *Remote) revalidate(ctx context.Context, conditional bool) (bool, error) {
	r.mu.Lock()
	etag := r.manETag
	r.mu.Unlock()
	var man RemoteManifest
	var newTag string
	unchanged := false
	err := r.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.baseURL+RemoteManifestPath(), nil)
		if err != nil {
			return err
		}
		if conditional && etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := r.httpc.Do(req)
		if err != nil {
			return &remoteTransient{err}
		}
		defer drainBody(resp.Body)
		if conditional && etag != "" && resp.StatusCode == http.StatusNotModified {
			unchanged = true
			return nil
		}
		if err := classifyRemoteStatus(req.URL.String(), resp.StatusCode); err != nil {
			return err
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, remoteMaxBody))
		if err != nil {
			return &remoteTransient{err}
		}
		man, unchanged = RemoteManifest{}, false
		if err := json.Unmarshal(raw, &man); err != nil {
			return fmt.Errorf("toplist: remote manifest: %w", err)
		}
		newTag = resp.Header.Get("ETag")
		return nil
	})
	if err != nil {
		return false, err
	}
	if unchanged {
		return false, nil
	}
	if man.Version != RemoteAPIVersion {
		return false, fmt.Errorf("toplist: remote archive speaks protocol version %d (this build speaks %d); refusing to half-open it",
			man.Version, RemoteAPIVersion)
	}
	first, err := ParseDay(man.FirstDay)
	if err != nil {
		return false, fmt.Errorf("toplist: remote manifest: bad first_day: %w", err)
	}
	last, err := ParseDay(man.LastDay)
	if err != nil {
		return false, fmt.Errorf("toplist: remote manifest: bad last_day: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.synced {
		// First sync (OpenRemote): adopt the server's range verbatim,
		// including an empty one (last < first — a live publisher that
		// has not published its first day yet).
		r.first, r.last = first, last
		r.synced = true
	} else {
		if first < r.first {
			r.first = first
		}
		if last > r.last {
			r.last = last
		}
	}
	r.scale = man.Scale
	r.manETag = newTag
	r.snapshots = man.Snapshots
	r.content = man.Content
	for _, p := range man.Providers {
		if !r.known[p] {
			r.known[p] = true
			r.providers = append(r.providers, p)
		}
	}
	// Drop memoized-nil entries (absent 404s and payloads that decoded
	// as corrupt): a refresh declares "the archive may have changed",
	// and a slot the server has since filled or repaired must become
	// fetchable again — the client-side analog of Put invalidating a
	// DiskStore's memoized decode failure. Present snapshots are
	// immutable and stay cached (decoded or not); in-flight fetches
	// settle against their own entry either way.
	for key, d := range r.cache.All() {
		if d.memoizedNil() {
			r.cache.Remove(key)
		}
	}
	return true, nil
}

// Snapshots returns the stored-snapshot count the server's manifest
// last reported (0 when the server does not report one — older servers,
// or sources that cannot enumerate slots cheaply).
func (r *Remote) Snapshots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshots
}

// ContentFingerprint returns the snapshot-set fingerprint the server's
// manifest last reported ("" when not reported). Two archives with
// equal fingerprints hold byte-identical snapshot sets — the
// convergence check the fleet tooling polls.
func (r *Remote) ContentFingerprint() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.content
}

// BaseURL returns the archive server's root URL.
func (r *Remote) BaseURL() string { return r.baseURL }

// Scale returns the scale name the server's manifest reported ("" when
// the producing archive did not record one).
func (r *Remote) Scale() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scale
}

// First returns the first day covered.
func (r *Remote) First() Day {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.first
}

// Last returns the last day covered.
func (r *Remote) Last() Day {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Days returns the number of days covered (0 for an archive that has
// not published its first day yet).
func (r *Remote) Days() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return DayCount(r.first, r.last)
}

// Providers returns provider names in the server's insertion order.
func (r *Remote) Providers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.providers...)
}

// Get returns the snapshot for provider on day, or nil if absent,
// running any fetch under the OpenRemote context. It implements
// Source. Transient transport failures are retried (see
// WithRemoteMaxAttempts) before a fetch is abandoned; a failure that
// exhausts the retry budget is reported as nil — the only answer the
// Source contract allows — so consumers that must distinguish a dead
// server from a genuine gap use GetContext, which surfaces the error
// (and never memoizes it: the next call retries fresh).
func (r *Remote) Get(provider string, day Day) *List {
	l, _ := r.GetContext(r.base, provider, day)
	return l
}

// GetContext returns the snapshot for provider on day, fetching it
// over the wire if it is not cached and decoding it if this is the
// slot's first Get (the cache holds compressed documents; see Remote).
// Absent snapshots return (nil, nil). A payload that arrives but does
// not decode also returns (nil, nil) and is memoized — the DiskStore
// corrupt-snapshot contract over HTTP (see Corrupt). Transfer failures
// (connection errors, non-404 error statuses, cancellation) return a
// non-nil error and are never memoized: the next call retries.
func (r *Remote) GetContext(ctx context.Context, provider string, day Day) (*List, error) {
	d, err := r.docFor(ctx, provider, day)
	if d == nil || err != nil {
		return nil, err
	}
	return d.decode(), nil
}

// GetRawContext returns the compressed snapshot document for provider
// on day — the same bytes GetContext would decode — without decoding
// it: a cache hit or one wire fetch, then a byte handoff. It is the
// client half of the serving fast path; collectd's peer gap-fill pairs
// it with DiskStore.PutRaw so replicating a snapshot never touches a
// CSV codec. Absent snapshots and slots already memoized as corrupt
// return (nil, nil). The bytes are not validated here — a consumer
// that stores them must decode-check (PutRaw does).
func (r *Remote) GetRawContext(ctx context.Context, provider string, day Day) (*RawSnapshot, error) {
	d, err := r.docFor(ctx, provider, day)
	if d == nil || err != nil || d.memoizedNil() {
		return nil, err
	}
	return &RawSnapshot{Data: d.raw, Hash: d.hash}, nil
}

// docFor returns the fetched document for (provider, day), fetching it
// if the slot is uncached — the shared single-flight core of
// GetContext and GetRawContext. A nil document with nil error means
// the slot is outside the known range or provider set.
func (r *Remote) docFor(ctx context.Context, provider string, day Day) (*remoteDoc, error) {
	for {
		r.mu.Lock()
		known := day >= r.first && day <= r.last && r.known[provider]
		r.mu.Unlock()
		if !known {
			return nil, nil
		}
		fetched := false
		d, err := r.cache.Do(ctx, storeKey{provider, day}, nil, func() (*remoteDoc, error) {
			fetched = true
			raw, hash, err := r.fetchSnapshot(ctx, provider, day)
			if err != nil {
				return nil, err
			}
			return &remoteDoc{raw: raw, hash: hash}, nil
		})
		if err != nil && !fetched && ctx.Err() == nil {
			// The in-flight fetch we joined failed; fetch with our own
			// context instead of inheriting a failure we might not
			// share (theirs may simply have been cancelled).
			continue
		}
		return d, err
	}
}

// Corrupt returns one stub Snapshot per cached (provider, day) whose
// payload arrived over the wire but did not decode — the client-side
// analog of DiskStore.Corrupt. Entries are ordered by provider (server
// order) and day ascending. The listing is advisory twice over: it
// only covers slots still in the LRU cache (an evicted corrupt slot is
// simply refetched — the server may have repaired it meanwhile), and
// since decoding is lazy, only slots some Get has actually decoded can
// appear (an undecoded cached document has not been judged yet).
func (r *Remote) Corrupt() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var found []Snapshot
	for key, d := range r.cache.All() {
		if d.decoded.Load() && d.corrupt {
			found = append(found, Snapshot{Provider: key.provider, Day: key.day})
		}
	}
	return SortSnapshots(found, r.providers)
}

// SortSnapshots orders Missing-style stub Snapshots by provider (in
// providerOrder, with unknown providers last, alphabetically) and day
// ascending, sorting snaps in place. It returns nil for an empty
// listing. DiskStore.Corrupt, Remote.Corrupt and pack.Pack.Corrupt
// all order their listings with it.
func SortSnapshots(snaps []Snapshot, providerOrder []string) []Snapshot {
	if len(snaps) == 0 {
		return nil
	}
	rank := make(map[string]int, len(providerOrder))
	for i, p := range providerOrder {
		rank[p] = i
	}
	sort.Slice(snaps, func(i, j int) bool {
		a, b := snaps[i], snaps[j]
		ra, aok := rank[a.Provider]
		rb, bok := rank[b.Provider]
		switch {
		case aok && bok && ra != rb:
			return ra < rb
		case aok != bok:
			return aok // known providers first
		case !aok && a.Provider != b.Provider:
			return a.Provider < b.Provider
		}
		return a.Day < b.Day
	})
	return snaps
}

// RemoteStatusError reports a non-404 HTTP failure from an archive
// server.
type RemoteStatusError struct {
	URL  string
	Code int
}

func (e *RemoteStatusError) Error() string {
	return fmt.Sprintf("toplist: GET %s: status %d", e.URL, e.Code)
}

// fetchSnapshot downloads one snapshot document without decoding it:
// (body, hash, nil) on success (hash is the bare content hash from the
// wire ETag, "" when the server sent none), (nil, "", nil) for an
// absent snapshot (404), and (nil, "", err) for transfer failures the
// caller must not memoize. Transient failures (connection errors,
// 502/503/504, 429, truncated bodies) are retried with jittered
// exponential backoff before the error is surfaced; a plain 500 is
// final — it is how a raw-serving archive refuses a slot it knows is
// corrupt, and hammering that slot with retries cannot change the
// verdict.
func (r *Remote) fetchSnapshot(ctx context.Context, provider string, day Day) ([]byte, string, error) {
	url := r.baseURL + RemoteSnapshotPath(provider, day)
	var body []byte
	var hash string
	err := r.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		// Ask for the stored encoding explicitly. The raw fast path
		// answers with Content-Encoding: gzip, and setting the header
		// ourselves keeps the transport from transparently gunzipping
		// the body — which would hand us CSV where the cache, the hash,
		// and PutRaw all want the compressed document. Older servers
		// label the same bytes application/gzip; the body is the
		// compressed document either way.
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := r.httpc.Do(req)
		if err != nil {
			return &remoteTransient{err}
		}
		defer drainBody(resp.Body)
		if resp.StatusCode == http.StatusNotFound {
			body, hash = nil, ""
			return nil
		}
		if err := classifyRemoteStatus(url, resp.StatusCode); err != nil {
			return err
		}
		data, err := readBody(resp)
		if err != nil {
			return &remoteTransient{err} // truncated transfer
		}
		if len(data) > remoteMaxBody {
			return fmt.Errorf("toplist: GET %s: body exceeds %d bytes", url, remoteMaxBody)
		}
		body, hash = data, etagHash(resp.Header.Get("ETag"))
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return body, hash, nil
}

// readBody reads a snapshot body of at most remoteMaxBody+1 bytes. A
// declared length within the cap (the archive server always sends one)
// sizes the buffer exactly — the LRU keeps it, so growth slack would
// be kept too; a body shorter than declared fails like any truncated
// transfer.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= remoteMaxBody {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, remoteMaxBody+1))
}

// etagHash extracts the bare content hash from a wire ETag ("" when
// absent or not a quoted tag).
func etagHash(etag string) string {
	etag = strings.TrimPrefix(etag, "W/")
	if len(etag) >= 2 && etag[0] == '"' && etag[len(etag)-1] == '"' {
		return etag[1 : len(etag)-1]
	}
	return ""
}

// remoteTransient marks failures worth retrying.
type remoteTransient struct{ err error }

func (e *remoteTransient) Error() string { return e.err.Error() }
func (e *remoteTransient) Unwrap() error { return e.err }

// classifyRemoteStatus maps a non-404 status to nil (200), a transient
// error (502/503/504 and 429 — server or gateway trouble a retry can
// outlive), or a final RemoteStatusError. A plain 500 is deliberately
// final: the archive server uses it to refuse raw-serving a slot its
// store knows is corrupt, a verdict retries cannot change (a repair is
// picked up by the next fetch after the slot leaves the cache or a
// Refresh drops it).
func classifyRemoteStatus(url string, code int) error {
	switch {
	case code == http.StatusOK:
		return nil
	case TransientStatus(code):
		return &remoteTransient{&RemoteStatusError{URL: url, Code: code}}
	default:
		return &RemoteStatusError{URL: url, Code: code}
	}
}

// TransientStatus reports whether an HTTP status is worth retrying
// under this package's classification: 502/503/504 and 429 — server or
// gateway trouble a retry can outlive. Exported so other versioned HTTP
// clients in the repo (the shard coordinator's /shard/v1 client) apply
// the identical transient/final split instead of drifting their own.
func TransientStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout || code == http.StatusTooManyRequests
}

// retry runs op, retrying transient failures with jittered exponential
// backoff up to maxAttempts, and honouring ctx between attempts — so a
// single network blip does not degrade a Source read into a spurious
// nil (which an analysis would misread as a gap).
func (r *Remote) retry(ctx context.Context, op func() error) error {
	var lastErr error
	backoff := r.baseBackoff
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %v)", err, lastErr)
			}
			return err
		}
		err := op()
		if err == nil {
			return nil
		}
		var te *remoteTransient
		if !errors.As(err, &te) {
			return err
		}
		lastErr = te.err
		if attempt >= r.maxAttempts {
			return fmt.Errorf("toplist: remote: giving up after %d attempts: %w", attempt, lastErr)
		}
		// ±50% jitter decorrelates the retry storms a fleet of remote
		// readers would otherwise synchronise into.
		d := time.Duration(float64(backoff) * (0.5 + r.jitter()))
		if err := r.sleep(ctx, d); err != nil {
			return fmt.Errorf("%w (last error: %v)", err, lastErr)
		}
		backoff *= 2
	}
}

// drainBody consumes and closes a response body so the underlying
// connection can be reused.
func drainBody(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 1<<20)) //nolint:errcheck // best-effort keepalive drain
	rc.Close()
}
