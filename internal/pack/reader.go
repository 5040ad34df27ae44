package pack

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/toplist"
)

// Pack is a packed archive opened for reading: a toplist.Source (and
// toplist.RawSource) over one immutable file reachable through any
// io.ReaderAt. Only the central directory is parsed eagerly; snapshot
// blobs are fetched lazily, every fetched blob is verified against the
// content hash its directory record carries, and decoded lists are
// held in a bounded LRU cache with single-flight decodes — concurrent
// readers of one uncached slot share a single fetch+gunzip+parse, the
// DiskStore.Get discipline over a blob.
//
// A blob that fails its hash check or does not decode is memoized as
// corrupt (one read, not one per call, like DiskStore): Get answers
// nil, GetRaw refuses with toplist.ErrCorruptSnapshot, and Corrupt
// lists the slot. Backend read errors — an HTTP Range fetch that
// exhausted its retries, a vanished file — are never memoized; Get
// reports nil for that call (the only answer Source allows) and the
// next reader retries, while GetRaw and Verify surface the error.
//
// All methods are safe for concurrent use.
type Pack struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer

	first     toplist.Day
	last      toplist.Day
	scale     string
	providers []string
	expected  []string
	slots     map[slotKey]record

	mu       sync.Mutex
	cache    map[slotKey]*cacheEntry
	order    *list.List // LRU: front = most recent; values are slotKey
	capacity int
	corrupt  map[slotKey]bool // settled hash/decode failures
}

type slotKey struct {
	provider string
	day      toplist.Day
}

// cacheEntry is one slot's decode slot: the first Get installs it and
// fetches+decodes outside the lock, concurrent readers wait on ready.
type cacheEntry struct {
	ready chan struct{}
	list  *toplist.List // nil until settled; nil after any failure
	elem  *list.Element
}

var (
	_ toplist.Source    = (*Pack)(nil)
	_ toplist.RawSource = (*Pack)(nil)
)

// decodeCacheSize bounds the decoded-snapshot LRU, in lists. The
// analyses resolve each slot to IDs once per study and keep that
// column themselves, so this cache serves point reads and the
// name-reading analyses.
const decodeCacheSize = 64

// options collects the knobs of OpenURL, all consumed by
// NewHTTPRangeReaderAt.
type options struct {
	http httpOptions
}

// Option configures OpenURL and NewHTTPRangeReaderAt.
type Option func(*options)

func buildOptions(opts []Option) options {
	o := options{http: defaultHTTPOptions()}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Open reads the packed archive available through r (size bytes long)
// and returns it as a Source. Only the header, footer, and central
// directory are read here — O(directory), not O(archive) — so opening
// a pack over a remote ReaderAt costs a few small range reads. Opening
// validates everything it touches: magic, footer geometry against
// size, the directory's content hash, and every slot record's bounds,
// so a truncated, corrupted, or hostile file fails cleanly at Open
// instead of surfacing as a bad read later.
//
// The caller keeps ownership of r; OpenFile and OpenURL wrap Open with
// backends the returned Pack owns (Close releases them).
func Open(r io.ReaderAt, size int64) (*Pack, error) {
	if size < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than header+footer", ErrNotPack, size)
	}
	var header [headerSize]byte
	if _, err := r.ReadAt(header[:], 0); err != nil {
		return nil, fmt.Errorf("pack: read header: %w", err)
	}
	if header != packMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrNotPack)
	}
	var footer [footerSize]byte
	if _, err := r.ReadAt(footer[:], size-footerSize); err != nil {
		return nil, fmt.Errorf("pack: read footer: %w", err)
	}
	dirOff, dirLen, dirHash, err := parseFooter(footer[:], size)
	if err != nil {
		return nil, err
	}
	// dirLen is bounded by the file size (parseFooter), so this
	// allocation cannot exceed the input.
	rawDir := make([]byte, dirLen)
	if _, err := r.ReadAt(rawDir, dirOff); err != nil {
		return nil, fmt.Errorf("pack: read central directory: %w", err)
	}
	dir, first, last, err := parseDirectory(rawDir, dirHash)
	if err != nil {
		return nil, err
	}

	p := &Pack{
		r:         r,
		size:      size,
		first:     first,
		last:      last,
		scale:     dir.Scale,
		providers: dir.Providers,
		expected:  dir.Expected,
		slots:     make(map[slotKey]record, len(dir.Snapshots)),
		cache:     make(map[slotKey]*cacheEntry),
		order:     list.New(),
		capacity:  decodeCacheSize,
		corrupt:   make(map[slotKey]bool),
	}
	known := make(map[string]bool, len(dir.Providers))
	for _, prov := range dir.Providers {
		if prov == "" || known[prov] {
			return nil, fmt.Errorf("%w: empty or duplicate provider %q", ErrNotPack, prov)
		}
		known[prov] = true
	}
	for _, rec := range dir.Snapshots {
		day, err := toplist.ParseDay(rec.Day)
		if err != nil {
			return nil, fmt.Errorf("%w: slot %s/%s: bad day: %v", ErrNotPack, rec.Provider, rec.Day, err)
		}
		if day < first || day > last {
			return nil, fmt.Errorf("%w: slot %s %v outside archive range", ErrNotPack, rec.Provider, day)
		}
		if !known[rec.Provider] {
			return nil, fmt.Errorf("%w: slot for unlisted provider %q", ErrNotPack, rec.Provider)
		}
		// Blobs live strictly between the header and the directory.
		// Length-first ordering keeps the sum from overflowing.
		if rec.Length < 0 || rec.Offset < headerSize || rec.Length > dirOff || rec.Offset > dirOff-rec.Length {
			return nil, fmt.Errorf("%w: slot %s %v has impossible extent", ErrNotPack, rec.Provider, day)
		}
		if rec.Hash == "" {
			return nil, fmt.Errorf("%w: slot %s %v has no content hash", ErrNotPack, rec.Provider, day)
		}
		key := slotKey{rec.Provider, day}
		if _, dup := p.slots[key]; dup {
			return nil, fmt.Errorf("%w: duplicate slot %s %v", ErrNotPack, rec.Provider, day)
		}
		p.slots[key] = rec
	}
	return p, nil
}

// OpenFile opens the packed archive at path. Close releases the file.
func OpenFile(path string) (*Pack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	p, err := Open(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pack: open %s: %w", path, err)
	}
	p.closer = f
	return p, nil
}

// Close releases the backend Open was wrapped around (the file for
// OpenFile; a no-op for a caller-owned ReaderAt).
func (p *Pack) Close() error {
	if p.closer != nil {
		return p.closer.Close()
	}
	return nil
}

// Size returns the pack file's length in bytes.
func (p *Pack) Size() int64 { return p.size }

// Scale returns the scale name the packed archive recorded ("" when
// the producer did not record one).
func (p *Pack) Scale() string { return p.scale }

// Expected returns the provider set the packed archive's producer
// declared (nil when none was declared) — carried so an unpack
// restores the DiskStore's Complete/Missing contract.
func (p *Pack) Expected() []string {
	return append([]string(nil), p.expected...)
}

// First returns the first day covered.
func (p *Pack) First() toplist.Day { return p.first }

// Last returns the last day covered.
func (p *Pack) Last() toplist.Day { return p.last }

// Days returns the number of days covered.
func (p *Pack) Days() int { return toplist.DayCount(p.first, p.last) }

// Providers returns provider names in insertion order.
func (p *Pack) Providers() []string {
	return append([]string(nil), p.providers...)
}

// Has reports whether the pack holds a blob for the slot, without
// reading it.
func (p *Pack) Has(provider string, day toplist.Day) bool {
	_, ok := p.slots[slotKey{provider, day}]
	return ok
}

// Snapshots returns the number of stored snapshots.
func (p *Pack) Snapshots() int { return len(p.slots) }

// Get returns the snapshot for provider on day, or nil if absent. The
// blob is fetched and decoded at most once while it stays in the LRU
// (single-flight, like DiskStore.Get); hash-check and decode failures
// are memoized as corrupt, backend read failures are not (the next Get
// retries). It implements toplist.Source.
func (p *Pack) Get(provider string, day toplist.Day) *toplist.List {
	key := slotKey{provider, day}
	rec, ok := p.slots[key]
	if !ok {
		return nil
	}
	p.mu.Lock()
	if p.corrupt[key] {
		p.mu.Unlock()
		return nil
	}
	if e, ok := p.cache[key]; ok {
		p.order.MoveToFront(e.elem)
		p.mu.Unlock()
		<-e.ready
		return e.list
	}
	e := &cacheEntry{ready: make(chan struct{})}
	e.elem = p.order.PushFront(key)
	p.cache[key] = e
	p.evictLocked()
	p.mu.Unlock()

	l, readErr, corrupt := p.loadSlot(key, rec)
	if corrupt {
		p.settleCorrupt(key, e)
	} else if readErr != nil {
		// Transient backend failure: uncache so the next reader
		// retries; waiters on this entry observe nil for this attempt.
		p.dropEntry(key, e)
	}
	e.list = l
	close(e.ready)
	return l
}

// loadSlot fetches and decodes one blob: (list, nil, false) on
// success, (nil, err, false) on a backend read failure, and
// (nil, err, true) when the bytes are settled corrupt (hash mismatch
// or undecodable).
func (p *Pack) loadSlot(key slotKey, rec record) (*toplist.List, error, bool) {
	data, err := p.readBlob(rec)
	if err != nil {
		return nil, err, false
	}
	if got := toplist.ContentHash(data); got != rec.Hash {
		return nil, fmt.Errorf("pack: %s %v: stored bytes do not match directory hash: %w", key.provider, key.day, toplist.ErrCorruptSnapshot), true
	}
	l, err := toplist.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("pack: %s %v: %v: %w", key.provider, key.day, err, toplist.ErrCorruptSnapshot), true
	}
	return l, nil, false
}

// readBlob fetches one blob's bytes from the backend.
func (p *Pack) readBlob(rec record) ([]byte, error) {
	data := make([]byte, rec.Length)
	if _, err := p.r.ReadAt(data, rec.Offset); err != nil {
		return nil, err
	}
	return data, nil
}

// settleCorrupt memoizes a hash/decode failure and retires the slot's
// cache entry (corrupt slots are answered from the corrupt set, not
// the LRU, so eviction cannot forget the verdict).
func (p *Pack) settleCorrupt(key slotKey, e *cacheEntry) {
	p.mu.Lock()
	p.corrupt[key] = true
	if cur, ok := p.cache[key]; ok && cur == e {
		delete(p.cache, key)
		p.order.Remove(e.elem)
	}
	p.mu.Unlock()
}

// dropEntry removes e if it is still installed for key.
func (p *Pack) dropEntry(key slotKey, e *cacheEntry) {
	p.mu.Lock()
	if cur, ok := p.cache[key]; ok && cur == e {
		delete(p.cache, key)
		p.order.Remove(e.elem)
	}
	p.mu.Unlock()
}

// evictLocked trims the LRU to capacity; callers hold p.mu. Evicting
// an in-flight entry is safe: waiters hold the entry pointer and
// settle against it, the slot just becomes refetchable.
func (p *Pack) evictLocked() {
	for len(p.cache) > p.capacity {
		back := p.order.Back()
		if back == nil {
			return
		}
		key := back.Value.(slotKey)
		p.order.Remove(back)
		delete(p.cache, key)
	}
}

// RawHash returns the content hash the directory records for the
// slot, or "" when the slot is absent — the no-I/O probe the archive
// server keys its ETags and blob cache on. It implements
// toplist.RawSource; every packed slot has a hash by construction.
func (p *Pack) RawHash(provider string, day toplist.Day) string {
	return p.slots[slotKey{provider, day}].Hash
}

// GetRaw returns the stored blob and its directory hash, verifying the
// bytes before handing them out — a pack served over a network backend
// must never relay bytes the directory does not vouch for. Absent
// slots return (nil, nil); a slot that fails its hash check (now or in
// any earlier read) returns an error wrapping
// toplist.ErrCorruptSnapshot; backend read failures return their own
// error and are not memoized. It implements toplist.RawSource.
func (p *Pack) GetRaw(provider string, day toplist.Day) (*toplist.RawSnapshot, error) {
	key := slotKey{provider, day}
	rec, ok := p.slots[key]
	if !ok {
		return nil, nil
	}
	p.mu.Lock()
	corrupt := p.corrupt[key]
	p.mu.Unlock()
	if corrupt {
		return nil, fmt.Errorf("pack: %s %v: %w", provider, day, toplist.ErrCorruptSnapshot)
	}
	data, err := p.readBlob(rec)
	if err != nil {
		return nil, err
	}
	if got := toplist.ContentHash(data); got != rec.Hash {
		p.mu.Lock()
		p.corrupt[key] = true
		p.mu.Unlock()
		return nil, fmt.Errorf("pack: %s %v: stored bytes do not match directory hash: %w", provider, day, toplist.ErrCorruptSnapshot)
	}
	return &toplist.RawSnapshot{Data: data, Hash: rec.Hash}, nil
}

// Verify eagerly sweeps the whole pack: every stored blob is fetched,
// hash-checked, and fully decoded, without retaining the decoded lists
// — O(1) memory over an arbitrarily large archive, the
// DiskStore.Verify contract over a blob backend. Hash and decode
// failures are memoized (Corrupt lists them; both read paths refuse
// them). A backend read failure aborts the sweep with its error — over
// HTTP a network fault is not corruption, and must not be recorded as
// one. Returns the accumulated Corrupt listing.
func (p *Pack) Verify() ([]toplist.Snapshot, error) {
	for key, rec := range p.slots {
		p.mu.Lock()
		done := p.corrupt[key]
		p.mu.Unlock()
		if done {
			continue
		}
		_, readErr, corrupt := p.loadSlot(key, rec)
		if corrupt {
			p.mu.Lock()
			p.corrupt[key] = true
			p.mu.Unlock()
			continue
		}
		if readErr != nil {
			return p.Corrupt(), fmt.Errorf("pack: verify %s %v: %w", key.provider, key.day, readErr)
		}
	}
	return p.Corrupt(), nil
}

// Corrupt returns one stub Snapshot per slot whose bytes failed their
// directory hash or did not decode — the memoized verdicts Get,
// GetRaw, and Verify have accumulated — ordered by provider (directory
// order) and day ascending. Unlike a DiskStore, a pack is immutable:
// nothing repairs a slot short of re-packing, so the listing only
// grows.
func (p *Pack) Corrupt() []toplist.Snapshot {
	p.mu.Lock()
	keys := make([]slotKey, 0, len(p.corrupt))
	for key := range p.corrupt {
		keys = append(keys, key)
	}
	p.mu.Unlock()
	if len(keys) == 0 {
		return nil
	}
	rank := make(map[string]int, len(p.providers))
	for i, prov := range p.providers {
		rank[prov] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].provider != keys[j].provider {
			return rank[keys[i].provider] < rank[keys[j].provider]
		}
		return keys[i].day < keys[j].day
	})
	out := make([]toplist.Snapshot, len(keys))
	for i, key := range keys {
		out[i] = toplist.Snapshot{Provider: key.provider, Day: key.day}
	}
	return out
}
