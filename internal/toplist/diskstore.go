package toplist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
)

// manifestName is the store's metadata file inside the archive dir.
const manifestName = "manifest.json"

// snapshotExt is the per-snapshot file suffix.
const snapshotExt = ".csv.gz"

// manifestVersion is the manifest format this build writes. OpenArchive
// reads this version and manifestVersionNoHashes; any other version is
// rejected outright — a future-format archive must fail loudly instead
// of half-opening with silently dropped fields.
const manifestVersion = 2

// manifestVersionNoHashes is the previous manifest format: identical
// except that no per-snapshot content hashes were persisted. Archives
// written by it open fine; their slots serve through the decode path
// until rewritten (GetRaw returns nil without a persisted hash), and
// the first manifest flush upgrades the document in place.
const manifestVersionNoHashes = 1

// manifest is the JSON document at <dir>/manifest.json describing a
// DiskStore: what scale produced it, the day range it covers, and the
// provider set it holds (and is expected to hold).
type manifest struct {
	Version   int      `json:"version"`
	Scale     string   `json:"scale,omitempty"`
	FirstDay  string   `json:"first_day"`
	LastDay   string   `json:"last_day"`
	Providers []string `json:"providers"`          // insertion order
	Expected  []string `json:"expected,omitempty"` // providers Complete/Missing require
	// Hashes persists each stored snapshot's content hash
	// (provider → ISO date → ContentHash of the gzip document),
	// recorded at Put time. They are what lets the serving fast path
	// hand out ETags and validate raw reads without ever decoding a
	// snapshot. Slots written by a version-1 store have no entry and
	// fall back to the decode path.
	Hashes map[string]map[string]string `json:"hashes,omitempty"`
	// Timings persists observed experiment wall times (microseconds
	// by experiment ID) so a fresh process reopening the archive can
	// schedule its first pooled run longest-job-first from real data.
	Timings map[string]int64 `json:"timings_us,omitempty"`
}

// DiskStore is a durable snapshot archive: one gzip-compressed CSV per
// (provider, day) under <dir>/<provider>/<date>.csv.gz, plus a JSON
// manifest with the day range, provider order, and expected provider
// set — the paper's JOINT dataset as a directory that outlives the
// process. It implements both SnapshotSink (the engine can stream
// straight into it) and Source (analyses can serve straight from it),
// so a simulation teed to disk and a later OpenArchive of the same
// directory are interchangeable.
//
// Writes are atomic (temp file + rename) so a crashed run never leaves
// a partial snapshot visible, and writing stays O(1) in memory — a
// streaming run teeing into the store holds no snapshots. Reads are
// cached: lists are immutable, so each snapshot is decoded at most
// once per open store (the cache grows to the read working set, like
// an in-memory Archive). All methods are safe for concurrent use.
type DiskStore struct {
	dir string

	mu      sync.RWMutex
	man     manifest
	first   Day
	last    Day
	present map[string][]bool // provider -> day-index bitmap
	// cache holds each decoded snapshot, unbounded. A decode failure
	// is memoized as a nil list, so a corrupt snapshot costs one read
	// — not one per call — until a Put replaces it and removes the
	// entry.
	cache *cache.LRU[storeKey, *List]
}

type storeKey struct {
	provider string
	day      Day
}

var (
	_ Store     = (*DiskStore)(nil)
	_ RawSource = (*DiskStore)(nil)
)

// CreateDiskStore initialises a new durable archive at dir spanning
// days [first, last]. dir is created if needed; it must not already
// hold a store manifest.
func CreateDiskStore(dir string, first, last Day) (*DiskStore, error) {
	if last < first {
		return nil, fmt.Errorf("toplist: disk store with last < first")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("toplist: %s already holds an archive (use OpenArchive)", dir)
	}
	ds := &DiskStore{
		dir:     dir,
		man:     manifest{Version: manifestVersion, FirstDay: first.String(), LastDay: last.String()},
		first:   first,
		last:    last,
		present: make(map[string][]bool),
		cache:   cache.New[storeKey, *List](0),
	}
	if err := ds.flushManifestLocked(); err != nil {
		return nil, err
	}
	return ds, nil
}

// OpenArchive opens the durable archive previously written at dir,
// ready to serve snapshots without resimulating. The present-snapshot
// set is recovered by scanning the per-provider directories, so a
// store interrupted mid-run reopens with exactly the snapshots whose
// writes completed.
func OpenArchive(dir string) (*DiskStore, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("toplist: open archive %s: %w", dir, err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("toplist: archive %s: bad manifest: %w", dir, err)
	}
	if man.Version != manifestVersion && man.Version != manifestVersionNoHashes {
		return nil, fmt.Errorf("toplist: archive %s: manifest version %d not supported (this build reads versions %d and %d); refusing to half-open it",
			dir, man.Version, manifestVersionNoHashes, manifestVersion)
	}
	first, err := ParseDay(man.FirstDay)
	if err != nil {
		return nil, fmt.Errorf("toplist: archive %s: bad first_day: %w", dir, err)
	}
	last, err := ParseDay(man.LastDay)
	if err != nil {
		return nil, fmt.Errorf("toplist: archive %s: bad last_day: %w", dir, err)
	}
	if last < first {
		return nil, fmt.Errorf("toplist: archive %s: last %v < first %v", dir, last, first)
	}
	ds := &DiskStore{
		dir:     dir,
		man:     man,
		first:   first,
		last:    last,
		present: make(map[string][]bool),
		cache:   cache.New[storeKey, *List](0),
	}
	for _, p := range man.Providers {
		bitmap := make([]bool, ds.daysLocked())
		entries, err := os.ReadDir(filepath.Join(dir, p))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		for _, e := range entries {
			name, ok := strings.CutSuffix(e.Name(), snapshotExt)
			if !ok {
				continue
			}
			d, err := ParseDay(name)
			if err != nil || d < first || d > last {
				continue
			}
			bitmap[int(d-first)] = true
		}
		ds.present[p] = bitmap
	}
	return ds, nil
}

// Dir returns the archive directory.
func (ds *DiskStore) Dir() string { return ds.dir }

// Scale returns the scale name recorded in the manifest ("" when the
// producer did not record one).
func (ds *DiskStore) Scale() string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.man.Scale
}

// SetScale records the producing scale's name in the manifest.
func (ds *DiskStore) SetScale(name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.man.Scale = name
	return ds.flushManifestLocked()
}

// First returns the first day covered.
func (ds *DiskStore) First() Day {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.first
}

// Last returns the last day covered.
func (ds *DiskStore) Last() Day {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.last
}

// Days returns the number of days covered.
func (ds *DiskStore) Days() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.daysLocked()
}

func (ds *DiskStore) daysLocked() int { return int(ds.last-ds.first) + 1 }

// Providers returns provider names in insertion order.
func (ds *DiskStore) Providers() []string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return append([]string(nil), ds.man.Providers...)
}

// ExtendTo grows the covered day range so Put accepts days up to last
// — a live collector following a still-publishing source extends its
// store as the publisher's index advances. It never shrinks the range.
func (ds *DiskStore) ExtendTo(last Day) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if last <= ds.last {
		return nil
	}
	grow := int(last - ds.last)
	for p, bitmap := range ds.present {
		ds.present[p] = append(bitmap, make([]bool, grow)...)
	}
	ds.last = last
	ds.man.LastDay = last.String()
	return ds.flushManifestLocked()
}

// Expect declares the providers the archive must contain for Complete
// to hold, recorded durably in the manifest; Missing reports gaps
// against this set. Calling it again replaces the previous
// expectation.
func (ds *DiskStore) Expect(providers ...string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.man.Expected = append([]string(nil), providers...)
	return ds.flushManifestLocked()
}

// Expected returns the declared provider set (nil when none was
// declared).
func (ds *DiskStore) Expected() []string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return append([]string(nil), ds.man.Expected...)
}

// Has reports whether the snapshot is already stored, without decoding
// it.
func (ds *DiskStore) Has(provider string, day Day) bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if day < ds.first || day > ds.last {
		return false
	}
	bitmap, ok := ds.present[provider]
	return ok && bitmap[int(day-ds.first)]
}

func (ds *DiskStore) path(provider string, day Day) string {
	return filepath.Join(ds.dir, provider, day.String()+snapshotExt)
}

// Put stores a snapshot durably. Days outside the store range or nil
// lists are rejected, matching Archive semantics.
func (ds *DiskStore) Put(provider string, day Day, l *List) error {
	if l == nil {
		return fmt.Errorf("toplist: nil list")
	}
	data, err := EncodeSnapshot(l)
	if err != nil {
		return err
	}
	return ds.store(provider, day, data)
}

// PutRaw stores an already-encoded snapshot document — the gzip CSV
// bytes a DiskStore keeps on disk and the wire API serves — without
// re-encoding it, the write half of the serving fast path (collectd's
// peer gap-fill copies compressed bytes straight from the wire to
// disk). The document is decoded once for validation before anything
// is written, so a corrupted transfer can never enter the store.
func (ds *DiskStore) PutRaw(provider string, day Day, data []byte) error {
	if _, err := DecodeSnapshot(data); err != nil {
		return fmt.Errorf("toplist: raw snapshot for %s %v does not decode: %w", provider, day, err)
	}
	return ds.store(provider, day, data)
}

// store is the shared Put/PutRaw write path for an encoded document:
// range check, provider registration, the atomic write, presence and
// content-hash bookkeeping, and cache invalidation — all but the hash
// under the store lock.
func (ds *DiskStore) store(provider string, day Day, data []byte) error {
	hash := ContentHash(data)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if day < ds.first || day > ds.last {
		return fmt.Errorf("toplist: day %v outside archive range [%v,%v]", day, ds.first, ds.last)
	}
	if _, ok := ds.present[provider]; !ok {
		if err := os.MkdirAll(filepath.Join(ds.dir, provider), 0o755); err != nil {
			return err
		}
		ds.present[provider] = make([]bool, ds.daysLocked())
		ds.man.Providers = append(ds.man.Providers, provider)
	}
	if err := writeFileAtomic(ds.path(provider, day), data); err != nil {
		return err
	}
	ds.present[provider][int(day-ds.first)] = true
	if ds.man.Hashes == nil {
		ds.man.Hashes = make(map[string]map[string]string)
	}
	if ds.man.Hashes[provider] == nil {
		ds.man.Hashes[provider] = make(map[string]string)
	}
	ds.man.Hashes[provider][day.String()] = hash
	// Deliberately not cached: a write-through cache would make a
	// streaming run teeing into the store retain every snapshot in
	// memory — the exact materialisation streaming exists to avoid.
	// Readers pay one decode per snapshot via Get instead. The delete
	// also invalidates any memoized decode failure for this slot, so a
	// rewrite of a corrupt snapshot becomes readable again.
	ds.cache.Remove(storeKey{provider, day})
	// The manifest is flushed per write because it now carries the
	// snapshot's content hash; a crash between rename and flush leaves
	// a readable slot without a hash, which simply serves through the
	// decode path until the next write lands.
	return ds.flushManifestLocked()
}

// writeFileAtomic writes data to path via temp file + rename, the
// crash discipline every snapshot write and the manifest flush use.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	return os.Rename(tmp, path)
}

// Get returns the snapshot for provider on day, or nil if absent.
// Decoded lists are cached and decodes are single-flight: concurrent
// readers of the same uncached snapshot wait for one open+gunzip+parse
// instead of each doing their own, so repeated analysis passes over
// the same store pay the disk and gzip cost once per snapshot. Decode
// failures are memoized the same way — a corrupt snapshot is read once
// and then served as nil until a Put replaces it. Missing still
// reports a corrupt snapshot as present, so operators can spot
// corruption by comparing Get against Missing.
func (ds *DiskStore) Get(provider string, day Day) *List {
	if !ds.Has(provider, day) {
		return nil
	}
	// A Put landing during the decode removes the entry: waiters on
	// this decode still get its result, and later Gets decode the
	// replacement fresh. The only fill that fails is a corrupt verdict
	// gone stale under a repairing Put (see memoizeCorrupt); a reader
	// that joined it decodes the repaired slot instead.
	for {
		l, err := ds.cache.Do(context.TODO(), storeKey{provider, day}, nil, func() (*List, error) {
			l, _ := ds.readSnapshot(ds.path(provider, day))
			return l, nil
		})
		if err == nil {
			return l
		}
	}
}

func (ds *DiskStore) readSnapshot(path string) (*List, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

// RawHash returns the content hash persisted for provider on day at
// Put time, or "" when the slot is absent or was written by a store
// that predates persisted hashes — the cheap no-I/O probe the archive
// server keys its raw-path decision, blob cache, and ETags on. It
// implements RawSource.
func (ds *DiskStore) RawHash(provider string, day Day) string {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if day < ds.first || day > ds.last {
		return ""
	}
	bitmap, ok := ds.present[provider]
	if !ok || !bitmap[int(day-ds.first)] {
		return ""
	}
	return ds.man.Hashes[provider][day.String()]
}

// GetRaw returns the stored gzip document and persisted content hash
// for provider on day without decompressing it — the zero-copy read
// the archive server's fast path serves. It implements RawSource.
//
// (nil, nil) means there are no raw bytes to serve — the slot is
// absent, or has no persisted hash (written before hashes existed) —
// and the caller should read through Get instead. An error wrapping
// ErrCorruptSnapshot means the slot is present but must not be served:
// either a previous decode already settled it as corrupt (Get,
// Verify), or the bytes read here fail the persisted-hash check — in
// which case the failure is memoized exactly as a failed Get would be,
// so Corrupt() lists the slot and a Put over it heals the listing.
func (ds *DiskStore) GetRaw(provider string, day Day) (*RawSnapshot, error) {
	key := storeKey{provider, day}
	ds.mu.RLock()
	if day < ds.first || day > ds.last {
		ds.mu.RUnlock()
		return nil, nil
	}
	bitmap, ok := ds.present[provider]
	if !ok || !bitmap[int(day-ds.first)] {
		ds.mu.RUnlock()
		return nil, nil
	}
	hash := ds.man.Hashes[provider][day.String()]
	ds.mu.RUnlock()
	// An in-flight decode does not count: the raw read is independent
	// of it.
	if l, ok := ds.cache.Get(key); ok && l == nil {
		return nil, fmt.Errorf("toplist: %s %v: %w", provider, day, ErrCorruptSnapshot)
	}
	if hash == "" {
		return nil, nil
	}
	data, err := os.ReadFile(ds.path(provider, day))
	if err != nil {
		return nil, err
	}
	if ContentHash(data) != hash {
		ds.memoizeCorrupt(key, hash)
		return nil, fmt.Errorf("toplist: %s %v: stored bytes do not match persisted hash: %w", provider, day, ErrCorruptSnapshot)
	}
	return &RawSnapshot{Data: data, Hash: hash}, nil
}

// errStaleVerdict fails a memoizeCorrupt fill whose slot was rewritten
// after the verdict was reached, so the verdict is not memoized.
var errStaleVerdict = errors.New("toplist: slot rewritten since it was judged corrupt")

// memoizeCorrupt settles a slot's cache entry as a decode failure
// without reading the file again, so Corrupt() lists it and both read
// paths refuse it until a Put repairs the slot. A slot that already
// has an entry keeps it. hashWas is the persisted hash the verdict was
// reached against: if a concurrent Put has since replaced the slot
// (new hash), the verdict is stale and is dropped instead of poisoning
// the fresh write. The check runs inside the fill, after the entry is
// installed, so a Put either changes the hash before the check or
// removes the entry after it; a Get that joins a stale verdict sees
// its error and decodes again.
func (ds *DiskStore) memoizeCorrupt(key storeKey, hashWas string) {
	// Only the memoized verdict matters; a stale one fails the fill.
	_, _ = ds.cache.Do(context.TODO(), key, nil, func() (*List, error) {
		ds.mu.RLock()
		defer ds.mu.RUnlock()
		if ds.man.Hashes[key.provider][key.day.String()] != hashWas {
			return nil, errStaleVerdict
		}
		return nil, nil
	})
}

// Verify eagerly sweeps the whole store: every present snapshot is
// read back and checked — persisted hash first (catches bit rot and
// external modification), then a full gunzip+parse — without waiting
// for a reader to trip over it. That ordering is what makes raw
// serving safe to switch on: the sweep runs before traffic, so a slot
// that cannot decode is already refused when the first request
// arrives. Failures are memoized exactly as a failed Get would be
// (Corrupt() lists them, both read paths refuse them, a Put repairs
// them); successfully decoded lists are NOT retained, so a sweep of an
// arbitrarily large archive stays O(1) in memory instead of
// materialising the read cache. Slots already settled in the cache —
// decoded fine, or already known corrupt — are not re-read. Returns
// the resulting Corrupt() listing.
func (ds *DiskStore) Verify() []Snapshot {
	return ds.VerifyReport().Corrupt
}

// VerifyReport is what a Verify sweep found, split by how much each
// slot could be checked. A v1 store upgraded in place has no persisted
// hashes, so its slots can only be decode-checked — operators deciding
// whether raw serving is fully guarded need that count, not just the
// corruption listing.
type VerifyReport struct {
	// HashVerified counts healthy slots checked against their persisted
	// content hash (and decoded).
	HashVerified int
	// DecodeOnly counts healthy slots with no persisted hash — written
	// before hashes existed — where only the gunzip+parse check could
	// run. A rewrite (Put) upgrades them.
	DecodeOnly int
	// Corrupt lists the slots that failed either check, in Corrupt()
	// order.
	Corrupt []Snapshot
}

// VerifyReport runs the Verify sweep and reports what it could check:
// hash-verified slots, decode-only (hashless v1-upgrade) slots, and
// the corrupt listing. Verify() is this, keeping only the listing.
func (ds *DiskStore) VerifyReport() VerifyReport {
	ds.mu.RLock()
	var slots []storeKey
	hashed := make(map[storeKey]bool)
	for _, p := range ds.man.Providers {
		for i, present := range ds.present[p] {
			if present {
				key := storeKey{p, ds.first + Day(i)}
				slots = append(slots, key)
				if ds.man.Hashes[p][key.day.String()] != "" {
					hashed[key] = true
				}
			}
		}
	}
	ds.mu.RUnlock()
	for _, key := range slots {
		ds.verifySlot(key)
	}
	rep := VerifyReport{Corrupt: ds.Corrupt()}
	bad := make(map[storeKey]bool, len(rep.Corrupt))
	for _, s := range rep.Corrupt {
		bad[storeKey{s.Provider, s.Day}] = true
	}
	for _, key := range slots {
		switch {
		case bad[key]:
		case hashed[key]:
			rep.HashVerified++
		default:
			rep.DecodeOnly++
		}
	}
	return rep
}

// verifySlot checks one present snapshot and memoizes a failure; see
// Verify.
func (ds *DiskStore) verifySlot(key storeKey) {
	if _, ok := ds.cache.Get(key); ok {
		return // settled: decoded fine, or already known corrupt
	}
	ds.mu.RLock()
	hash := ds.man.Hashes[key.provider][key.day.String()]
	ds.mu.RUnlock()
	data, err := os.ReadFile(ds.path(key.provider, key.day))
	if err != nil {
		// Present per the bitmap but unreadable — as corrupt as a file
		// that fails to decode.
		ds.memoizeCorrupt(key, hash)
		return
	}
	if hash != "" && ContentHash(data) != hash {
		ds.memoizeCorrupt(key, hash)
		return
	}
	if _, err := DecodeSnapshot(data); err != nil {
		ds.memoizeCorrupt(key, hash)
	}
}

// Missing returns one stub Snapshot per absent (provider, day) slot,
// with the same contract as Archive.Missing: every day of every
// inserted provider, plus every day of each expected-but-absent
// provider, ordered by provider (expected first) and day ascending.
func (ds *DiskStore) Missing() []Snapshot {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.missingLocked()
}

func (ds *DiskStore) missingLocked() []Snapshot {
	var out []Snapshot
	seen := make(map[string]bool, len(ds.man.Expected))
	scan := func(p string) {
		bitmap := ds.present[p]
		if bitmap == nil {
			for d := ds.first; d <= ds.last; d++ {
				out = append(out, Snapshot{Provider: p, Day: d})
			}
			return
		}
		for i, ok := range bitmap {
			if !ok {
				out = append(out, Snapshot{Provider: p, Day: ds.first + Day(i)})
			}
		}
	}
	for _, p := range ds.man.Expected {
		seen[p] = true
		scan(p)
	}
	for _, p := range ds.man.Providers {
		if !seen[p] {
			scan(p)
		}
	}
	return out
}

// Corrupt returns one stub Snapshot per (provider, day) whose file is
// present but whose decode failed — the memoized failures Get, GetRaw,
// and Verify have accumulated — ordered by provider (manifest order)
// and day ascending. It pairs with Missing: Missing lists what was
// never written, Corrupt lists what was written and cannot be read
// back. Only slots a read has actually probed are listed (decodes are
// lazy); Verify() sweeps the whole store eagerly and settles every
// slot up front. A Put over a corrupt slot clears its entry, so a
// re-collection pass (cmd/collectd knows how to fetch individual days)
// empties the listing as it repairs.
func (ds *DiskStore) Corrupt() []Snapshot {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	var found []Snapshot
	for key, l := range ds.cache.All() {
		// A memoized nil decode is corruption by construction: Get
		// only fills entries for slots the presence bitmap says were
		// written.
		if l == nil {
			found = append(found, Snapshot{Provider: key.provider, Day: key.day})
		}
	}
	return SortSnapshots(found, ds.man.Providers)
}

// Complete reports whether the store holds every snapshot it should —
// the Archive.Complete contract over the durable manifest. The
// provider count and the gap scan are evaluated under one RLock, so a
// concurrent Put or ExtendTo can never slip between the two checks and
// make Complete report a state the store was never in.
func (ds *DiskStore) Complete() bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return len(ds.present) > 0 && len(ds.missingLocked()) == 0
}

// RecordTiming durably notes an observed experiment wall time in the
// manifest, keyed by experiment ID. The experiment pool calls it after
// every run, so a fresh process reopening the archive starts its first
// pooled round already calibrated (see Timings).
func (ds *DiskStore) RecordTiming(id string, d time.Duration) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.man.Timings == nil {
		ds.man.Timings = make(map[string]int64)
	}
	ds.man.Timings[id] = int64(d / time.Microsecond)
	return ds.flushManifestLocked()
}

// Timings returns the experiment wall times recorded in the manifest
// (nil when none were recorded).
func (ds *DiskStore) Timings() map[string]time.Duration {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if len(ds.man.Timings) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(ds.man.Timings))
	for id, us := range ds.man.Timings {
		out[id] = time.Duration(us) * time.Microsecond
	}
	return out
}

// flushManifestLocked rewrites manifest.json atomically; callers hold
// ds.mu. It always writes the current format, so the first write to a
// reopened version-1 archive upgrades its manifest in place.
func (ds *DiskStore) flushManifestLocked() error {
	ds.man.Version = manifestVersion
	raw, err := json.MarshalIndent(ds.man, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(ds.dir, manifestName), append(raw, '\n'))
}
