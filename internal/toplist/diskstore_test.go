package toplist

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// randomList builds a small list with names derived deterministically
// from the rng.
func randomList(rng *rand.Rand) *List {
	n := 1 + rng.Intn(20)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("d%04d-%02d.example.com", rng.Intn(5000), i)
	}
	return New(names)
}

// TestDiskStoreRoundTripProperty is the round-trip property pinning
// DiskStore to Archive: for random day ranges, provider subsets, and
// gap patterns, Put into both stores, reopen the disk store cold, and
// require bitwise-equal Get results plus Missing()/Complete() parity
// via the manifest.
func TestDiskStoreRoundTripProperty(t *testing.T) {
	providers := []string{"alexa", "umbrella", "majestic", "quantcast"}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		first := Day(rng.Intn(40) - 20)
		days := 1 + rng.Intn(12)
		last := first + Day(days-1)

		dir := t.TempDir()
		disk, err := CreateDiskStore(dir, first, last)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewArchive(first, last)

		nProviders := 1 + rng.Intn(len(providers))
		expected := providers[:1+rng.Intn(nProviders)]
		if err := disk.Expect(expected...); err != nil {
			t.Fatal(err)
		}
		mem.Expect(expected...)

		for _, p := range providers[:nProviders] {
			for d := first; d <= last; d++ {
				if rng.Float64() < 0.25 {
					continue // leave a gap
				}
				l := randomList(rng)
				if err := disk.Put(p, d, l); err != nil {
					t.Fatalf("trial %d: disk put: %v", trial, err)
				}
				if err := mem.Put(p, d, l); err != nil {
					t.Fatalf("trial %d: mem put: %v", trial, err)
				}
			}
		}

		// Reopen cold so every read decodes from disk, not the write
		// cache.
		reopened, err := OpenArchive(dir)
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		for _, src := range []Source{disk, reopened} {
			if src.First() != mem.First() || src.Last() != mem.Last() || src.Days() != mem.Days() {
				t.Fatalf("trial %d: range (%v,%v,%d) vs (%v,%v,%d)", trial,
					src.First(), src.Last(), src.Days(), mem.First(), mem.Last(), mem.Days())
			}
			if !reflect.DeepEqual(src.Providers(), mem.Providers()) {
				t.Fatalf("trial %d: providers %v vs %v", trial, src.Providers(), mem.Providers())
			}
			for _, p := range providers {
				for d := first - 2; d <= last+2; d++ {
					want, got := mem.Get(p, d), src.Get(p, d)
					if (want == nil) != (got == nil) {
						t.Fatalf("trial %d: %s %v: nil mismatch (mem %v, disk %v)", trial, p, d, want != nil, got != nil)
					}
					if want != nil && !reflect.DeepEqual(want.Names(), got.Names()) {
						t.Fatalf("trial %d: %s %v: names differ", trial, p, d)
					}
				}
			}
		}
		if !reflect.DeepEqual(reopened.Expected(), mem.Expected()) {
			t.Fatalf("trial %d: expected set %v vs %v after reopen", trial, reopened.Expected(), mem.Expected())
		}
		if !reflect.DeepEqual(reopened.Missing(), mem.Missing()) {
			t.Fatalf("trial %d: Missing differs after reopen:\n disk %v\n mem  %v", trial, reopened.Missing(), mem.Missing())
		}
		if reopened.Complete() != mem.Complete() {
			t.Fatalf("trial %d: Complete %v vs %v", trial, reopened.Complete(), mem.Complete())
		}
	}
}

func TestDiskStoreRejectsBadPuts(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 4, New([]string{"a.com"})); err == nil {
		t.Fatal("day beyond range accepted")
	}
	if err := ds.Put("alexa", -1, New([]string{"a.com"})); err == nil {
		t.Fatal("day before range accepted")
	}
	if err := ds.Put("alexa", 0, nil); err == nil {
		t.Fatal("nil list accepted")
	}
}

func TestDiskStoreCreateOverExistingFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateDiskStore(dir, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateDiskStore(dir, 0, 1); err == nil {
		t.Fatal("second create over the same dir should fail")
	}
	if _, err := OpenArchive(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("open of a dir without a manifest should fail")
	}
}

func TestDiskStoreExtendTo(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 0, New([]string{"a.com"})); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 2, New([]string{"late.com"})); err == nil {
		t.Fatal("day 2 accepted before extend")
	}
	if err := ds.ExtendTo(4); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 2, New([]string{"late.com"})); err != nil {
		t.Fatal(err)
	}
	// Extending never shrinks.
	if err := ds.ExtendTo(1); err != nil {
		t.Fatal(err)
	}
	if ds.Last() != 4 || ds.Days() != 5 {
		t.Fatalf("range after extend: last %v, days %d", ds.Last(), ds.Days())
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Days() != 5 || reopened.Get("alexa", 2) == nil {
		t.Fatal("extension not durable")
	}
	if !reopened.Has("alexa", 0) || reopened.Has("alexa", 1) {
		t.Fatal("Has disagrees with stored set")
	}
}

// TestDiskStoreAtomicity: a leftover temp file (simulating a crash
// mid-write) is neither served nor counted as present after reopen.
func TestDiskStoreCrashLeftoversIgnored(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 0, New([]string{"a.com"})); err != nil {
		t.Fatal(err)
	}
	// Fake an interrupted write of day 1.
	tmp := filepath.Join(dir, "alexa", Day(1).String()+snapshotExt+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Has("alexa", 1) || reopened.Get("alexa", 1) != nil {
		t.Fatal("partial temp file served as a snapshot")
	}
	if len(reopened.Missing()) != 1 {
		t.Fatalf("Missing = %v, want exactly day 1", reopened.Missing())
	}
}

// TestDiskStoreConcurrentGet exercises the read cache under parallel
// readers (the experiment pool fans out over one Source).
func TestDiskStoreConcurrentGet(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Day][]string)
	for d := Day(0); d <= 9; d++ {
		l := New([]string{fmt.Sprintf("rank1-%d.com", d), fmt.Sprintf("rank2-%d.com", d)})
		if err := ds.Put("alexa", d, l); err != nil {
			t.Fatal(err)
		}
		want[d] = l.Names()
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				for d := Day(0); d <= 9; d++ {
					l := reopened.Get("alexa", d)
					if l == nil || !reflect.DeepEqual(l.Names(), want[d]) {
						errs <- fmt.Errorf("day %v: wrong snapshot", d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDiskStoreCorruptSnapshot pins the corruption semantics: a
// snapshot whose file cannot be decoded serves nil from Get while Has
// still reports it and Missing does NOT list it — present-but-corrupt
// is distinguishable from absent by comparing the two. The decode
// failure is memoized (no re-read per call) until a Put replaces the
// snapshot and makes the slot readable again.
func TestDiskStoreCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := New([]string{"a.com", "b.com"})
	for d := Day(0); d <= 2; d++ {
		if err := ds.Put("alexa", d, good); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt day 1 behind the store's back.
	path := filepath.Join(dir, "alexa", Day(1).String()+snapshotExt)
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Get("alexa", 1); got != nil {
		t.Fatal("corrupt snapshot decoded")
	}
	if !reopened.Has("alexa", 1) {
		t.Fatal("Has lost the corrupt-but-present snapshot")
	}
	if missing := reopened.Missing(); len(missing) != 0 {
		t.Fatalf("Missing reports corrupt snapshot as absent: %v", missing)
	}

	// The failure is memoized: fixing the bytes behind the store's
	// back is NOT picked up (no disk re-read per call)...
	ds2, err := CreateDiskStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.Put("alexa", 0, good); err != nil {
		t.Fatal(err)
	}
	fixed, err := os.ReadFile(filepath.Join(ds2.Dir(), "alexa", Day(0).String()+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fixed, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopened.Get("alexa", 1); got != nil {
		t.Fatal("memoized decode failure was silently dropped")
	}
	// ...while a Put through the store invalidates the memo.
	repl := New([]string{"replaced.com"})
	if err := reopened.Put("alexa", 1, repl); err != nil {
		t.Fatal(err)
	}
	got := reopened.Get("alexa", 1)
	if got == nil || !reflect.DeepEqual(got.Names(), repl.Names()) {
		t.Fatal("Put did not make the corrupt slot readable again")
	}
}

// TestDiskStoreGetSingleFlight: concurrent readers of the same
// uncached snapshot share one decode — every caller gets the same
// *List, not a private copy from a duplicated open+gunzip+parse.
func TestDiskStoreGetSingleFlight(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 0, New([]string{"a.com", "b.com", "c.com"})); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [readers]*List
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = reopened.Get("alexa", 0)
		}()
	}
	close(start)
	wg.Wait()
	for i := 1; i < readers; i++ {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("reader %d decoded its own copy (%p vs %p)", i, got[i], got[0])
		}
	}
}

// TestDiskStoreConcurrentMixedOps hammers Get/Put/ExtendTo/Complete/
// Missing from many goroutines; run under -race this pins the locking
// (notably Complete's single-RLock evaluation) and the single-flight
// cache against data races.
func TestDiskStoreConcurrentMixedOps(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Expect("alexa", "umbrella"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func() { // writer: fills and extends
			defer wg.Done()
			for i := 0; i < 30; i++ {
				d := Day(i % 8)
				if err := ds.ExtendTo(d); err != nil {
					t.Error(err)
					return
				}
				if d <= ds.Last() {
					l := New([]string{fmt.Sprintf("w%d-%d.com", w, i)})
					p := "alexa"
					if i%2 == 1 {
						p = "umbrella"
					}
					if err := ds.Put(p, d%5, l); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		go func() { // reader
			defer wg.Done()
			for i := 0; i < 60; i++ {
				for d := Day(0); d <= 7; d++ {
					ds.Get("alexa", d)
					ds.Get("umbrella", d)
				}
			}
		}()
		go func() { // completeness observer
			defer wg.Done()
			for i := 0; i < 60; i++ {
				complete := ds.Complete()
				missing := ds.Missing()
				// Complete and a Missing scan race with writers, but
				// Complete itself must be internally consistent: it can
				// never be true while its own evaluation saw gaps.
				if complete && len(missing) > 0 && ds.Complete() && len(ds.Missing()) > 0 {
					// Re-check once to filter genuine interleavings.
					t.Error("Complete() true while Missing() persistently non-empty")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestOpenArchiveRejectsUnknownVersion: a manifest from a future
// format fails loudly at open instead of half-opening.
func TestOpenArchiveRejectsUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateDiskStore(dir, 0, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	futur := []byte(strings.Replace(string(raw), fmt.Sprintf(`"version": %d`, manifestVersion), `"version": 99`, 1))
	if reflect.DeepEqual(raw, futur) {
		t.Fatal("test did not rewrite the version field")
	}
	if err := os.WriteFile(path, futur, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenArchive(dir)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future-version archive opened: err = %v", err)
	}
}

// TestDiskStoreTimingsRoundTrip: observed experiment wall times
// recorded into the manifest survive a reopen.
func TestDiskStoreTimingsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Timings() != nil {
		t.Fatal("fresh store reports timings")
	}
	if err := ds.RecordTiming("fig5", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ds.RecordTiming("table1", 1500*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := reopened.Timings()
	want := map[string]time.Duration{
		"fig5":   90 * time.Second,
		"table1": 1500 * time.Microsecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timings after reopen: %v, want %v", got, want)
	}
}

// TestDiskStoreCorruptListing: Corrupt() surfaces exactly the memoized
// decode failures — nothing before a probe, each corrupt slot after
// its Get, ordered by provider (manifest order) then day — and a Put
// repairing a slot removes it from the listing. This is the
// Verify()-lite operators pair with Missing(): absent vs unreadable
// without probing Get per day themselves.
func TestDiskStoreCorruptListing(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"umbrella", "alexa"} { // manifest order: umbrella first
		for d := Day(0); d <= 1; d++ {
			if err := ds.Put(p, d, New([]string{p + ".com"})); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Corrupt three slots behind the store's back.
	for _, s := range []Snapshot{{Provider: "alexa", Day: 1}, {Provider: "alexa", Day: 0}, {Provider: "umbrella", Day: 1}} {
		path := filepath.Join(dir, s.Provider, s.Day.String()+snapshotExt)
		if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing probed yet: the listing is empty (decodes are lazy).
	if c := reopened.Corrupt(); len(c) != 0 {
		t.Fatalf("Corrupt() before any Get = %v", c)
	}
	// Sweep every slot, then read the listing.
	for _, p := range reopened.Providers() {
		for d := reopened.First(); d <= reopened.Last(); d++ {
			reopened.Get(p, d)
		}
	}
	want := []Snapshot{
		{Provider: "umbrella", Day: 1},
		{Provider: "alexa", Day: 0},
		{Provider: "alexa", Day: 1},
	}
	got := reopened.Corrupt()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Corrupt() = %v, want %v", got, want)
	}
	// Missing stays empty: corrupt is present-but-unreadable.
	if m := reopened.Missing(); len(m) != 0 {
		t.Fatalf("Missing() = %v, want none", m)
	}
	// Repairing one slot clears its entry.
	if err := reopened.Put("alexa", 0, New([]string{"fixed.com"})); err != nil {
		t.Fatal(err)
	}
	if reopened.Get("alexa", 0) == nil {
		t.Fatal("repaired slot still nil")
	}
	got = reopened.Corrupt()
	want = []Snapshot{{Provider: "umbrella", Day: 1}, {Provider: "alexa", Day: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Corrupt() after repair = %v, want %v", got, want)
	}
}

// TestDiskStoreStaleVerdictAfterRepair: a corrupt verdict reached
// against a slot's old bytes, settling only after a Put has repaired
// the slot, is dropped — and a Get that joined it while it was in
// flight reads the repaired list instead of reporting the slot corrupt.
func TestDiskStoreStaleVerdictAfterRepair(t *testing.T) {
	ds, err := CreateDiskStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 0, New([]string{"old.com"})); err != nil {
		t.Fatal(err)
	}
	key := storeKey{"alexa", 0}
	oldHash := ds.RawHash("alexa", 0)
	if err := ds.Put("alexa", 0, New([]string{"new.com"})); err != nil {
		t.Fatal(err)
	}

	// A verdict landing after the repair is not memoized.
	ds.memoizeCorrupt(key, oldHash)
	if c := ds.Corrupt(); len(c) != 0 {
		t.Fatalf("Corrupt() after a stale verdict = %v, want none", c)
	}
	if l := ds.Get("alexa", 0); l == nil || l.Name(1) != "new.com" {
		t.Fatalf("Get after a stale verdict = %v, want the repaired list", l)
	}

	// A Get joining a stale verdict still in flight (its fill held
	// where memoizeCorrupt's waits for the store lock) decodes afresh.
	ds.cache.Remove(key)
	installed, release := make(chan struct{}), make(chan struct{})
	verdict := make(chan error)
	go func() {
		_, err := ds.cache.Do(context.Background(), key, nil, func() (*List, error) {
			close(installed)
			<-release
			return nil, errStaleVerdict
		})
		verdict <- err
	}()
	<-installed
	got := make(chan *List)
	go func() { got <- ds.Get("alexa", 0) }()
	time.Sleep(20 * time.Millisecond) // let the Get join the held verdict
	close(release)
	if err := <-verdict; err != errStaleVerdict {
		t.Fatalf("held verdict returned %v", err)
	}
	if l := <-got; l == nil || l.Name(1) != "new.com" {
		t.Fatalf("Get that joined a stale verdict = %v, want the repaired list", l)
	}
	if c := ds.Corrupt(); len(c) != 0 {
		t.Fatalf("Corrupt() = %v, want none", c)
	}
}

// TestDiskStoreRawReadRoundTrip: Put persists a content hash in the
// manifest, GetRaw returns the exact on-disk bytes with that hash, and
// both survive a cold reopen — the contract the serving fast path's
// restart-stable ETags are built on.
func TestDiskStoreRawReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := New([]string{"a.com", "b.org", "c.net"})
	if err := ds.Put("alexa", 0, l); err != nil {
		t.Fatal(err)
	}
	hash := ds.RawHash("alexa", 0)
	if hash == "" {
		t.Fatal("Put did not persist a content hash")
	}
	disk, err := os.ReadFile(filepath.Join(dir, "alexa", Day(0).String()+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if got := ContentHash(disk); got != hash {
		t.Fatalf("persisted hash %s != ContentHash(disk bytes) %s", hash, got)
	}
	raw, err := ds.GetRaw("alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw == nil || !reflect.DeepEqual(raw.Data, disk) || raw.Hash != hash {
		t.Fatal("GetRaw does not return the on-disk bytes + persisted hash")
	}
	// Absent slots have no raw read and no hash.
	if h := ds.RawHash("alexa", 1); h != "" {
		t.Fatalf("absent slot has hash %q", h)
	}
	if raw, err := ds.GetRaw("alexa", 1); raw != nil || err != nil {
		t.Fatalf("absent slot GetRaw = %v, %v; want nil, nil", raw, err)
	}
	// Cold reopen: same hash, same bytes.
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h := reopened.RawHash("alexa", 0); h != hash {
		t.Fatalf("hash after reopen = %q, want %q", h, hash)
	}
	raw2, err := reopened.GetRaw("alexa", 0)
	if err != nil || raw2 == nil || !reflect.DeepEqual(raw2.Data, disk) {
		t.Fatalf("GetRaw after reopen = %v, %v", raw2, err)
	}
}

// TestDiskStorePutRaw: an encoded document round-trips byte-for-byte
// through PutRaw (the peer gap-fill path), while a document that does
// not decode is rejected before anything touches disk.
func TestDiskStorePutRaw(t *testing.T) {
	src := t.TempDir()
	from, err := CreateDiskStore(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := New([]string{"x.com", "y.org"})
	if err := from.Put("alexa", 0, l); err != nil {
		t.Fatal(err)
	}
	raw, err := from.GetRaw("alexa", 0)
	if err != nil || raw == nil {
		t.Fatalf("GetRaw = %v, %v", raw, err)
	}

	dst := t.TempDir()
	to, err := CreateDiskStore(dst, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := to.PutRaw("alexa", 0, raw.Data); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(src, "alexa", Day(0).String()+snapshotExt))
	b, _ := os.ReadFile(filepath.Join(dst, "alexa", Day(0).String()+snapshotExt))
	if !reflect.DeepEqual(a, b) || len(a) == 0 {
		t.Fatal("PutRaw did not replicate the document byte-for-byte")
	}
	if to.RawHash("alexa", 0) != from.RawHash("alexa", 0) {
		t.Fatal("replicated slot's persisted hash differs")
	}
	got := to.Get("alexa", 0)
	if got == nil || got.Len() != l.Len() || got.Name(1) != l.Name(1) {
		t.Fatalf("replicated slot decodes to %v", got)
	}

	if err := to.PutRaw("alexa", 0, []byte("not a gzip document")); err == nil {
		t.Fatal("PutRaw accepted an undecodable document")
	}
	if to.Get("alexa", 0) == nil {
		t.Fatal("rejected PutRaw destroyed the existing slot")
	}
}

// TestDiskStoreVerifySweep is the eager-integrity acceptance scenario:
// corruption injected behind the store's back is detected by Verify()
// before any reader ever requests the slot, and both read paths then
// refuse it until a Put repairs it.
func TestDiskStoreVerifySweep(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for d := Day(0); d <= 2; d++ {
		if err := ds.Put("alexa", d, New([]string{fmt.Sprintf("day%d.com", d)})); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt day 1 on disk and reopen cold: no reader has touched
	// anything yet.
	path := filepath.Join(dir, "alexa", Day(1).String()+snapshotExt)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err = OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c := ds.Corrupt(); len(c) != 0 {
		t.Fatalf("Corrupt() before any read = %v", c)
	}
	corrupt := ds.Verify()
	if len(corrupt) != 1 || corrupt[0].Provider != "alexa" || corrupt[0].Day != 1 {
		t.Fatalf("Verify() = %v, want [alexa 1]", corrupt)
	}
	if _, err := ds.GetRaw("alexa", 1); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("GetRaw after Verify = %v, want corrupt error", err)
	}
	if ds.Get("alexa", 1) != nil {
		t.Fatal("Get served a slot Verify flagged")
	}
	// Healthy slots are untouched — and Verify did not materialise
	// them into the decode cache (a second Verify re-reads nothing
	// settled, and Get still works).
	if ds.Get("alexa", 0) == nil || ds.Get("alexa", 2) == nil {
		t.Fatal("Verify broke healthy slots")
	}
	// A Put over the corrupt slot repairs it.
	if err := ds.Put("alexa", 1, New([]string{"repaired.com"})); err != nil {
		t.Fatal(err)
	}
	if c := ds.Verify(); len(c) != 0 {
		t.Fatalf("Verify after repair = %v", c)
	}
	if got := ds.Get("alexa", 1); got == nil || got.Name(1) != "repaired.com" {
		t.Fatalf("repaired slot = %v", got)
	}
}

// TestDiskStoreVerifyCatchesHashMismatch: a snapshot replaced on disk
// by a different but well-formed document decodes fine — only the
// persisted hash can tell it is not what was stored. This is the
// tamper/bit-rot case hashing exists for.
func TestDiskStoreVerifyCatchesHashMismatch(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 0, New([]string{"original.com"})); err != nil {
		t.Fatal(err)
	}
	// Forge a valid document in place, bypassing the store.
	other := t.TempDir()
	forge, err := CreateDiskStore(other, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := forge.Put("alexa", 0, New([]string{"forged.com"})); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(other, "alexa", Day(0).String()+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "alexa", Day(0).String()+snapshotExt), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err = OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c := ds.Verify(); len(c) != 1 {
		t.Fatalf("Verify() = %v, want the hash-mismatched slot", c)
	}
	if _, err := ds.GetRaw("alexa", 0); err == nil {
		t.Fatal("GetRaw served bytes whose hash does not match the manifest")
	}
}

// TestOpenArchiveV1ManifestUpgrade: an archive written by the previous
// manifest format (version 1, no hashes) still opens and reads, raw
// access reports "no hash" rather than failing, and the first write
// upgrades the manifest in place — new slots get hashes, old slots
// keep serving through the decode path.
func TestOpenArchiveV1ManifestUpgrade(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("alexa", 0, New([]string{"old.com"})); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest as the version-1 format: drop the hashes,
	// set the old version number.
	manPath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["hashes"]; !ok {
		t.Fatal("manifest has no hashes block to strip")
	}
	delete(fields, "hashes")
	fields["version"] = manifestVersionNoHashes
	v1, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenArchive(dir)
	if err != nil {
		t.Fatalf("version-1 archive did not open: %v", err)
	}
	if got := ds.Get("alexa", 0); got == nil || got.Name(1) != "old.com" {
		t.Fatalf("v1 slot reads as %v", got)
	}
	if h := ds.RawHash("alexa", 0); h != "" {
		t.Fatalf("v1 slot reports hash %q, want none", h)
	}
	if raw, err := ds.GetRaw("alexa", 0); raw != nil || err != nil {
		t.Fatalf("v1 slot GetRaw = %v, %v; want nil, nil (decode-path fallback)", raw, err)
	}
	if c := ds.Verify(); len(c) != 0 {
		t.Fatalf("Verify over v1 archive = %v (decode check should still pass)", c)
	}

	// First write upgrades: manifest flushes as the current version and
	// the new slot is raw-readable; the old slot still has no hash.
	if err := ds.Put("alexa", 1, New([]string{"new.com"})); err != nil {
		t.Fatal(err)
	}
	if h := ds.RawHash("alexa", 1); h == "" {
		t.Fatal("post-upgrade write has no hash")
	}
	upgraded, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(upgraded), fmt.Sprintf(`"version": %d`, manifestVersion)) {
		t.Fatal("manifest not upgraded to the current version on write")
	}
	reopened, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.RawHash("alexa", 0) != "" || reopened.RawHash("alexa", 1) == "" {
		t.Fatal("upgrade changed the wrong slots' hashes")
	}
}

// TestVerifyReportCounts: the sweep's report splits healthy slots into
// hash-verified and decode-only (hashless v1-upgrade) counts, excludes
// corrupt slots from both, and Verify() stays the report's corrupt
// listing.
func TestVerifyReportCounts(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDiskStore(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for d := Day(0); d <= 2; d++ {
		if err := ds.Put("alexa", d, New([]string{"a.com", "b.org"})); err != nil {
			t.Fatal(err)
		}
	}
	// Strip day 0's hash from the manifest — the post-v1-upgrade state:
	// present, decodable, but nothing to hash-check against.
	manPath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	hashes := fields["hashes"].(map[string]any)["alexa"].(map[string]any)
	delete(hashes, Day(0).String())
	stripped, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rot day 2's file behind the store's back.
	if err := os.WriteFile(filepath.Join(dir, "alexa", Day(2).String()+".csv.gz"), []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := ds.VerifyReport()
	if rep.HashVerified != 1 {
		t.Fatalf("HashVerified = %d, want 1", rep.HashVerified)
	}
	if rep.DecodeOnly != 1 {
		t.Fatalf("DecodeOnly = %d, want 1", rep.DecodeOnly)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Day != 2 {
		t.Fatalf("Corrupt = %v, want alexa day 2", rep.Corrupt)
	}
	if got := ds.Verify(); len(got) != 1 || got[0] != rep.Corrupt[0] {
		t.Fatalf("Verify() = %v, want the report's corrupt listing", got)
	}
}
