package pack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/archived"
	"repro/internal/toplist"
)

// seedStore builds a DiskStore with a deterministic mix of snapshots
// and gaps, the raw material every pack test starts from.
func seedStore(t testing.TB, dir string) *toplist.DiskStore {
	t.Helper()
	store, err := toplist.CreateDiskStore(dir, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetScale("test"); err != nil {
		t.Fatal(err)
	}
	if err := store.Expect("alexa", "umbrella"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range []string{"alexa", "umbrella", "majestic"} {
		for d := toplist.Day(0); d <= 5; d++ {
			if p == "majestic" && d == 3 {
				continue // keep a gap
			}
			n := 3 + rng.Intn(10)
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("%s-%d-%d.example.com", p, d, i)
			}
			if err := store.Put(p, d, toplist.New(names)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

func packStore(t testing.TB, store *toplist.DiskStore) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "joint.pack")
	if err := Write(path, store); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPackRoundTrip pins the core contract: a pack written from a
// DiskStore reopens as a Source with the same range, providers,
// scale, expected set, per-slot decoded lists, and per-slot raw bytes
// and hashes.
func TestPackRoundTrip(t *testing.T) {
	store := seedStore(t, t.TempDir())
	p, err := OpenFile(packStore(t, store))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.First() != store.First() || p.Last() != store.Last() || p.Days() != store.Days() {
		t.Fatalf("range (%v,%v,%d), want (%v,%v,%d)",
			p.First(), p.Last(), p.Days(), store.First(), store.Last(), store.Days())
	}
	if !reflect.DeepEqual(p.Providers(), store.Providers()) {
		t.Fatalf("providers %v, want %v", p.Providers(), store.Providers())
	}
	if p.Scale() != "test" {
		t.Fatalf("scale %q", p.Scale())
	}
	if !reflect.DeepEqual(p.Expected(), store.Expected()) {
		t.Fatalf("expected %v, want %v", p.Expected(), store.Expected())
	}
	for _, prov := range store.Providers() {
		for d := store.First(); d <= store.Last(); d++ {
			want := store.Get(prov, d)
			got := p.Get(prov, d)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s %v: presence mismatch (pack %v, store %v)", prov, d, got != nil, want != nil)
			}
			if want == nil {
				if p.Has(prov, d) {
					t.Fatalf("%s %v: Has true for absent slot", prov, d)
				}
				continue
			}
			if !reflect.DeepEqual(got.Names(), want.Names()) {
				t.Fatalf("%s %v: decoded list differs", prov, d)
			}
			wantRaw, err := store.GetRaw(prov, d)
			if err != nil {
				t.Fatal(err)
			}
			gotRaw, err := p.GetRaw(prov, d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotRaw.Data, wantRaw.Data) {
				t.Fatalf("%s %v: raw bytes differ", prov, d)
			}
			if gotRaw.Hash != wantRaw.Hash || p.RawHash(prov, d) != store.RawHash(prov, d) {
				t.Fatalf("%s %v: hash mismatch", prov, d)
			}
		}
	}
	if n := p.Snapshots(); n != 17 {
		t.Fatalf("snapshot count %d, want 17", n)
	}
	if corrupt, err := p.Verify(); err != nil || len(corrupt) != 0 {
		t.Fatalf("verify: %v, %v", corrupt, err)
	}
}

// TestPackEncodeFallbackMatchesRaw pins the two writer paths to the
// same bytes: packing an in-memory Archive (no raw bytes — encode
// fallback) must produce slot-for-slot identical documents and hashes
// to packing the DiskStore holding the same lists.
func TestPackEncodeFallbackMatchesRaw(t *testing.T) {
	store := seedStore(t, t.TempDir())
	mem := toplist.NewArchive(store.First(), store.Last())
	for _, prov := range store.Providers() {
		for d := store.First(); d <= store.Last(); d++ {
			if l := store.Get(prov, d); l != nil {
				if err := mem.Put(prov, d, l); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fromDisk, err := OpenFile(packStore(t, store))
	if err != nil {
		t.Fatal(err)
	}
	defer fromDisk.Close()
	memPath := filepath.Join(t.TempDir(), "mem.pack")
	if err := Write(memPath, mem); err != nil {
		t.Fatal(err)
	}
	fromMem, err := OpenFile(memPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fromMem.Close()
	for _, prov := range store.Providers() {
		for d := store.First(); d <= store.Last(); d++ {
			if fromDisk.RawHash(prov, d) != fromMem.RawHash(prov, d) {
				t.Fatalf("%s %v: encode fallback produced different bytes", prov, d)
			}
		}
	}
}

// TestPackWriteRefusesCorrupt: a source slot whose stored bytes fail
// their hash must abort the pack, not be baked into it.
func TestPackWriteRefusesCorrupt(t *testing.T) {
	dir := t.TempDir()
	store := seedStore(t, dir)
	target := filepath.Join(dir, "alexa", toplist.Day(2).String()+".csv.gz")
	if err := os.WriteFile(target, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Write(filepath.Join(t.TempDir(), "x.pack"), store)
	if !errors.Is(err, toplist.ErrCorruptSnapshot) {
		t.Fatalf("Write over a corrupt slot: %v, want ErrCorruptSnapshot", err)
	}
}

// TestOpenRejectsGarbage: non-pack bytes and truncations must fail
// cleanly with ErrNotPack.
func TestOpenRejectsGarbage(t *testing.T) {
	store := seedStore(t, t.TempDir())
	path := packStore(t, store)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short":            []byte("TL"),
		"not a pack":       bytes.Repeat([]byte{0x42}, 200),
		"truncated header": valid[:headerSize+3],
		"missing footer":   valid[:len(valid)-footerSize],
		"flipped magic":    append([]byte("XXXXXXXX"), valid[8:]...),
	}
	for name, data := range cases {
		if _, err := Open(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrNotPack) && err == nil {
			t.Fatalf("%s: opened without error", name)
		}
	}
	// A flipped byte inside the central directory must fail the
	// footer's directory hash.
	mut := append([]byte(nil), valid...)
	mut[len(mut)-footerSize-10] ^= 0xff
	if _, err := Open(bytes.NewReader(mut), int64(len(mut))); !errors.Is(err, ErrNotPack) {
		t.Fatalf("corrupt directory: %v, want ErrNotPack", err)
	}
}

// corruptOneBlob flips a byte inside the first stored blob and returns
// the slot it belongs to.
func corruptOneBlob(t *testing.T, path string, p *Pack) (string, toplist.Day) {
	t.Helper()
	var victim slotKey
	var rec record
	found := false
	for key, r := range p.slots {
		if !found || r.Offset < rec.Offset {
			victim, rec, found = key, r, true
		}
	}
	if !found {
		t.Fatal("no slots")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := []byte{0}
	if _, err := f.ReadAt(buf, rec.Offset+rec.Length/2); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, rec.Offset+rec.Length/2); err != nil {
		t.Fatal(err)
	}
	return victim.provider, victim.day
}

// TestPackCorruptBlobIsMemoized: a blob failing its directory hash is
// refused on every read path, memoized after one read, and listed by
// Corrupt — while every other slot keeps serving.
func TestPackCorruptBlobIsMemoized(t *testing.T) {
	store := seedStore(t, t.TempDir())
	path := packStore(t, store)
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prov, day := corruptOneBlob(t, path, p)

	if got := p.Get(prov, day); got != nil {
		t.Fatalf("Get returned a list for a corrupt slot")
	}
	if _, err := p.GetRaw(prov, day); !errors.Is(err, toplist.ErrCorruptSnapshot) {
		t.Fatalf("GetRaw: %v, want ErrCorruptSnapshot", err)
	}
	corrupt, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 1 || corrupt[0].Provider != prov || corrupt[0].Day != day {
		t.Fatalf("Corrupt listing %v, want [%s %v]", corrupt, prov, day)
	}
	// Other slots unaffected.
	for _, other := range p.Providers() {
		for d := p.First(); d <= p.Last(); d++ {
			if other == prov && d == day {
				continue
			}
			if p.Has(other, d) && p.Get(other, d) == nil {
				t.Fatalf("%s %v: healthy slot refused", other, d)
			}
		}
	}
}

// TestPackThroughArchived: archived.Server serves a packed archive
// without unpacking — raw fast path bytes identical to the DiskStore's
// stored documents, persisted-hash ETags, and If-None-Match 304
// revalidation.
func TestPackThroughArchived(t *testing.T) {
	store := seedStore(t, t.TempDir())
	p, err := OpenFile(packStore(t, store))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ts := httptest.NewServer(archived.NewServer(p))
	defer ts.Close()

	wantRaw, err := store.GetRaw("alexa", 1)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + toplist.RemoteSnapshotPath("alexa", 1)
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, wantRaw.Data) {
		t.Fatalf("served bytes differ from the DiskStore document")
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+wantRaw.Hash+`"` {
		t.Fatalf("ETag %s, want persisted hash %q", etag, wantRaw.Hash)
	}

	req2, _ := http.NewRequest(http.MethodGet, url, nil)
	req2.Header.Set("Accept-Encoding", "gzip")
	req2.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp2)
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp2.StatusCode)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestPackConcurrentReaders hammers one Pack from many goroutines
// through a deliberately tiny decode cache, so single-flight installs,
// evictions, and re-decodes all interleave; run under -race this is
// the concurrency gate for the LRU.
func TestPackConcurrentReaders(t *testing.T) {
	store := seedStore(t, t.TempDir())
	p, err := OpenFile(packStore(t, store))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.capacity = 2
	providers := p.Providers()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				prov := providers[rng.Intn(len(providers))]
				day := toplist.Day(rng.Intn(6))
				l := p.Get(prov, day)
				if p.Has(prov, day) && l == nil {
					t.Errorf("%s %v: present slot read nil", prov, day)
					return
				}
				if rng.Intn(4) == 0 {
					if _, err := p.GetRaw(prov, day); err != nil {
						t.Errorf("GetRaw: %v", err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
