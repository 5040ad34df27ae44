package listserv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/toplist"
)

func cacheArchive(t *testing.T, last toplist.Day) *toplist.Archive {
	t.Helper()
	arch := toplist.NewArchive(0, last)
	for d := toplist.Day(0); d <= last; d++ {
		if err := arch.Put("alexa", d, toplist.New([]string{fmt.Sprintf("day%d.com", d), "b.org"})); err != nil {
			t.Fatal(err)
		}
	}
	return arch
}

// cached reports how many documents s holds, walking the LRU's recency
// list, and whether key is among them, looking it up in its map.
func cached(s *Server, key blobKey) (int, bool) {
	n := 0
	for range s.cache.All() {
		n++
	}
	_, ok := s.cache.Get(key)
	return n, ok
}

func TestBlobCacheBounded(t *testing.T) {
	arch := cacheArchive(t, 9)
	s := NewServer(arch)
	s.cache = cache.New[blobKey, *blob](3)
	for d := toplist.Day(0); d <= 9; d++ {
		if _, err := s.blobFor("alexa", d, FormatCSV, arch.Get("alexa", d)); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := cached(s, blobKey{})
	if n != 3 {
		t.Fatalf("cache holds %d entries, want 3", n)
	}
	// The most recent days survived; day 0 was evicted.
	_, hasOld := cached(s, blobKey{"alexa", 0, FormatCSV})
	_, hasNew := cached(s, blobKey{"alexa", 9, FormatCSV})
	if hasOld || !hasNew {
		t.Fatalf("LRU kept the wrong end: day0=%v day9=%v", hasOld, hasNew)
	}
}

func TestBlobCacheLRUTouch(t *testing.T) {
	arch := cacheArchive(t, 3)
	s := NewServer(arch)
	s.cache = cache.New[blobKey, *blob](2)
	get := func(d toplist.Day) {
		t.Helper()
		if _, err := s.blobFor("alexa", d, FormatCSV, arch.Get("alexa", d)); err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	get(1)
	get(0) // touch day 0: day 1 is now the eviction candidate
	get(2)
	_, has0 := cached(s, blobKey{"alexa", 0, FormatCSV})
	_, has1 := cached(s, blobKey{"alexa", 1, FormatCSV})
	if !has0 || has1 {
		t.Fatalf("touch did not refresh recency: day0=%v day1=%v", has0, has1)
	}
}

// TestBlobCacheSingleFlight: concurrent cold requests for one document
// share one fill — every caller gets the same entry and bytes.
func TestBlobCacheSingleFlight(t *testing.T) {
	arch := cacheArchive(t, 0)
	s := NewServer(arch)
	l := arch.Get("alexa", 0)

	const n = 16
	var wg sync.WaitGroup
	entries := make([]*blob, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := s.blobFor("alexa", 0, FormatGzip, l)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatal("concurrent fills produced distinct entries")
		}
	}
	if size, _ := cached(s, blobKey{}); size != 1 {
		t.Fatalf("cache holds %d entries after single-flight fill, want 1", size)
	}
}

// TestBlobCacheNeverServesStale: entries are validated by the slot's
// immutable list pointer, so a repairing Put (or a hot swap resolving
// to a different store) yields fresh bytes — the poisoned cache entry
// for the old generation is replaced, never served.
func TestBlobCacheNeverServesStale(t *testing.T) {
	arch := cacheArchive(t, 0)
	s := NewServer(arch)

	before, err := s.blobFor("alexa", 0, FormatCSV, arch.Get("alexa", 0))
	if err != nil {
		t.Fatal(err)
	}

	// Repair the slot: same key, new immutable list.
	if err := arch.Put("alexa", 0, toplist.New([]string{"repaired.com"})); err != nil {
		t.Fatal(err)
	}
	after, err := s.blobFor("alexa", 0, FormatCSV, arch.Get("alexa", 0))
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("repaired slot served the stale entry")
	}
	if bytes.Equal(after.data, before.data) {
		t.Fatal("repaired slot served stale bytes")
	}
	if !bytes.Contains(after.data, []byte("repaired.com")) {
		t.Fatalf("fresh blob missing repaired content: %q", after.data)
	}
	if after.etag == before.etag {
		t.Fatal("stale ETag survived the repair")
	}
	if size, _ := cached(s, blobKey{}); size != 1 {
		t.Fatalf("cache holds %d entries for one slot, want 1", size)
	}
}
