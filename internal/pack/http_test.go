package pack

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
)

// servePackFile returns an httptest server serving the pack bytes with
// full, correct Range support (http.ServeContent), plus a counter of
// ranged requests.
func servePackFile(t *testing.T, path string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ranged atomic.Int64
	modtime := time.Unix(1700000000, 0)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Range") != "" {
			ranged.Add(1)
		}
		w.Header().Set("ETag", `"pack-v1"`)
		http.ServeContent(w, r, "joint.pack", modtime, bytes.NewReader(data))
	}))
	t.Cleanup(ts.Close)
	return ts, &ranged
}

// TestOpenURLReadsEqualLocal: a pack opened over HTTP Range requests
// serves the same decoded lists and raw bytes as the same file opened
// locally, and actually used ranged requests to do it.
func TestOpenURLReadsEqualLocal(t *testing.T) {
	store := seedStore(t, t.TempDir())
	path := packStore(t, store)
	local, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	ts, ranged := servePackFile(t, path)
	remote, err := OpenURL(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Size() != local.Size() {
		t.Fatalf("size %d, want %d", remote.Size(), local.Size())
	}
	for _, prov := range local.Providers() {
		for d := local.First(); d <= local.Last(); d++ {
			want, got := local.Get(prov, d), remote.Get(prov, d)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s %v: presence mismatch", prov, d)
			}
			if want != nil && !reflect.DeepEqual(got.Names(), want.Names()) {
				t.Fatalf("%s %v: lists differ over HTTP", prov, d)
			}
		}
	}
	if ranged.Load() == 0 {
		t.Fatal("no Range requests were issued")
	}
	if corrupt, err := remote.Verify(); err != nil || len(corrupt) != 0 {
		t.Fatalf("remote verify: %v, %v", corrupt, err)
	}
}

// flakyHandler wraps correct Range serving with programmable faults
// consumed one per request.
type flakyHandler struct {
	data    []byte
	etag    string
	faults  chan string // each value is one fault mode for one request
	touched atomic.Int64
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.touched.Add(1)
	var fault string
	select {
	case fault = <-h.faults:
	default:
	}
	switch fault {
	case "503":
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	case "short":
		// Promise the requested range but send half of it, then cut
		// the connection: a mid-read drop.
		start, end := parseRange(r.Header.Get("Range"), int64(len(h.data)))
		n := end - start + 1
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end, len(h.data)))
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(h.data[start : start+n/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Hijack-free connection cut: panic with ErrAbortHandler drops
		// the connection without a normal end-of-body.
		panic(http.ErrAbortHandler)
	case "200":
		w.Header().Set("ETag", h.etag)
		w.Header().Set("Content-Length", strconv.Itoa(len(h.data)))
		w.WriteHeader(http.StatusOK)
		w.Write(h.data)
		return
	case "416":
		http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
		return
	case "newetag":
		w.Header().Set("ETag", `"replaced"`)
		w.Header().Set("Content-Length", strconv.Itoa(len(h.data)))
		w.WriteHeader(http.StatusOK)
		w.Write(h.data)
		return
	}
	w.Header().Set("ETag", h.etag)
	http.ServeContent(w, r, "joint.pack", time.Unix(1700000000, 0), bytes.NewReader(h.data))
}

func parseRange(v string, size int64) (int64, int64) {
	v = strings.TrimPrefix(v, "bytes=")
	a, b, _ := strings.Cut(v, "-")
	start, _ := strconv.ParseInt(a, 10, 64)
	end := size - 1
	if b != "" {
		end, _ = strconv.ParseInt(b, 10, 64)
	}
	if end > size-1 {
		end = size - 1
	}
	return start, end
}

func flakyServer(t *testing.T, nFaults int) (*httptest.Server, *flakyHandler, *HTTPRangeReaderAt) {
	t.Helper()
	store := seedStore(t, t.TempDir())
	path := packStore(t, store)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := &flakyHandler{data: data, etag: `"pack-v1"`, faults: make(chan string, nFaults)}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	// A tiny chunk size so a small test pack spans many chunks — the
	// faults below must hit the network, not the chunk cache — and
	// negligible backoff.
	ra, err := NewHTTPRangeReaderAt(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ra.chunkSize = 64
	ra.retry = httpx.Policy{Attempts: 4, Base: time.Nanosecond, Max: time.Millisecond}
	return ts, h, ra
}

// TestHTTPRangeRetriesTransient: 503s and mid-read connection drops
// are retried and the read still completes with the right bytes.
func TestHTTPRangeRetriesTransient(t *testing.T) {
	_, h, ra := flakyServer(t, 4)
	h.faults <- "503"
	h.faults <- "short"
	h.faults <- "503"
	buf := make([]byte, 64)
	if _, err := ra.ReadAt(buf, 100); err != nil {
		t.Fatalf("read through transient faults: %v", err)
	}
	if !bytes.Equal(buf, h.data[100:164]) {
		t.Fatal("retried read returned wrong bytes")
	}
}

// TestHTTPRangeExhaustsRetries: a server that stays down fails the
// read with the final transient error rather than hanging.
func TestHTTPRangeExhaustsRetries(t *testing.T) {
	_, h, ra := flakyServer(t, 16)
	for i := 0; i < 16; i++ {
		h.faults <- "503"
	}
	if _, err := ra.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("read succeeded against a dead server")
	}
	if h.touched.Load() < 4 {
		t.Fatalf("only %d attempts observed, want the retry budget", h.touched.Load())
	}
}

// TestHTTPRangeIgnored200: a server ignoring Range is tolerated
// exactly once (full-body fallback), then refused.
func TestHTTPRangeIgnored200(t *testing.T) {
	_, h, ra := flakyServer(t, 2)
	h.faults <- "200"
	buf := make([]byte, 32)
	if _, err := ra.ReadAt(buf, 50); err != nil {
		t.Fatalf("first full-body fallback should succeed: %v", err)
	}
	if !bytes.Equal(buf, h.data[50:82]) {
		t.Fatal("full-body fallback returned wrong bytes")
	}
	h.faults <- "200"
	// A different, uncached range so the chunk cache cannot answer.
	far := int64(len(h.data)) - 40
	if _, err := ra.ReadAt(make([]byte, 8), far); !errors.Is(err, errRangeIgnored) {
		t.Fatalf("second Range-ignoring 200: %v, want errRangeIgnored", err)
	}
}

// TestHTTPRange416: a 416 for an in-bounds range means the file
// changed (shrank) under us and must refuse, not retry.
func TestHTTPRange416(t *testing.T) {
	_, h, ra := flakyServer(t, 1)
	h.faults <- "416"
	if _, err := ra.ReadAt(make([]byte, 8), 10); !errors.Is(err, ErrChangedMidRead) {
		t.Fatalf("416: %v, want ErrChangedMidRead", err)
	}
	if h.touched.Load() != 2 { // probe + the refused read: no retries
		t.Fatalf("%d requests, want 2 (416 must not be retried)", h.touched.Load())
	}
}

// TestHTTPRangeETagChangeRefused: a response carrying a different
// validator than the one captured at open is refused — the file
// changed mid-read, and stitching ranges of two versions together
// would be garbage.
func TestHTTPRangeETagChangeRefused(t *testing.T) {
	_, h, ra := flakyServer(t, 1)
	h.faults <- "newetag"
	if _, err := ra.ReadAt(make([]byte, 8), 10); !errors.Is(err, ErrChangedMidRead) {
		t.Fatalf("changed ETag: %v, want ErrChangedMidRead", err)
	}
}

// TestHTTPRangeCoalescing: many small adjacent reads served out of one
// chunk cost one ranged request.
func TestHTTPRangeCoalescing(t *testing.T) {
	store := seedStore(t, t.TempDir())
	path := packStore(t, store)
	ts, ranged := servePackFile(t, path)
	ra, err := NewHTTPRangeReaderAt(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	before := ranged.Load()
	buf := make([]byte, 16)
	for off := int64(0); off < 512; off += 16 {
		if _, err := ra.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if got := ranged.Load() - before; got != 1 {
		t.Fatalf("32 adjacent small reads issued %d ranged requests, want 1", got)
	}
}

// TestHTTPRangeReadAtEOFContract: ReadAt past the end honours the
// io.ReaderAt contract (partial read + io.EOF, or 0+io.EOF at/after
// the end).
func TestHTTPRangeReadAtEOFContract(t *testing.T) {
	_, h, ra := flakyServer(t, 0)
	size := int64(len(h.data))
	buf := make([]byte, 16)
	n, err := ra.ReadAt(buf, size-4)
	if n != 4 || err != io.EOF {
		t.Fatalf("tail read: n=%d err=%v, want 4, io.EOF", n, err)
	}
	if !bytes.Equal(buf[:4], h.data[size-4:]) {
		t.Fatal("tail bytes wrong")
	}
	if n, err := ra.ReadAt(buf, size+10); n != 0 || err != io.EOF {
		t.Fatalf("past-end read: n=%d err=%v, want 0, io.EOF", n, err)
	}
}

// TestOpenURLProbeFallsBackWithoutHEAD: servers that reject HEAD are
// probed with a one-byte range GET instead.
func TestOpenURLProbeFallsBackWithoutHEAD(t *testing.T) {
	store := seedStore(t, t.TempDir())
	path := packStore(t, store)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			http.Error(w, "no HEAD here", http.StatusMethodNotAllowed)
			return
		}
		http.ServeContent(w, r, "joint.pack", time.Unix(1700000000, 0), bytes.NewReader(data))
	}))
	defer ts.Close()
	p, err := OpenURL(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if p.Get("alexa", 0) == nil {
		t.Fatal("read through range-probed reader failed")
	}
}
