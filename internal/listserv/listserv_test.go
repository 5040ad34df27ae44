package listserv

import (
	"archive/zip"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/httpx"
	"repro/internal/toplist"
)

// testArchive builds a deterministic 3-provider archive over days
// [0, days). Lists differ per provider and per day so equality checks
// are meaningful.
func testArchive(t *testing.T, days int) *toplist.Archive {
	t.Helper()
	a := toplist.NewArchive(0, toplist.Day(days-1))
	for _, p := range []string{"alexa", "umbrella", "majestic"} {
		for d := 0; d < days; d++ {
			names := make([]string, 0, 20)
			for i := 0; i < 20; i++ {
				names = append(names, fmt.Sprintf("%s-d%d-r%d.example.com", p, d, i))
			}
			if err := a.Put(p, toplist.Day(d), toplist.New(names)); err != nil {
				t.Fatalf("Put(%s,%d): %v", p, d, err)
			}
		}
	}
	return a
}

func sameList(a, b *toplist.List) bool {
	return a != nil && b != nil && reflect.DeepEqual(a.Names(), b.Names())
}

// instantClient is NewClient with backoff sleeps that return at once.
func instantClient(baseURL string, opts ...ClientOption) *Client {
	c := NewClient(baseURL, opts...)
	c.retry.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	return c
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	list := toplist.New([]string{"google.com", "facebook.com", "netflix.com"})
	for _, f := range sortedFormats() {
		data, err := Encode(list, f)
		if err != nil {
			t.Fatalf("Encode(%v): %v", f, err)
		}
		got, err := Decode(data, f)
		if err != nil {
			t.Fatalf("Decode(%v): %v", f, err)
		}
		if !sameList(list, got) {
			t.Errorf("format %v: round trip mismatch: %v", f, got.Names())
		}
	}
}

func TestEncodeFormatsDiffer(t *testing.T) {
	list := toplist.New([]string{"a.com", "b.com"})
	csv, _ := Encode(list, FormatCSV)
	gz, _ := Encode(list, FormatGzip)
	zp, _ := Encode(list, FormatZip)
	if string(csv) == string(gz) || string(csv) == string(zp) {
		t.Fatal("compressed formats should not equal bare CSV")
	}
	if !strings.HasPrefix(string(csv), "1,a.com\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, f := range []Format{FormatGzip, FormatZip} {
		if _, err := Decode([]byte("not an archive"), f); err == nil {
			t.Errorf("Decode garbage as %v: want error", f)
		}
	}
	if _, err := Decode([]byte("1;semicolons.com\n"), FormatCSV); err == nil {
		t.Error("Decode malformed CSV: want error")
	}
}

func TestDecodeZipWithoutCSVMember(t *testing.T) {
	// A zip archive without a .csv member must be rejected, not
	// silently decoded as an empty list.
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	f, err := zw.Create("README.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("no list here")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf.Bytes(), FormatZip); err == nil {
		t.Fatal("zip without .csv member accepted")
	}
	// A non-zip payload is rejected at the container level.
	gz, _ := Encode(toplist.New([]string{"x.com"}), FormatGzip)
	if _, err := Decode(gz, FormatZip); err == nil {
		t.Fatal("want error decoding gzip payload as zip")
	}
}

func TestFormatStringsAndPaths(t *testing.T) {
	if FormatZip.String() != "top-1m.csv.zip" {
		t.Fatalf("zip suffix = %q", FormatZip.String())
	}
	p := SnapshotPath("alexa", 0, FormatCSV)
	if p != "/v1/alexa/2017-06-06/top-1m.csv" {
		t.Fatalf("SnapshotPath = %q", p)
	}
	if LatestPath("umbrella", FormatGzip) != "/v1/umbrella/latest/top-1m.csv.gz" {
		t.Fatalf("LatestPath = %q", LatestPath("umbrella", FormatGzip))
	}
}

func TestServerIndex(t *testing.T) {
	arch := testArchive(t, 5)
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	c := instantClient(ts.URL)
	idx, err := c.Index(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alexa", "majestic", "umbrella"}
	if !reflect.DeepEqual(idx.Providers, want) {
		t.Errorf("providers = %v, want %v", idx.Providers, want)
	}
	if idx.Days != 5 || idx.FirstDay != "2017-06-06" || idx.LastDay != "2017-06-10" {
		t.Errorf("index = %+v", idx)
	}
}

func TestServerServesEveryFormat(t *testing.T) {
	arch := testArchive(t, 2)
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	for _, f := range sortedFormats() {
		c := instantClient(ts.URL, WithFormat(f))
		got, err := c.FetchDay(context.Background(), "alexa", 1)
		if err != nil {
			t.Fatalf("FetchDay(%v): %v", f, err)
		}
		if !sameList(got, arch.Get("alexa", 1)) {
			t.Errorf("format %v: wrong list", f)
		}
	}
}

func TestServerLatestFollowsGatekeeper(t *testing.T) {
	arch := testArchive(t, 4)
	gk := NewGatekeeper(arch, 1)
	ts := httptest.NewServer(NewServerAt(gk))
	defer ts.Close()

	c := instantClient(ts.URL)
	ctx := context.Background()

	got, err := c.FetchLatest(ctx, "alexa")
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(got, arch.Get("alexa", 1)) {
		t.Error("latest should be day 1 before Advance")
	}
	if _, err := c.FetchDay(ctx, "alexa", 3); !IsNotFound(err) {
		t.Errorf("day 3 before Advance: want 404, got %v", err)
	}

	gk.Advance(3)
	got, err = c.FetchLatest(ctx, "alexa")
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(got, arch.Get("alexa", 3)) {
		t.Error("latest should be day 3 after Advance")
	}
	// Advance never retracts.
	gk.Advance(0)
	if gk.LastVisible() != 3 {
		t.Errorf("LastVisible = %v after backwards Advance", gk.LastVisible())
	}
}

func TestServerNotFoundCases(t *testing.T) {
	arch := testArchive(t, 2)
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	cases := []struct {
		path string
		code int
	}{
		{"/v1/nosuch/latest/top-1m.csv", http.StatusNotFound},
		{"/v1/alexa/2019-01-01/top-1m.csv", http.StatusNotFound},  // beyond range
		{"/v1/alexa/2017-06-06/top-1m.tsv", http.StatusNotFound},  // unknown file
		{"/v1/alexa/yesterday/top-1m.csv", http.StatusBadRequest}, // bad date
		{"/v1/alexa/2016-01-01/top-1m.csv", http.StatusNotFound},  // before epoch range
		{"/v2/alexa/latest/top-1m.csv", http.StatusNotFound},      // wrong version
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}
}

func TestServerConditionalGet(t *testing.T) {
	arch := testArchive(t, 1)
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	url := ts.URL + SnapshotPath("alexa", 0, FormatCSV)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on snapshot response")
	}
	if lm := resp.Header.Get("Last-Modified"); lm == "" {
		t.Fatal("no Last-Modified on snapshot response")
	}
	if day := resp.Header.Get("X-Toplist-Day"); day != "2017-06-06" {
		t.Fatalf("X-Toplist-Day = %q", day)
	}

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %d, want 304", resp2.StatusCode)
	}
}

func TestServerRangeRequest(t *testing.T) {
	arch := testArchive(t, 1)
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+SnapshotPath("alexa", 0, FormatCSV), nil)
	req.Header.Set("Range", "bytes=0-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range GET = %d, want 206", resp.StatusCode)
	}
}

func TestClientETagCacheAvoidsRedownload(t *testing.T) {
	arch := testArchive(t, 1)
	var hits, notModified atomic.Int64
	inner := NewServer(arch)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code == http.StatusNotModified {
			notModified.Add(1)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()) //nolint:errcheck
	}))
	defer ts.Close()

	c := instantClient(ts.URL, WithFormat(FormatCSV))
	ctx := context.Background()
	first, err := c.FetchDay(ctx, "alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.FetchDay(ctx, "alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(first, second) {
		t.Fatal("cached fetch returned different list")
	}
	if hits.Load() != 2 {
		t.Fatalf("requests = %d, want 2", hits.Load())
	}
	if notModified.Load() != 1 {
		t.Fatalf("304 responses = %d, want 1", notModified.Load())
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestClientETagCacheIsBounded: a client fetching more distinct
// snapshots than its validator cache holds keeps at most
// etagCacheSize of them, and a prompt re-fetch of the newest day still
// costs exactly one 304.
func TestClientETagCacheIsBounded(t *testing.T) {
	days := etagCacheSize + 4
	inner := NewServer(testArchive(t, days))
	var requests, notModified atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		inner.ServeHTTP(sw, r)
		if sw.code == http.StatusNotModified {
			notModified.Add(1)
		}
	}))
	defer ts.Close()

	c := instantClient(ts.URL, WithFormat(FormatCSV))
	ctx := context.Background()
	var newest *toplist.List
	for d := 0; d < days; d++ {
		l, err := c.FetchDay(ctx, "alexa", toplist.Day(d))
		if err != nil {
			t.Fatal(err)
		}
		newest = l
	}
	held := 0
	for range c.etags.All() {
		held++
	}
	if held > etagCacheSize {
		t.Fatalf("client holds %d validators after %d distinct fetches, want at most %d", held, days, etagCacheSize)
	}
	requests.Store(0)
	again, err := c.FetchDay(ctx, "alexa", toplist.Day(days-1))
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(again, newest) {
		t.Fatal("re-fetch returned a different list")
	}
	if requests.Load() != 1 || notModified.Load() != 1 {
		t.Fatalf("re-fetch cost %d requests and %d 304s, want 1 and 1", requests.Load(), notModified.Load())
	}
}

// flakyHandler fails n requests with the given code before delegating.
func flakyHandler(n int, code int, next http.Handler) http.Handler {
	var remaining atomic.Int64
	remaining.Store(int64(n))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if remaining.Add(-1) >= 0 {
			http.Error(w, "synthetic outage", code)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func TestClientRetriesTransientFailures(t *testing.T) {
	arch := testArchive(t, 1)
	ts := httptest.NewServer(flakyHandler(2, http.StatusServiceUnavailable, NewServer(arch)))
	defer ts.Close()

	var delays []time.Duration
	c := NewClient(ts.URL, WithFormat(FormatCSV))
	c.retry.Sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return ctx.Err()
	}
	got, err := c.FetchDay(context.Background(), "alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(got, arch.Get("alexa", 0)) {
		t.Error("wrong list after retries")
	}
	if len(delays) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(delays))
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	arch := testArchive(t, 1)
	ts := httptest.NewServer(flakyHandler(100, http.StatusServiceUnavailable, NewServer(arch)))
	defer ts.Close()

	c := instantClient(ts.URL, WithFormat(FormatCSV))
	c.retry.Attempts = 3
	_, err := c.FetchDay(context.Background(), "alexa", 0)
	if err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	var se *httpx.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503 StatusError", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("err = %v, want attempt count", err)
	}
}

// TestClientDoesNotRetry500: the servers here send a plain 500 only
// for deterministic failures, so one request settles it.
func TestClientDoesNotRetry500(t *testing.T) {
	arch := testArchive(t, 1)
	var hits atomic.Int64
	flaky := flakyHandler(100, http.StatusInternalServerError, NewServer(arch))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		flaky.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := instantClient(ts.URL, WithFormat(FormatCSV))
	c.retry.Attempts = 3
	_, err := c.FetchDay(context.Background(), "alexa", 0)
	var se *httpx.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want a 500 StatusError", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("requests = %d, want exactly 1 (no retries on 500)", hits.Load())
	}
}

func TestClientDoesNotRetry404(t *testing.T) {
	arch := testArchive(t, 1)
	var hits atomic.Int64
	inner := NewServer(arch)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := instantClient(ts.URL, WithFormat(FormatCSV))
	c.retry.Attempts = 5
	_, err := c.FetchDay(context.Background(), "nosuch", 0)
	if !IsNotFound(err) {
		t.Fatalf("err = %v, want 404", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("requests = %d, want exactly 1 (no retries on 404)", hits.Load())
	}
}

func TestClientRetriesCorruptBody(t *testing.T) {
	arch := testArchive(t, 1)
	var n atomic.Int64
	inner := NewServer(arch)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Content-Type", "text/csv")
			fmt.Fprint(w, "1,ok.com\n7,out-of-order.com\n")
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := instantClient(ts.URL, WithFormat(FormatCSV))
	got, err := c.FetchDay(context.Background(), "alexa", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(got, arch.Get("alexa", 0)) {
		t.Error("wrong list after corrupt-body retry")
	}
	if n.Load() != 2 {
		t.Fatalf("requests = %d, want 2", n.Load())
	}
}

func TestClientBodyLimit(t *testing.T) {
	arch := testArchive(t, 1)
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	c := instantClient(ts.URL, WithFormat(FormatCSV))
	c.maxBody = 16
	c.retry.Attempts = 1
	if _, err := c.FetchDay(context.Background(), "alexa", 0); err == nil {
		t.Fatal("want error for oversized body")
	}
}

func TestClientContextCancellation(t *testing.T) {
	arch := testArchive(t, 1)
	ts := httptest.NewServer(flakyHandler(100, http.StatusBadGateway, NewServer(arch)))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := NewClient(ts.URL, WithFormat(FormatCSV))
	c.retry.Attempts = 10
	c.retry.Sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // cancel during the first backoff
		return ctx.Err()
	}
	_, err := c.FetchDay(ctx, "alexa", 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "502") {
		t.Errorf("err should retain last transient cause, got %v", err)
	}
}

func TestMirrorCollectRebuildsArchive(t *testing.T) {
	arch := testArchive(t, 6)
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	c := instantClient(ts.URL)
	m := NewMirror(c, []string{"alexa", "umbrella", "majestic"})
	got, err := m.Collect(context.Background(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Complete() {
		t.Fatal("mirrored archive incomplete")
	}
	for _, p := range arch.Providers() {
		for d := toplist.Day(0); d <= 5; d++ {
			if !sameList(got.Get(p, d), arch.Get(p, d)) {
				t.Fatalf("mismatch at %s day %v", p, d)
			}
		}
	}
	if len(m.Gaps()) != 0 {
		t.Errorf("gaps = %v, want none", m.Gaps())
	}
}

func TestMirrorRecordsGaps(t *testing.T) {
	// umbrella misses days 2 and 3 (provider outage).
	arch := toplist.NewArchive(0, 4)
	for _, p := range []string{"alexa", "umbrella"} {
		for d := toplist.Day(0); d <= 4; d++ {
			if p == "umbrella" && (d == 2 || d == 3) {
				continue
			}
			arch.Put(p, d, toplist.New([]string{fmt.Sprintf("%s-%d.com", p, d)})) //nolint:errcheck
		}
	}
	ts := httptest.NewServer(NewServer(arch))
	defer ts.Close()

	m := NewMirror(instantClient(ts.URL), []string{"alexa", "umbrella"})
	got, err := m.Collect(context.Background(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	gaps := m.Gaps()
	if !reflect.DeepEqual(gaps["umbrella"], []toplist.Day{2, 3}) {
		t.Errorf("umbrella gaps = %v, want [2 3]", gaps["umbrella"])
	}
	if len(gaps["alexa"]) != 0 {
		t.Errorf("alexa gaps = %v, want none", gaps["alexa"])
	}
	run, ok := LongestContinuousRun(got)
	if !ok || run != (Run{First: 0, Last: 1}) {
		t.Errorf("longest run = %+v ok=%v, want days [0,1]", run, ok)
	}
}

func TestMirrorAbortsOnPersistentError(t *testing.T) {
	arch := testArchive(t, 2)
	ts := httptest.NewServer(flakyHandler(1000, http.StatusServiceUnavailable, NewServer(arch)))
	defer ts.Close()

	c := instantClient(ts.URL)
	c.retry.Attempts = 2
	m := NewMirror(c, []string{"alexa"})
	if _, err := m.Collect(context.Background(), 0, 1); err == nil {
		t.Fatal("want error from persistent outage")
	}
}

// TestMirrorFollowsLivePublisher follows a publisher the way
// examples/mirror does, re-collecting the whole range on every tick,
// for more days than the client's validator cache covers. A tick
// downloads only what the mirror does not hold yet: an unpublished
// day is asked for (404, a gap) until it is published and downloaded,
// and an already-collected day costs no request at all.
func TestMirrorFollowsLivePublisher(t *testing.T) {
	days := etagCacheSize/3 + 4
	arch := testArchive(t, days)
	gk := NewGatekeeper(arch, 0)
	inner := NewServerAt(gk)
	var requests, full atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		inner.ServeHTTP(sw, r)
		requests.Add(1)
		if sw.code == http.StatusOK {
			full.Add(1)
		}
	}))
	defer ts.Close()

	providers := []string{"alexa", "umbrella", "majestic"}
	m := NewMirror(instantClient(ts.URL), providers)
	collect := func(d toplist.Day, wantFull int) {
		t.Helper()
		requests.Store(0)
		full.Store(0)
		// CollectDay past the previous archive window fails; re-collect
		// the full range instead.
		if _, err := m.Collect(context.Background(), 0, d); err != nil {
			t.Fatal(err)
		}
		if requests.Load() != int64(len(providers)) || full.Load() != int64(wantFull) {
			t.Fatalf("collect [0,%v]: %d requests, %d full downloads; want %d and %d",
				d, requests.Load(), full.Load(), len(providers), wantFull)
		}
	}
	collect(0, len(providers))
	for d := toplist.Day(1); d < toplist.Day(days); d++ {
		collect(d, 0) // not published yet: one 404 per provider
		if gaps := m.Gaps(); len(gaps) != len(providers) {
			t.Fatalf("day %v: gaps = %v, want one per provider", d, gaps)
		}
		// Day-by-day: publish, then collect, like a daily cron.
		gk.Advance(d)
		collect(d, len(providers))
	}
	final := m.Archive()
	if !final.Complete() || len(m.Gaps()) != 0 {
		t.Fatalf("live-followed archive incomplete; gaps %v", m.Gaps())
	}
	if final.Days() != days {
		t.Fatalf("days = %d, want %d", final.Days(), days)
	}
	for _, p := range providers {
		for d := toplist.Day(0); d < toplist.Day(days); d++ {
			if !sameList(final.Get(p, d), arch.Get(p, d)) {
				t.Fatalf("mismatch at %s day %v", p, d)
			}
		}
	}
}

func TestLongestContinuousRunEdgeCases(t *testing.T) {
	// Empty archive: no providers at all.
	a := toplist.NewArchive(0, 3)
	if _, ok := LongestContinuousRun(a); ok {
		t.Error("empty archive should have no run")
	}
	// Run at the end wins over a shorter run at the start.
	a.Put("p", 0, toplist.New([]string{"a.com"})) //nolint:errcheck
	a.Put("p", 2, toplist.New([]string{"b.com"})) //nolint:errcheck
	a.Put("p", 3, toplist.New([]string{"c.com"})) //nolint:errcheck
	run, ok := LongestContinuousRun(a)
	if !ok || run != (Run{First: 2, Last: 3}) {
		t.Errorf("run = %+v, want [2,3]", run)
	}
}

func TestEncodeDecodePropertyQuick(t *testing.T) {
	// Round-trip property over arbitrary small domain lists.
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed uint32, n uint8, fpick uint8) bool {
		count := int(n%50) + 1
		names := make([]string, 0, count)
		for i := 0; i < count; i++ {
			names = append(names, fmt.Sprintf("d%d-%d.example.org", seed, i))
		}
		list := toplist.New(names)
		f := sortedFormats()[int(fpick)%3]
		data, err := Encode(list, f)
		if err != nil {
			return false
		}
		got, err := Decode(data, f)
		if err != nil {
			return false
		}
		return sameList(list, got)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
