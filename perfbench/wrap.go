package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/toplist"
)

// The wrappers below measure a layer from outside: each wraps a value
// the program already accepts and forwards every call unchanged,
// counting always and recording spans while the tracer is on. A wrapper
// exposes exactly the optional interfaces the program type-asserts on
// the value it replaces (see TestWrappersKeepOptionalInterfaces), so the
// program takes the same path through it.

// netCounts are the transport's running totals.
type netCounts struct {
	requests, ranged, bytes, dials, retries, gzipped int64
}

func (a netCounts) sub(b netCounts) netCounts {
	return netCounts{a.requests - b.requests, a.ranged - b.ranged, a.bytes - b.bytes,
		a.dials - b.dials, a.retries - b.retries, a.gzipped - b.gzipped}
}

// transport counts the requests (and those with a Range header), body
// bytes (request and response), new connections, retries, and
// gzip-encoded responses going through http.DefaultTransport —
// the transport every layer's default client uses — and, while tracing,
// records one span per exchange and names it in spanHeader so the
// server-side spans join it. A retry is a request repeating the method,
// URL, and Range of an earlier request since the last resetOp: within
// one op the product path never asks for the same bytes twice unless a
// layer retried.
type transport struct {
	base http.RoundTripper
	tr   *tracer

	requests, ranged, bytes, dials, retries, gzipped atomic.Int64

	mu   sync.Mutex
	seen map[string]bool
}

func newTransport(tr *tracer) *transport {
	return &transport{base: http.DefaultTransport, tr: tr, seen: make(map[string]bool)}
}

// client returns an http.Client like the layers' default clients, with
// the counting transport underneath.
func (t *transport) client(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: t}
}

func (t *transport) counts() netCounts {
	return netCounts{t.requests.Load(), t.ranged.Load(), t.bytes.Load(), t.dials.Load(), t.retries.Load(), t.gzipped.Load()}
}

// resetOp starts a new op's retry window.
func (t *transport) resetOp() {
	t.mu.Lock()
	clear(t.seen)
	t.mu.Unlock()
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	rng := req.Header.Get("Range")
	if rng != "" {
		t.ranged.Add(1)
	}
	key := req.Method + " " + req.URL.String() + " " + rng
	t.mu.Lock()
	if t.seen[key] {
		t.retries.Add(1)
	}
	t.seen[key] = true
	t.mu.Unlock()
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}

	sp := t.tr.begin(spanFrom(req.Context()), "http.client")
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				t.dials.Add(1)
			}
		},
	})
	req = req.Clone(ctx) // a RoundTripper must not modify the caller's request
	if sp != nil {
		req.Header.Set(spanHeader, sp.ref().String())
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		t.gzipped.Add(1)
	}
	resp.Body = &countingBody{rc: resp.Body, n: &t.bytes, sp: sp}
	return resp, nil
}

// countingBody counts response body bytes as the consumer reads them
// and ends the exchange's span when the consumer closes the body.
type countingBody struct {
	rc   io.ReadCloser
	n    *atomic.Int64
	sp   *openSpan
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.once.Do(b.sp.end)
	return err
}

// timedSink wraps the DiskStore an engine run tees into. DiskStore
// implements no optional sink interface (no EndDay), and neither does
// this wrapper.
type timedSink struct {
	next   toplist.SnapshotSink
	tr     *tracer
	parent spanRef
	puts   *atomic.Int64
}

func (s *timedSink) Put(provider string, day toplist.Day, l *toplist.List) error {
	sp := s.tr.begin(s.parent, "toplist.DiskStore.Put")
	err := s.next.Put(provider, day, l)
	sp.end()
	s.puts.Add(1)
	return err
}

// rawStore is what DiskStore and Pack both are: a Source with the raw
// fast path, per-slot presence, a scale name, and an expected provider
// set — every optional interface archived, pack.Write, and
// serve.SwappableSource type-assert on a source.
type rawStore interface {
	toplist.RawSource
	Has(provider string, day toplist.Day) bool
	Scale() string
	Expected() []string
}

// tracedSource wraps a DiskStore or Pack. Embedding rawStore forwards
// exactly that method set; Get and GetRaw are counted and timed under
// the names "<layer>.Get" and "<layer>.GetRaw". They carry no context,
// so their spans join the ambient parent.
type tracedSource struct {
	rawStore
	tr    *tracer
	amb   *ambient
	layer string

	gets, getRaws *atomic.Int64
}

func (s *tracedSource) Get(provider string, day toplist.Day) *toplist.List {
	sp := s.tr.begin(s.amb.get(), s.layer+".Get")
	l := s.rawStore.Get(provider, day)
	sp.end()
	s.gets.Add(1)
	return l
}

func (s *tracedSource) GetRaw(provider string, day toplist.Day) (*toplist.RawSnapshot, error) {
	sp := s.tr.begin(s.amb.get(), s.layer+".GetRaw")
	raw, err := s.rawStore.GetRaw(provider, day)
	sp.end()
	s.getRaws.Add(1)
	return raw, err
}

// tracedStepper wraps the shard coordinator the engine steps through.
// The engine passes its run context to StepDay, so the step span joins
// the engine.Run span and hands itself on to the coordinator's
// requests.
type tracedStepper struct {
	next  engine.RemoteStepper
	tr    *tracer
	steps *atomic.Int64
}

func (s *tracedStepper) StepDay(ctx context.Context, day int) error {
	sp := s.tr.begin(spanFrom(ctx), "shard.Coordinator.StepDay")
	err := s.next.StepDay(withSpan(ctx, sp.ref()), day)
	sp.end()
	s.steps.Add(1)
	return err
}
