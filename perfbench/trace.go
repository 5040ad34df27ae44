package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span that caused a request, as
// "<op>.<span>", so server-side spans join the op that sent it.
const spanHeader = "X-Perfbench-Span"

// spanRef names a span and the op it belongs to. The zero value is "no
// span".
type spanRef struct{ op, id uint64 }

func (r spanRef) String() string { return fmt.Sprintf("%d.%d", r.op, r.id) }

func parseSpanRef(s string) spanRef {
	op, id, ok := strings.Cut(s, ".")
	if !ok {
		return spanRef{}
	}
	o, err1 := strconv.ParseUint(op, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{o, i}
}

// span is one recorded interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory while it is on; they are written out
// once, when the run ends. When it is off, begin returns nil and
// recording costs one atomic load.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span named name under parent. It returns nil when
// tracing is off or there is no parent op to join.
func (t *tracer) begin(parent spanRef, name string) *openSpan {
	if t == nil || !t.on.Load() || parent.op == 0 {
		return nil
	}
	return &openSpan{t: t, s: span{
		Op:     parent.op,
		ID:     t.ids.Add(1),
		Parent: parent.id,
		Name:   name,
		Start:  int64(time.Since(t.epoch)),
	}}
}

// beginOp starts the root span of a new op; nil when tracing is off.
func (t *tracer) beginOp(name string) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	id := t.ids.Add(1)
	return &openSpan{t: t, s: span{Op: id, ID: id, Name: name, Start: int64(time.Since(t.epoch))}}
}

func (o *openSpan) ref() spanRef {
	if o == nil {
		return spanRef{}
	}
	return spanRef{o.s.Op, o.s.ID}
}

// end records the span. Safe on nil.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeJSONL writes every recorded span to path, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// withSpan returns ctx carrying ref as the parent for spans begun from it.
func withSpan(ctx context.Context, ref spanRef) context.Context {
	if ref.op == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// ambient is the parent for spans begun in calls that carry no context
// (Source.Get, SnapshotSink.Put, RawSource.GetRaw). Each workload drives
// one caller in a closed loop, so at most one such parent is live at a
// time and a single slot names it unambiguously.
type ambient struct{ v atomic.Value }

func (a *ambient) set(ref spanRef) { a.v.Store(ref) }

func (a *ambient) get() spanRef {
	ref, _ := a.v.Load().(spanRef)
	return ref
}

// selfTime returns, for each span ID, the span's duration minus the
// part of its interval covered by the union of its children's
// intervals, in nanoseconds. Children may overlap (the engine's Put and
// StepDay children run on different goroutines), so overlapping cover
// is counted once. Span IDs are unique across ops.
func selfTime(spans []span) map[uint64]int64 {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		if lo, hi := max(s.Start, p.Start), min(s.End, p.End); lo < hi {
			children[p.ID] = append(children[p.ID], [2]int64{lo, hi})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - unionLen(children[s.ID])
	}
	return out
}

// unionLen returns the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = slices.Clone(iv)
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// spanHandler records one span named name around every request next
// serves. The parent is the span in the request context when there is
// one (an outer benchmark wrapper set it), else the client span named
// in spanHeader. The new span becomes the parent for what next calls:
// through the request context, and through amb (when set) for calls
// that carry no context. after, when set, sees every request, traced or
// not.
func spanHandler(t *tracer, name string, next http.Handler, amb *ambient, after func(*http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := spanFrom(r.Context())
		if parent.op == 0 {
			parent = parseSpanRef(r.Header.Get(spanHeader))
		}
		sp := t.begin(parent, name)
		if sp != nil {
			r = r.WithContext(withSpan(r.Context(), sp.ref()))
			if amb != nil {
				amb.set(sp.ref())
			}
		}
		next.ServeHTTP(w, r)
		sp.end()
		if after != nil {
			after(r)
		}
	})
}
