package httpx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// pinned returns p with jitter pinned to 0.5 (factor exactly 1.0) and
// sleeps recorded into *slept instead of taken.
func pinned(p Policy, slept *[]time.Duration) Policy {
	p.Jitter = func() float64 { return 0.5 }
	p.Sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	return p
}

func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

func TestCheckStatus(t *testing.T) {
	if err := CheckStatus("http://h/x", http.StatusOK); err != nil {
		t.Fatalf("200: %v", err)
	}
	for _, tc := range []struct {
		code      int
		transient bool
	}{
		{502, true}, {503, true}, {504, true}, {429, true},
		{400, false}, {404, false}, {409, false}, {416, false}, {500, false},
	} {
		err := CheckStatus("http://h/x", tc.code)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != tc.code || se.URL != "http://h/x" {
			t.Errorf("%d: %v, want a StatusError for it", tc.code, err)
		}
		if isTransient(err) != tc.transient {
			t.Errorf("%d: transient = %v, want %v", tc.code, !tc.transient, tc.transient)
		}
	}
}

// TestDelayDoublesFromBase: with the jitter pinned, the waits double
// from Base, and the budget ends in a give-up error that carries the
// last status and is no longer transient.
func TestDelayDoublesFromBase(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var slept []time.Duration
	p := pinned(Policy{Attempts: 4, Base: 10 * time.Millisecond, Max: time.Hour}, &slept)
	err := p.Do(context.Background(), func() error {
		resp, err := http.Get(srv.URL + "/x")
		if err != nil {
			return Transient(err)
		}
		defer Drain(resp.Body)
		return CheckStatus(srv.URL+"/x", resp.StatusCode)
	})
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("retry error: %v", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || isTransient(err) {
		t.Fatalf("give-up error %v: want a final error wrapping the 503", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("slept %v, want %v (doubling from base)", slept, want)
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4", got)
	}
}

// TestDelayCap: a wait clamps at Max.
func TestDelayCap(t *testing.T) {
	var slept []time.Duration
	p := pinned(Policy{Attempts: 5, Base: 10 * time.Millisecond, Max: 25 * time.Millisecond}, &slept)
	if err := p.Do(context.Background(), func() error { return Transient(errors.New("down")) }); err == nil {
		t.Fatal("Do succeeded against permanent failure")
	}
	// 10, 20, then clamped to 25, 25.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
}

// TestDelayShiftOverflow: a shift that overflows, or would pass Max
// only after wrapping, gives Max.
func TestDelayShiftOverflow(t *testing.T) {
	half := func() float64 { return 0.5 }
	for _, tc := range []struct {
		p Policy
		n int
	}{
		{Policy{Base: 250 * time.Millisecond, Max: 5 * time.Second}, 64},
		{Policy{Base: 250 * time.Millisecond, Max: 5 * time.Second}, 1000},
		{Policy{Base: time.Second, Max: 2 * time.Minute}, 64},
		{Policy{Base: 3, Max: 5 * time.Second}, 63},         // 3<<62 wraps negative
		{Policy{Base: 1<<40 + 1, Max: 2 * time.Minute}, 25}, // wraps to 16 ms
	} {
		tc.p.Jitter = half
		if got := tc.p.Delay(tc.n); got != tc.p.Max {
			t.Errorf("Delay(%d) with base %v = %v, want Max %v", tc.n, tc.p.Base, got, tc.p.Max)
		}
	}
}

// TestDoFinalErrorNoRetry: a final error returns at once, unchanged,
// without a sleep.
func TestDoFinalErrorNoRetry(t *testing.T) {
	var slept []time.Duration
	p := pinned(Policy{Attempts: 4, Base: time.Millisecond, Max: time.Second}, &slept)
	calls := 0
	final := CheckStatus("http://h/x", http.StatusBadRequest)
	err := p.Do(context.Background(), func() error {
		calls++
		return final
	})
	if err != final || calls != 1 || len(slept) != 0 {
		t.Fatalf("final error: err=%v calls=%d slept=%v", err, calls, slept)
	}
}

// TestDelayJitterWindow: the unpinned jitter keeps each wait within
// ±50% of its doubled base.
func TestDelayJitterWindow(t *testing.T) {
	p := Policy{Attempts: 4, Base: 100 * time.Millisecond, Max: 5 * time.Second}
	for i := 0; i < 1000; i++ {
		// Attempt 2 base 100ms (50–150ms), attempt 3 base 200ms (100–300ms).
		if d := p.Delay(1); d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("Delay(1) = %v outside jitter window", d)
		}
		if d := p.Delay(2); d < 100*time.Millisecond || d > 300*time.Millisecond {
			t.Fatalf("Delay(2) = %v outside jitter window", d)
		}
	}
}

// TestDoCancelledBeforeFirstAttempt: a ctx already done returns its
// bare error and never runs op.
func TestDoCancelledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Default.Do(ctx, func() error { calls++; return nil })
	if err != context.Canceled || calls != 0 {
		t.Fatalf("err=%v calls=%d, want bare context.Canceled and no attempt", err, calls)
	}
}

// TestDoCancelledDuringSleep: cancellation during a backoff returns
// ctx's error and keeps the last transient cause in the message.
func TestDoCancelledDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Attempts: 10, Base: time.Millisecond, Max: time.Second}
	p.Sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // cancel during the first backoff
		return ctx.Err()
	}
	err := p.Do(ctx, func() error { return CheckStatus("http://h/x", http.StatusBadGateway) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "(last error: http://h/x: status 502)") {
		t.Errorf("err should retain last transient cause, got %v", err)
	}
}

// TestWaitHonoursContext: the default sleeper returns as soon as ctx
// ends.
func TestWaitHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{Base: time.Hour, Max: time.Hour}
	if err := p.Wait(ctx, 1); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// body is a response body that counts reads and can fail after its
// data.
type body struct {
	r      io.Reader
	err    error // returned once r is exhausted (io.EOF when nil)
	reads  int
	closed bool
}

func (b *body) Read(p []byte) (int, error) {
	b.reads++
	n, err := b.r.Read(p)
	if err == io.EOF && b.err != nil {
		err = b.err
	}
	return n, err
}

func (b *body) Close() error { b.closed = true; return nil }

func response(declared int64, b *body) *http.Response {
	return &http.Response{
		ContentLength: declared,
		Body:          b,
		Request:       httptest.NewRequest(http.MethodGet, "http://h/x", nil),
	}
}

func TestReadBody(t *testing.T) {
	const limit = 8
	for _, tc := range []struct {
		name      string
		declared  int64
		data      string
		err       error // what the body returns after data
		want      string
		fail      bool
		transient bool
	}{
		{name: "declared within limit", declared: 5, data: "hello", want: "hello"},
		{name: "declared at limit", declared: 8, data: "12345678", want: "12345678"},
		{name: "declared empty", declared: 0, data: "", want: ""},
		{name: "declared over limit", declared: 9, data: "123456789", fail: true},
		{name: "declared, cut short", declared: 6, data: "hel", fail: true, transient: true},
		{name: "undeclared within limit", declared: -1, data: "hello", want: "hello"},
		{name: "undeclared at limit", declared: -1, data: "12345678", want: "12345678"},
		{name: "undeclared past limit", declared: -1, data: "123456789", fail: true},
		{name: "undeclared, cut short", declared: -1, data: "hel", err: io.ErrUnexpectedEOF, fail: true, transient: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &body{r: strings.NewReader(tc.data), err: tc.err}
			got, err := ReadBody(response(tc.declared, b), limit)
			if tc.fail {
				if err == nil {
					t.Fatalf("read %q, want an error", got)
				}
				if isTransient(err) != tc.transient {
					t.Fatalf("%v: transient = %v, want %v", err, !tc.transient, tc.transient)
				}
				if tc.declared > limit && b.reads != 0 {
					t.Fatalf("read %d times past a declared length over the limit", b.reads)
				}
				return
			}
			if err != nil || string(got) != tc.want {
				t.Fatalf("ReadBody = %q, %v; want %q", got, err, tc.want)
			}
			if tc.declared >= 0 && cap(got) != int(tc.declared) {
				t.Fatalf("cap %d, want the declared %d", cap(got), tc.declared)
			}
		})
	}
}

// FuzzReadBody holds ReadBody to its contract for any declared length,
// body and limit: it never returns more than limit bytes; a declared
// length over the limit is refused as final before the body is read;
// one within it yields exactly that many bytes in a buffer of exactly
// that capacity, or a transient error when the body is shorter; and an
// undeclared body comes back whole when it fits the limit and is
// refused as final otherwise. The seeds are TestReadBody's cases.
func FuzzReadBody(f *testing.F) {
	for _, tc := range []struct {
		declared int64
		data     string
	}{
		{5, "hello"}, {8, "12345678"}, {0, ""}, {9, "123456789"}, {6, "hel"},
		{-1, "hello"}, {-1, "12345678"}, {-1, "123456789"}, {-1, "hel"},
	} {
		f.Add(tc.declared, []byte(tc.data), int64(8))
	}
	f.Fuzz(func(t *testing.T, declared int64, data []byte, limit int64) {
		if limit < 0 || limit > 1<<20 {
			return // no limit is negative, and ReadBody may allocate up to limit bytes
		}
		b := &body{r: bytes.NewReader(data)}
		got, err := ReadBody(response(declared, b), limit)
		if int64(len(got)) > limit {
			t.Fatalf("returned %d bytes past the limit %d", len(got), limit)
		}
		switch {
		case declared > limit:
			if err == nil || isTransient(err) || b.reads != 0 {
				t.Fatalf("declared %d over limit %d: err %v (transient %v) after %d reads; want a final refusal before reading",
					declared, limit, err, isTransient(err), b.reads)
			}
		case declared >= 0 && int64(len(data)) < declared:
			if err == nil || !isTransient(err) {
				t.Fatalf("declared %d, body of %d: err %v; want a transient error", declared, len(data), err)
			}
		case declared >= 0:
			if err != nil || !bytes.Equal(got, data[:declared]) || int64(cap(got)) != declared {
				t.Fatalf("declared %d: got %q (cap %d), %v; want the first %d bytes, cap %d", declared, got, cap(got), err, declared, declared)
			}
		case int64(len(data)) <= limit:
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("undeclared body of %d within limit %d: got %q, %v", len(data), limit, got, err)
			}
		default:
			if err == nil || isTransient(err) {
				t.Fatalf("undeclared body of %d past limit %d: err %v; want a final refusal", len(data), limit, err)
			}
		}
	})
}

// TestDrain: Drain reads what is left, up to 1 MiB, and closes.
func TestDrain(t *testing.T) {
	rest := strings.NewReader(strings.Repeat("x", 2<<20))
	b := &body{r: rest}
	Drain(b)
	if !b.closed || rest.Len() != 1<<20 {
		t.Fatalf("closed=%v, %d bytes left; want closed with 1 MiB left", b.closed, rest.Len())
	}
}
