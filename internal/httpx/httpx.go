// Package httpx is the one retry policy behind every HTTP client in the
// repository: toplist.Remote, pack.HTTPRangeReaderAt, listserv.Client
// and shard.Coordinator run their requests through Policy.Do, and
// fleet.PeerSet benches a failing peer for Policy.Delay. Each client
// keeps its own request and response handling; this package decides
// only what is retried, how long to wait, and when to give up.
//
// The policy:
//
//   - 200 is success; 502, 503, 504 and 429 are transient; every other
//     status is final (CheckStatus). A status a protocol gives its own
//     meaning (404 as absent, 204, 206, 304, 416) is handled by the
//     client before it asks.
//   - Any other error is final unless the client marks it Transient:
//     connection errors and bodies cut short (ReadBody) are.
//   - Wait n (after the n-th failed attempt) lasts
//     min(Base<<(n-1), Max) × (0.5 + jitter), jitter uniform in [0, 1),
//     so a fleet of clients does not retry in lockstep.
//   - Do checks ctx before every attempt, returns a final error at
//     once, and gives up after Attempts tries with "giving up after N
//     attempts: <last error>". A cancelled ctx returns ctx's error,
//     followed by "(last error: ...)" when an attempt had failed.
package httpx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"time"
)

// Policy is a retry budget and its backoff window.
type Policy struct {
	Attempts int           // tries per request, the first included
	Base     time.Duration // wait after the first failure, before jitter
	Max      time.Duration // cap on a wait, before jitter

	// Jitter and Sleep are test hooks: nil means math/rand.Float64 and
	// a timer that returns early with ctx's error.
	Jitter func() float64
	Sleep  func(ctx context.Context, d time.Duration) error
}

// Default is the policy of every client that is not told otherwise.
// Its longest wait, the third, is 1 s before jitter, so Max does not
// bind.
var Default = Policy{Attempts: 4, Base: 250 * time.Millisecond, Max: 5 * time.Second}

// Delay returns the jittered wait after the n-th consecutive failure
// (n >= 1). A shift past Max, overflowing ones included, gives Max.
func (p Policy) Delay(n int) time.Duration {
	d := p.Max
	if s := uint(n - 1); s < 63 && p.Base <= p.Max>>s {
		d = p.Base << s
	}
	jitter := rand.Float64
	if p.Jitter != nil {
		jitter = p.Jitter
	}
	return time.Duration(float64(d) * (0.5 + jitter()))
}

// Wait sleeps for Delay(n), returning ctx's error if it ends first.
func (p Policy) Wait(ctx context.Context, n int) error {
	d := p.Delay(n)
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op until it returns nil or a final error, retrying errors
// marked Transient under the policy (see the package comment).
func (p Policy) Do(ctx context.Context, op func() error) error {
	var last error
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return fmt.Errorf("%w (last error: %v)", err, last)
			}
			return err
		}
		var t *transientError
		if err := op(); !errors.As(err, &t) {
			return err
		}
		last = t.err
		if n >= p.Attempts {
			return fmt.Errorf("giving up after %d attempts: %w", n, last)
		}
		if err := p.Wait(ctx, n); err != nil {
			return fmt.Errorf("%w (last error: %v)", err, last)
		}
	}
}

// Transient marks err as worth retrying. Do unwraps the mark, so the
// error it finally returns is never itself transient.
func Transient(err error) error { return &transientError{err} }

type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// StatusError is an HTTP status the client did not expect.
type StatusError struct {
	URL  string
	Code int
}

func (e *StatusError) Error() string { return fmt.Sprintf("%s: status %d", e.URL, e.Code) }

// CheckStatus returns nil for 200, a transient *StatusError for 502,
// 503, 504 and 429 (trouble a retry can outlive), and a final one for
// any other code. A plain 500 is final: the servers here send it for
// deterministic failures, such as a corrupt slot the archive server
// refuses to serve.
func CheckStatus(url string, code int) error {
	switch code {
	case http.StatusOK:
		return nil
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusTooManyRequests:
		return Transient(&StatusError{URL: url, Code: code})
	}
	return &StatusError{URL: url, Code: code}
}

// ReadBody reads a response body of at most limit bytes. A declared
// length over the limit is refused before reading; one within it sizes
// the buffer exactly, which matters to callers that keep the buffer;
// an undeclared body that runs past the limit is refused. Both refusals
// are final. A read error, a body short of its declared length
// included, is transient.
func ReadBody(resp *http.Response, limit int64) ([]byte, error) {
	var data []byte
	var err error
	switch n := resp.ContentLength; {
	case n > limit:
		return nil, fmt.Errorf("%s: body of %d bytes exceeds %d", resp.Request.URL, n, limit)
	case n >= 0:
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	default:
		// One byte past the limit tells a body at the limit from one
		// over it; no body runs past a limit of MaxInt64.
		probe := limit
		if probe < math.MaxInt64 {
			probe++
		}
		data, err = io.ReadAll(io.LimitReader(resp.Body, probe))
		if err == nil && int64(len(data)) > limit {
			return nil, fmt.Errorf("%s: body exceeds %d bytes", resp.Request.URL, limit)
		}
	}
	if err != nil {
		return nil, Transient(fmt.Errorf("%s: reading body: %w", resp.Request.URL, err))
	}
	return data, nil
}

// Drain reads up to 1 MiB of what is left of body and closes it, so
// the connection can be reused.
func Drain(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20)) //nolint:errcheck // best-effort keepalive drain
	body.Close()
}
