package listserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/toplist"
)

// Client downloads list snapshots from a Server (or anything that
// serves the same routes). It retries transient failures with jittered
// exponential backoff, honours context cancellation, and keeps a
// per-URL validator cache of the etagCacheSize most recent downloads,
// so a prompt repeat download of an unchanged snapshot costs one
// conditional request.
type Client struct {
	baseURL string
	httpc   *http.Client
	format  Format

	maxAttempts int
	baseBackoff time.Duration
	maxBody     int64
	sleep       func(context.Context, time.Duration) error
	jitter      func() float64

	etags *cache.LRU[string, cachedDoc] // URL → last 200's validator and list
}

// etagCacheSize bounds the validator cache. A daemon holding one
// Client for its lifetime fetches each slot once (collectd skips the
// slots it has stored, Mirror the ones it has collected), so an
// unbounded cache would keep every list it ever collected; the 304
// only pays off when the same URL is fetched again soon after.
const etagCacheSize = 16

type cachedDoc struct {
	etag string
	list *toplist.List
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) ClientOption { return func(c *Client) { c.httpc = h } }

// WithFormat selects the download encoding (default FormatZip, the
// Alexa publication format).
func WithFormat(f Format) ClientOption { return func(c *Client) { c.format = f } }

// WithMaxAttempts bounds the number of tries per download (default 4).
func WithMaxAttempts(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.maxAttempts = n
		}
	}
}

// WithBaseBackoff sets the first retry delay (default 250ms; doubled
// per attempt with ±50% jitter).
func WithBaseBackoff(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.baseBackoff = d
		}
	}
}

// WithMaxBodyBytes caps accepted response bodies (default 256 MiB).
func WithMaxBodyBytes(n int64) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.maxBody = n
		}
	}
}

// withSleep replaces the backoff sleeper; tests use it to run
// instantly while still observing the requested delays.
func withSleep(f func(context.Context, time.Duration) error) ClientOption {
	return func(c *Client) { c.sleep = f }
}

// NewClient builds a Client rooted at baseURL (e.g. the URL of an
// httptest server wrapping a Server).
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		baseURL:     strings.TrimRight(baseURL, "/"),
		httpc:       &http.Client{Timeout: 30 * time.Second},
		format:      FormatZip,
		maxAttempts: 4,
		baseBackoff: 250 * time.Millisecond,
		maxBody:     256 << 20,
		jitter:      rand.Float64,
		etags:       cache.New[string, cachedDoc](etagCacheSize),
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// StatusError reports a non-retryable HTTP failure.
type StatusError struct {
	URL  string
	Code int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("listserv: GET %s: status %d", e.URL, e.Code)
}

// IsNotFound reports whether err is a 404 StatusError — the signal a
// Mirror uses to distinguish "snapshot not published" from an outage.
func IsNotFound(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

// Index fetches the server's publication index.
func (c *Client) Index(ctx context.Context) (*Index, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/index", nil)
	if err != nil {
		return nil, err
	}
	var idx Index
	err = c.retry(ctx, func() error {
		resp, err := c.httpc.Do(req.Clone(ctx))
		if err != nil {
			return &transientError{err}
		}
		defer drain(resp.Body)
		if err := classifyStatus(req.URL.String(), resp.StatusCode); err != nil {
			return err
		}
		idx = Index{}
		if err := decodeJSON(resp.Body, c.maxBody, &idx); err != nil {
			return &transientError{err}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &idx, nil
}

// FetchDay downloads provider's snapshot for the given day.
func (c *Client) FetchDay(ctx context.Context, provider string, day toplist.Day) (*toplist.List, error) {
	return c.fetch(ctx, SnapshotPath(provider, day, c.format))
}

// FetchLatest downloads provider's most recent snapshot.
func (c *Client) FetchLatest(ctx context.Context, provider string) (*toplist.List, error) {
	return c.fetch(ctx, LatestPath(provider, c.format))
}

func (c *Client) fetch(ctx context.Context, path string) (*toplist.List, error) {
	url := c.baseURL + path
	var list *toplist.List
	err := c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		cached, haveCached := c.etags.Get(url)
		if haveCached {
			req.Header.Set("If-None-Match", cached.etag)
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			return &transientError{err}
		}
		defer drain(resp.Body)
		if haveCached && resp.StatusCode == http.StatusNotModified {
			list = cached.list
			return nil
		}
		if err := classifyStatus(url, resp.StatusCode); err != nil {
			return err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody+1))
		if err != nil {
			return &transientError{err}
		}
		if int64(len(body)) > c.maxBody {
			return fmt.Errorf("listserv: GET %s: body exceeds %d bytes", url, c.maxBody)
		}
		l, err := Decode(body, c.format)
		if err != nil {
			// A truncated or corrupt document can be a transfer
			// artifact; retrying is the longitudinal-collection
			// behaviour (re-download before declaring the day lost).
			return &transientError{err}
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			c.etags.Add(url, cachedDoc{etag: etag, list: l})
		}
		list = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	return list, nil
}

// transientError marks failures worth retrying.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func classifyStatus(url string, code int) error {
	switch {
	case code == http.StatusOK:
		return nil
	case code >= 500 || code == http.StatusTooManyRequests:
		return &transientError{&StatusError{URL: url, Code: code}}
	default:
		return &StatusError{URL: url, Code: code}
	}
}

func (c *Client) retry(ctx context.Context, op func() error) error {
	var lastErr error
	backoff := c.baseBackoff
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %v)", err, lastErr)
			}
			return err
		}
		err := op()
		if err == nil {
			return nil
		}
		var te *transientError
		if !errors.As(err, &te) {
			return err
		}
		lastErr = te.err
		if attempt >= c.maxAttempts {
			return fmt.Errorf("listserv: giving up after %d attempts: %w", attempt, lastErr)
		}
		// ±50% jitter decorrelates the retry storms a fleet of
		// collectors would otherwise synchronise into.
		d := time.Duration(float64(backoff) * (0.5 + c.jitter()))
		if err := c.sleep(ctx, d); err != nil {
			return fmt.Errorf("%w (last error: %v)", err, lastErr)
		}
		backoff *= 2
	}
}

func drain(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 1<<20)) //nolint:errcheck // best-effort keepalive drain
	rc.Close()
}

func decodeJSON(r io.Reader, limit int64, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, limit))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
