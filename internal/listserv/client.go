package listserv

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/httpx"
	"repro/internal/toplist"
)

// Client downloads list snapshots from a Server (or anything that
// serves the same routes). It retries transient failures under
// internal/httpx's policy, honours context cancellation, and keeps a
// per-URL validator cache of the etagCacheSize most recent downloads,
// so a prompt repeat download of an unchanged snapshot costs one
// conditional request.
type Client struct {
	baseURL string
	httpc   *http.Client
	format  Format
	retry   httpx.Policy // httpx.Default; tests shrink it
	maxBody int64        // maxBodyBytes; tests shrink it

	etags *cache.LRU[string, cachedDoc] // URL → last 200's validator and list
}

// maxBodyBytes caps accepted response bodies, bounding what a
// misbehaving server can make the client buffer.
const maxBodyBytes = 256 << 20

// etagCacheSize bounds the validator cache. A daemon holding one
// Client for its lifetime fetches each slot once (collectd skips the
// slots it has stored), so an unbounded cache would keep every list it
// ever collected; the 304 only pays off when the same URL is fetched
// again soon after.
const etagCacheSize = 16

type cachedDoc struct {
	etag string
	list *toplist.List
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithFormat selects the download encoding (default FormatZip, the
// Alexa publication format).
func WithFormat(f Format) ClientOption { return func(c *Client) { c.format = f } }

// NewClient builds a Client rooted at baseURL (e.g. the URL of an
// httptest server wrapping a Server).
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		httpc:   &http.Client{Timeout: 30 * time.Second},
		format:  FormatZip,
		retry:   httpx.Default,
		maxBody: maxBodyBytes,
		etags:   cache.New[string, cachedDoc](etagCacheSize),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// IsNotFound reports whether err is a 404 *httpx.StatusError — the
// signal a collector uses to distinguish "snapshot not published" from
// an outage.
func IsNotFound(err error) bool {
	var se *httpx.StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

// Index fetches the server's publication index.
func (c *Client) Index(ctx context.Context) (*Index, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/index", nil)
	if err != nil {
		return nil, err
	}
	var idx Index
	err = c.retry.Do(ctx, func() error {
		resp, err := c.httpc.Do(req.Clone(ctx))
		if err != nil {
			return httpx.Transient(err)
		}
		defer httpx.Drain(resp.Body)
		if err := httpx.CheckStatus(req.URL.String(), resp.StatusCode); err != nil {
			return err
		}
		data, err := httpx.ReadBody(resp, c.maxBody)
		if err != nil {
			return err
		}
		idx = Index{}
		if err := json.Unmarshal(data, &idx); err != nil {
			return httpx.Transient(err)
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
	err := c.retry.Do(ctx, func() error {
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
			return httpx.Transient(err)
		}
		defer httpx.Drain(resp.Body)
		if haveCached && resp.StatusCode == http.StatusNotModified {
			list = cached.list
			return nil
		}
		if err := httpx.CheckStatus(url, resp.StatusCode); err != nil {
			return err
		}
		body, err := httpx.ReadBody(resp, c.maxBody)
		if err != nil {
			return err
		}
		l, err := Decode(body, c.format)
		if err != nil {
			// A truncated or corrupt document can be a transfer
			// artifact; retrying is the longitudinal-collection
			// behaviour (re-download before declaring the day lost).
			return httpx.Transient(err)
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
