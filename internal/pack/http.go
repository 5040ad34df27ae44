package pack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/httpx"
)

// This file is the remote blob backend: an io.ReaderAt over HTTP Range
// requests, which makes any static file server — nginx in front of a
// disk, an object store, http.FileServer in a test — an archive
// backend, because pack.Open only ever asks for byte ranges. Its
// requests retry under internal/httpx's policy: connection errors,
// 502/503/504, 429 and truncated bodies are transient; everything else
// is final.
//
// Two problems are specific to range-reading one large file:
//
//   - The file must not change under the reader: a pack's directory
//     holds absolute offsets, so mixing ranges of two versions of the
//     file yields garbage that the per-slot hashes would catch only
//     after a confusing partial read. The validator (ETag, or
//     Last-Modified when the server sends no ETag) captured when the
//     reader opens is sent as If-Range with every request, so a
//     changed file makes the server answer 200-with-full-body instead
//     of a stale 206 — which the reader refuses. A 206 carrying a
//     different ETag is refused the same way.
//
//   - Chatty small reads: opening a pack reads a header, a footer, and
//     a directory; slot reads then walk blobs in order. Adjacent small
//     reads are coalesced into aligned chunk fetches (128 KiB)
//     held in a small LRU, so the open sequence and a day-range sweep
//     cost a handful of requests instead of one per read. Reads at
//     least one chunk long bypass the chunk cache with a single exact
//     range request — one request per blob, no double buffering.
//
// A server that ignores Range and answers 200 with the full body is
// tolerated once (the body is read through and the requested window
// kept), because some ad-hoc servers do exactly that for small files;
// a second full-body answer fails the read — re-downloading the
// archive per read is pathological, and the caller should fetch the
// file and use OpenFile instead.

// ErrChangedMidRead reports that the served file's validator (ETag or
// Last-Modified) changed between opening the reader and a later range
// read. The pack's offsets are no longer trustworthy; reopen with
// OpenURL to read the new version.
var ErrChangedMidRead = errors.New("pack: remote file changed mid-read")

// errRangeIgnored reports a server that answered 200-with-full-body to
// a ranged request more than once.
var errRangeIgnored = errors.New("pack: server ignores Range requests")

// Option configures OpenURL and NewHTTPRangeReaderAt.
type Option func(*options)

type options struct {
	client *http.Client
}

// WithHTTPClient substitutes the *http.Client used for range requests
// (timeouts, transports, test doubles).
func WithHTTPClient(c *http.Client) Option {
	return func(o *options) { o.client = c }
}

// defaultChunkSize is the aligned fetch granularity small reads are
// coalesced into, and chunkCacheSize bounds the chunk LRU: 4 MiB in
// all.
const (
	defaultChunkSize = 128 << 10
	chunkCacheSize   = 32
)

// HTTPRangeReaderAt reads a remote file through HTTP Range requests —
// the blob backend that turns any static file server into a pack
// archive store. It is safe for concurrent ReadAt calls; see the file
// comment for its retries and range guards.
type HTTPRangeReaderAt struct {
	url    string
	ctx    context.Context
	client *http.Client
	retry  httpx.Policy // httpx.Default; tests shrink it
	size   int64
	// validator is the If-Range guard captured at open: the ETag when
	// the server sent one, else its Last-Modified, else "" (no guard —
	// per-slot hashes remain the backstop).
	validator string
	chunkSize int64                     // defaultChunkSize; tests shrink it
	chunks    *cache.LRU[int64, []byte] // aligned chunk start → bytes

	mu         sync.Mutex
	fullBodyOK bool // the one-shot 200-tolerance has been spent
}

// NewHTTPRangeReaderAt probes the file at url (HEAD, falling back to a
// one-byte range GET for servers that mishandle HEAD), capturing its
// size and validator, and returns a ReaderAt over it. ctx bounds the
// probe and every later ReadAt issued through the returned reader.
func NewHTTPRangeReaderAt(ctx context.Context, url string, opts ...Option) (*HTTPRangeReaderAt, error) {
	o := options{client: &http.Client{Timeout: 30 * time.Second}}
	for _, fn := range opts {
		fn(&o)
	}
	h := &HTTPRangeReaderAt{
		url:       url,
		ctx:       ctx,
		client:    o.client,
		retry:     httpx.Default,
		chunkSize: defaultChunkSize,
		chunks:    cache.New[int64, []byte](chunkCacheSize),
	}
	if err := h.probe(ctx); err != nil {
		return nil, err
	}
	return h, nil
}

// Size returns the remote file's length as reported at open.
func (h *HTTPRangeReaderAt) Size() int64 { return h.size }

// URL returns the file's URL.
func (h *HTTPRangeReaderAt) URL() string { return h.url }

// probe learns the file's size and validator.
func (h *HTTPRangeReaderAt) probe(ctx context.Context) error {
	err := h.retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodHead, h.url, nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return httpx.Transient(err)
		}
		defer httpx.Drain(resp.Body)
		if err := httpx.CheckStatus(h.url, resp.StatusCode); err != nil {
			return err
		}
		if resp.ContentLength < 0 {
			return &probeFallback{}
		}
		h.size = resp.ContentLength
		h.adoptValidator(resp)
		return nil
	})
	var fb *probeFallback
	if errors.As(err, &fb) {
		err = h.probeRange(ctx)
	}
	// Servers that reject HEAD outright (405/501) also fall back.
	var se *httpx.StatusError
	if errors.As(err, &se) && (se.Code == http.StatusMethodNotAllowed || se.Code == http.StatusNotImplemented) {
		err = h.probeRange(ctx)
	}
	if err != nil {
		return fmt.Errorf("pack: probe %s: %w", h.url, err)
	}
	return nil
}

// probeRange sizes the file with a one-byte range GET, for servers
// whose HEAD responses carry no length.
func (h *HTTPRangeReaderAt) probeRange(ctx context.Context) error {
	return h.retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Range", "bytes=0-0")
		resp, err := h.client.Do(req)
		if err != nil {
			return httpx.Transient(err)
		}
		defer httpx.Drain(resp.Body)
		switch resp.StatusCode {
		case http.StatusPartialContent:
			total, ok := contentRangeTotal(resp.Header.Get("Content-Range"))
			if !ok {
				return fmt.Errorf("pack: GET %s: unparseable Content-Range %q", h.url, resp.Header.Get("Content-Range"))
			}
			h.size = total
		case http.StatusOK:
			if resp.ContentLength < 0 {
				return fmt.Errorf("pack: GET %s: server reports no file size", h.url)
			}
			h.size = resp.ContentLength
		default:
			return httpx.CheckStatus(h.url, resp.StatusCode)
		}
		h.adoptValidator(resp)
		return nil
	})
}

func (h *HTTPRangeReaderAt) adoptValidator(resp *http.Response) {
	if et := resp.Header.Get("ETag"); et != "" {
		h.validator = et
	} else {
		h.validator = resp.Header.Get("Last-Modified")
	}
}

// probeFallback signals that HEAD succeeded but carried no usable
// length.
type probeFallback struct{}

func (*probeFallback) Error() string { return "pack: HEAD carried no Content-Length" }

// ReadAt implements io.ReaderAt: reads shorter than one chunk are
// served from the coalescing chunk cache; longer reads issue a single
// exact range request.
func (h *HTTPRangeReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pack: negative read offset %d", off)
	}
	if off >= h.size {
		return 0, io.EOF
	}
	end := off + int64(len(p))
	atEOF := false
	if end > h.size {
		end, atEOF = h.size, true
	}
	want := end - off
	if want >= h.chunkSize {
		if err := h.fetchRange(h.ctx, p[:want], off); err != nil {
			return 0, err
		}
	} else {
		for cur := off; cur < end; {
			start := cur - cur%h.chunkSize
			data, err := h.chunk(start)
			if err != nil {
				return int(cur - off), err
			}
			if int64(len(data)) <= cur-start {
				return int(cur - off), io.ErrUnexpectedEOF
			}
			cur += int64(copy(p[cur-off:want], data[cur-start:]))
		}
	}
	if atEOF {
		return int(want), io.EOF
	}
	return int(want), nil
}

// chunk returns the aligned chunk starting at start, fetching it
// single-flight and caching it in the LRU.
func (h *HTTPRangeReaderAt) chunk(start int64) ([]byte, error) {
	return h.chunks.Do(h.ctx, start, nil, func() ([]byte, error) {
		buf := make([]byte, min(start+h.chunkSize, h.size)-start)
		if err := h.fetchRange(h.ctx, buf, start); err != nil {
			return nil, err
		}
		return buf, nil
	})
}

// fetchRange fills buf with the bytes at [off, off+len(buf)), retrying
// transient failures, guarding against the file changing, and
// tolerating exactly one Range-ignoring 200.
func (h *HTTPRangeReaderAt) fetchRange(ctx context.Context, buf []byte, off int64) error {
	if len(buf) == 0 {
		return nil
	}
	return h.retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(buf))-1))
		if h.validator != "" {
			req.Header.Set("If-Range", h.validator)
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return httpx.Transient(err)
		}
		defer httpx.Drain(resp.Body)
		switch resp.StatusCode {
		case http.StatusPartialContent:
			if et := resp.Header.Get("ETag"); et != "" && h.validator != "" && et != h.validator {
				return fmt.Errorf("%w: ETag %s at open, %s now", ErrChangedMidRead, h.validator, et)
			}
			if start, ok := contentRangeStart(resp.Header.Get("Content-Range")); ok && start != off {
				return fmt.Errorf("pack: GET %s: asked for offset %d, server answered %d", h.url, off, start)
			}
			if _, err := io.ReadFull(resp.Body, buf); err != nil {
				return httpx.Transient(fmt.Errorf("truncated range body: %w", err))
			}
			return nil
		case http.StatusOK:
			// Either the file changed (If-Range mismatch makes a server
			// answer with the full current body) or the server ignores
			// Range entirely. Distinguish by validator.
			if h.validator != "" && h.responseValidator(resp) != h.validator {
				return fmt.Errorf("%w: full-body answer with a new validator", ErrChangedMidRead)
			}
			return h.readFromFullBody(resp, buf, off)
		case http.StatusRequestedRangeNotSatisfiable:
			// We only ask for ranges inside the size captured at open,
			// so a 416 means the file shrank or was replaced.
			return fmt.Errorf("%w: range %d+%d rejected with 416", ErrChangedMidRead, off, len(buf))
		default:
			return httpx.CheckStatus(h.url, resp.StatusCode)
		}
	})
}

func (h *HTTPRangeReaderAt) responseValidator(resp *http.Response) string {
	if et := resp.Header.Get("ETag"); et != "" {
		return et
	}
	return resp.Header.Get("Last-Modified")
}

// readFromFullBody salvages a ranged read from a 200-with-full-body
// answer, at most once per reader (see the file comment).
func (h *HTTPRangeReaderAt) readFromFullBody(resp *http.Response, buf []byte, off int64) error {
	h.mu.Lock()
	spent := h.fullBodyOK
	h.fullBodyOK = true
	h.mu.Unlock()
	if spent {
		return fmt.Errorf("%w (%s): fetch the file and use OpenFile instead", errRangeIgnored, h.url)
	}
	if resp.ContentLength >= 0 && resp.ContentLength != h.size {
		return fmt.Errorf("%w: full body is %d bytes, was %d at open", ErrChangedMidRead, resp.ContentLength, h.size)
	}
	if _, err := io.CopyN(io.Discard, resp.Body, off); err != nil {
		return httpx.Transient(fmt.Errorf("truncated full body: %w", err))
	}
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		return httpx.Transient(fmt.Errorf("truncated full body: %w", err))
	}
	return nil
}

// contentRangeTotal parses the total length out of a Content-Range
// header ("bytes 0-0/12345").
func contentRangeTotal(v string) (int64, bool) {
	_, after, ok := strings.Cut(v, "/")
	if !ok || after == "*" {
		return 0, false
	}
	n, err := strconv.ParseInt(after, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// contentRangeStart parses the range start out of a Content-Range
// header ("bytes 100-199/12345").
func contentRangeStart(v string) (int64, bool) {
	v = strings.TrimPrefix(v, "bytes ")
	before, _, ok := strings.Cut(v, "-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(before, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// OpenURL opens the packed archive served at url over HTTP Range
// requests — the object-store-style backend: any static file server
// holding the pack file becomes an archive server, with no
// archive-aware code on the remote side. The returned Pack reads
// lazily (directory at open, blobs on demand) and verifies every blob
// against its directory hash, so a lying or bit-flipping transport is
// caught per read. ctx bounds the size/validator probe and every
// later range read.
func OpenURL(ctx context.Context, url string, opts ...Option) (*Pack, error) {
	ra, err := NewHTTPRangeReaderAt(ctx, url, opts...)
	if err != nil {
		return nil, err
	}
	p, err := Open(ra, ra.Size())
	if err != nil {
		return nil, fmt.Errorf("pack: open %s: %w", url, err)
	}
	return p, nil
}
