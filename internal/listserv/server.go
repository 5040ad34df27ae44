// Package listserv distributes top-list snapshots over HTTP and
// collects them back into archives.
//
// The paper's §4 dataset is assembled by downloading each provider's
// daily CSV publication (e.g. Alexa's top-1m.csv.zip from S3) over
// many months. This package reproduces that pipeline end to end: a
// Server publishes any toplist.Source the way providers publish their
// lists (dated CSV documents, also gzip- and zip-wrapped, with strong
// validators for caching), a Client downloads and decodes snapshots
// with retries and conditional requests, and a Mirror drives a Client
// once per simulated day to rebuild an Archive — including the gap
// handling a real longitudinal collection needs.
//
// These are the provider-shaped routes (one CSV per day, formats per
// provider); the structured archive-to-archive wire API lives in
// internal/archived and serves the same sources.
package listserv

import (
	"archive/zip"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/toplist"
)

// Format selects the on-the-wire encoding of a snapshot.
type Format int

const (
	// FormatCSV is the bare "rank,domain" file.
	FormatCSV Format = iota
	// FormatGzip is the CSV file gzip-compressed (Majestic style).
	FormatGzip
	// FormatZip is a zip archive holding one member, top-1m.csv
	// (Alexa/Umbrella style).
	FormatZip
)

// String returns the file-name suffix associated with the format.
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "top-1m.csv"
	case FormatGzip:
		return "top-1m.csv.gz"
	case FormatZip:
		return "top-1m.csv.zip"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

func (f Format) contentType() string {
	switch f {
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatGzip:
		return "application/gzip"
	case FormatZip:
		return "application/zip"
	default:
		return "application/octet-stream"
	}
}

// Index is the JSON document served at /v1/index describing what the
// server publishes.
type Index struct {
	Providers []string `json:"providers"`
	FirstDay  string   `json:"first_day"` // ISO date
	LastDay   string   `json:"last_day"`  // ISO date
	Days      int      `json:"days"`
}

// Server publishes an archive source over HTTP. It implements
// http.Handler.
//
// Routes (all GET/HEAD):
//
//	/v1/index                           JSON Index document
//	/v1/{provider}/latest/top-1m.csv    latest snapshot, bare CSV
//	/v1/{provider}/{date}/top-1m.csv    dated snapshot, bare CSV
//
// plus .csv.gz and .csv.zip variants of both snapshot routes. Snapshot
// responses carry a strong ETag (content hash) and a Last-Modified of
// the snapshot's publication instant, so conditional requests and
// range requests behave like a static-file host — which is what the
// real providers use.
//
// Encoded snapshot documents are kept in a bounded single-flight LRU
// (256 documents) keyed by (provider, day, format) and validated by
// the identity of the immutable list they encode — so a hot-swapped
// Source (serve.SwappableSource) or a repairing DiskStore Put yields a
// different list pointer, misses, and is re-encoded instead of served
// stale.
type Server struct {
	archive *Gatekeeper
	mux     *http.ServeMux
	cache   *cache.LRU[blobKey, *blob]
}

// Gatekeeper mediates read access to an archive source, so a Server
// can also publish a still-growing collection: visibility limits which
// days readers see, mimicking a provider that publishes one file per
// day. The source may be any toplist.Source — an in-memory Archive, a
// DiskStore reopened from a previous run, a store still being written,
// or a serve.SwappableSource so the served archive can be hot-swapped;
// every read resolves a per-call snapshot of the source, so a swap
// never tears a read.
type Gatekeeper struct {
	mu      sync.RWMutex
	archive toplist.Source
	visible toplist.Day // last visible day
}

// NewGatekeeper exposes archive up to (and including) lastVisible.
func NewGatekeeper(archive toplist.Source, lastVisible toplist.Day) *Gatekeeper {
	return &Gatekeeper{archive: archive, visible: lastVisible}
}

// Put stores a snapshot in the underlying archive under the
// gatekeeper's write lock, making the Gatekeeper a streaming
// toplist.SnapshotSink: the simulation engine can publish days into a
// live-served archive while HTTP readers keep going. It requires the
// gatekept source to also be a sink (a toplist.Store); gatekeeping a
// read-only source makes Put fail. Visibility does not advance
// automatically; pair Put with Advance (typically from an engine
// DaySink's EndDay) once a day is complete.
func (g *Gatekeeper) Put(provider string, day toplist.Day, l *toplist.List) error {
	sink, ok := g.archive.(toplist.SnapshotSink)
	if !ok {
		return fmt.Errorf("listserv: gatekept source %T is read-only", g.archive)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return sink.Put(provider, day, l)
}

// Advance makes days up to d visible. It never retracts visibility.
func (g *Gatekeeper) Advance(d toplist.Day) {
	g.mu.Lock()
	if d > g.visible {
		g.visible = d
	}
	g.mu.Unlock()
}

// LastVisible returns the newest published day.
func (g *Gatekeeper) LastVisible() toplist.Day {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.visible
}

// View returns a read-side toplist.Source bounded by the gatekeeper's
// visibility: Get serves only published days, and Last/Days track the
// publication frontier instead of the backing archive's full range.
// It is what lets the archive wire API (internal/archived, mounted by
// toplistd -serve-archive) publish a still-growing live collection
// with the same day-by-day visibility the provider-style routes have.
func (g *Gatekeeper) View() toplist.Source { return gateView{g} }

// gateView adapts a Gatekeeper to toplist.Source.
type gateView struct{ g *Gatekeeper }

func (v gateView) Get(provider string, day toplist.Day) *toplist.List {
	return v.g.get(provider, day)
}

func (v gateView) First() toplist.Day { return serve.Snapshot(v.g.archive).First() }

// Last returns the newest published day, clamped to the backing
// archive's range. Before the first Advance it sits below First —
// callers observe an empty (zero-day) source, and toplist.Remote
// handles that range explicitly.
func (v gateView) Last() toplist.Day {
	src := serve.Snapshot(v.g.archive)
	v.g.mu.RLock()
	defer v.g.mu.RUnlock()
	last := v.g.visible
	if last > src.Last() {
		last = src.Last()
	}
	return last
}

func (v gateView) Days() int { return toplist.DayCount(v.First(), v.Last()) }

func (v gateView) Providers() []string { return serve.Snapshot(v.g.archive).Providers() }

func (g *Gatekeeper) get(provider string, day toplist.Day) *toplist.List {
	src := serve.Snapshot(g.archive)
	g.mu.RLock()
	defer g.mu.RUnlock()
	if day > g.visible {
		return nil
	}
	return src.Get(provider, day)
}

func (g *Gatekeeper) index() Index {
	src := serve.Snapshot(g.archive)
	g.mu.RLock()
	defer g.mu.RUnlock()
	last := g.visible
	if last > src.Last() {
		last = src.Last()
	}
	return Index{
		Providers: toplist.SortedProviders(src),
		FirstDay:  src.First().String(),
		LastDay:   last.String(),
		Days:      int(last-src.First()) + 1,
	}
}

type blobKey struct {
	provider string
	day      toplist.Day
	format   Format
}

type blob struct {
	data []byte
	etag string
}

// Option configures a Server.
type Option func(*Server)

// WithMux registers the server's routes on an injected mux instead of
// a private one, so a daemon can compose the CSV publication routes,
// the archive wire API, and /metrics on one mux behind one middleware
// chain. The server still implements http.Handler (serving the same
// mux) either way.
func WithMux(mux *http.ServeMux) Option {
	return func(s *Server) { s.mux = mux }
}

// NewServer publishes every day of the archive source immediately —
// hand it an in-memory Archive, a toplist.DiskStore reopened from
// disk, or a serve.SwappableSource holding either; the HTTP surface is
// identical either way.
func NewServer(archive toplist.Source, opts ...Option) *Server {
	return NewServerAt(NewGatekeeper(archive, archive.Last()), opts...)
}

// NewServerAt publishes through a Gatekeeper, letting the caller
// control day-by-day visibility (see Mirror tests for the live-
// collection scenario).
func NewServerAt(g *Gatekeeper, opts ...Option) *Server {
	s := &Server{
		archive: g,
		// The bound keeps a long-running publisher's memory at the
		// readers' working set rather than every document it served.
		cache: cache.New[blobKey, *blob](256),
	}
	for _, o := range opts {
		o(s)
	}
	if s.mux == nil {
		s.mux = http.NewServeMux()
	}
	s.mux.HandleFunc("GET /v1/index", s.handleIndex)
	s.mux.HandleFunc("GET /v1/{provider}/{day}/{file}", s.handleSnapshot)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-cache")
	if err := json.NewEncoder(w).Encode(s.archive.index()); err != nil {
		// Headers are gone; nothing to do beyond dropping the conn.
		return
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	provider := r.PathValue("provider")
	format, ok := parseFileName(r.PathValue("file"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	var day toplist.Day
	if ds := r.PathValue("day"); ds == "latest" {
		day = s.archive.LastVisible()
	} else {
		var err error
		day, err = toplist.ParseDay(ds)
		if err != nil {
			http.Error(w, "bad date: "+ds, http.StatusBadRequest)
			return
		}
	}
	list := s.archive.get(provider, day)
	if list == nil {
		http.NotFound(w, r)
		return
	}
	b, err := s.blobFor(provider, day, format, list)
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", format.contentType())
	w.Header().Set("ETag", b.etag)
	w.Header().Set("X-Toplist-Day", day.String())
	// Published at 00:00 UTC of the day after the data day, like the
	// real providers' overnight publication runs.
	published := day.Date().Add(24 * time.Hour)
	http.ServeContent(w, r, format.String(), published, bytes.NewReader(b.data))
}

func parseFileName(name string) (Format, bool) {
	switch name {
	case "top-1m.csv":
		return FormatCSV, true
	case "top-1m.csv.gz":
		return FormatGzip, true
	case "top-1m.csv.zip":
		return FormatZip, true
	default:
		return 0, false
	}
}

// blobFor returns the encoded document for l, reusing the cached
// encoding only while the source still serves the same immutable list
// for the slot — a hot swap or repairing Put yields a new list, so the
// stale entry is replaced, never served. Encodes are single-flight:
// concurrent cold requests for one document share one Encode pass.
func (s *Server) blobFor(provider string, day toplist.Day, format Format, l *toplist.List) (*blob, error) {
	return s.cache.Do(context.TODO(), blobKey{provider, day, format}, l, func() (*blob, error) {
		data, err := Encode(l, format)
		if err != nil {
			return nil, err
		}
		return &blob{data: data, etag: `"` + toplist.ContentHash(data) + `"`}, nil
	})
}

// Encode serialises a list in the given publication format. The gzip
// format is the stored snapshot document, toplist.EncodeSnapshot.
func Encode(list *toplist.List, format Format) ([]byte, error) {
	if format == FormatGzip {
		return toplist.EncodeSnapshot(list)
	}
	var csvBuf bytes.Buffer
	if err := toplist.WriteCSV(&csvBuf, list); err != nil {
		return nil, err
	}
	switch format {
	case FormatCSV:
		return csvBuf.Bytes(), nil
	case FormatZip:
		var out bytes.Buffer
		zw := zip.NewWriter(&out)
		f, err := zw.Create("top-1m.csv")
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(csvBuf.Bytes()); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		return out.Bytes(), nil
	default:
		return nil, fmt.Errorf("listserv: unknown format %v", format)
	}
}

// Decode parses a snapshot document in the given publication format.
func Decode(data []byte, format Format) (*toplist.List, error) {
	switch format {
	case FormatCSV:
		return toplist.ReadCSV(bytes.NewReader(data))
	case FormatGzip:
		l, err := toplist.DecodeSnapshot(data)
		if err != nil {
			// Name the format when the payload is not gzip at all: a
			// header that does not parse is the error's cause.
			if _, herr := gzip.NewReader(bytes.NewReader(data)); herr != nil {
				return nil, fmt.Errorf("listserv: gzip: %w", herr)
			}
		}
		return l, err
	case FormatZip:
		zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return nil, fmt.Errorf("listserv: zip: %w", err)
		}
		for _, f := range zr.File {
			if !strings.HasSuffix(f.Name, ".csv") {
				continue
			}
			rc, err := f.Open()
			if err != nil {
				return nil, fmt.Errorf("listserv: zip member %s: %w", f.Name, err)
			}
			defer rc.Close()
			return toplist.ReadCSV(rc)
		}
		return nil, fmt.Errorf("listserv: zip holds no .csv member")
	default:
		return nil, fmt.Errorf("listserv: unknown format %v", format)
	}
}

// SnapshotPath returns the server-relative path of a dated snapshot.
func SnapshotPath(provider string, day toplist.Day, format Format) string {
	return "/v1/" + provider + "/" + day.String() + "/" + format.String()
}

// LatestPath returns the server-relative path of the newest snapshot.
func LatestPath(provider string, format Format) string {
	return "/v1/" + provider + "/latest/" + format.String()
}

// sortedFormats is used by tests iterating all formats deterministically.
func sortedFormats() []Format {
	out := []Format{FormatCSV, FormatGzip, FormatZip}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
