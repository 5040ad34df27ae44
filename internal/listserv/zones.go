package listserv

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/httpx"
	"repro/internal/simnet"
	"repro/internal/toplist"
)

// Zone publication. The paper's §8 "general population" baseline is
// the set of all com/net/org domains, obtained from the registries'
// TLD zone files — researchers download these the way they download
// top lists. WithZones teaches a Server to publish zone files at
//
//	GET /v1/zones/{tld}.zone
//
// and Client.FetchZone downloads and parses one back.

// ZoneSource supplies zone contents per TLD.
type ZoneSource interface {
	// ZoneTLDs lists the published TLDs.
	ZoneTLDs() []string
	// ZoneDomains returns the registered base domains under tld.
	ZoneDomains(tld string) []string
}

// StaticZones is a map-backed ZoneSource.
type StaticZones map[string][]string

// ZoneTLDs implements ZoneSource.
func (s StaticZones) ZoneTLDs() []string {
	out := make([]string, 0, len(s))
	for tld := range s {
		out = append(out, tld)
	}
	sort.Strings(out)
	return out
}

// ZoneDomains implements ZoneSource.
func (s StaticZones) ZoneDomains(tld string) []string { return s[tld] }

// zoneHost holds the server-side zone state.
type zoneHost struct {
	source ZoneSource

	mu    sync.Mutex
	cache map[string]blob
}

// WithZones enables zone publication on the server. It must be called
// before the server starts handling requests (i.e. right after
// NewServer/NewServerAt).
func (s *Server) WithZones(source ZoneSource) *Server {
	zh := &zoneHost{source: source, cache: make(map[string]blob)}
	s.mux.HandleFunc("GET /v1/zones/{file}", zh.handle)
	return s
}

func (zh *zoneHost) handle(w http.ResponseWriter, r *http.Request) {
	file := r.PathValue("file")
	const suffix = ".zone"
	if len(file) <= len(suffix) || file[len(file)-len(suffix):] != suffix {
		http.NotFound(w, r)
		return
	}
	tld := file[:len(file)-len(suffix)]
	if !zh.published(tld) {
		http.NotFound(w, r)
		return
	}
	b, err := zh.blobFor(tld)
	if err != nil {
		http.Error(w, "zone encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/dns; charset=utf-8")
	w.Header().Set("ETag", b.etag)
	http.ServeContent(w, r, file, toplist.Epoch, bytes.NewReader(b.data))
}

func (zh *zoneHost) published(tld string) bool {
	for _, t := range zh.source.ZoneTLDs() {
		if t == tld {
			return true
		}
	}
	return false
}

func (zh *zoneHost) blobFor(tld string) (blob, error) {
	zh.mu.Lock()
	defer zh.mu.Unlock()
	if b, ok := zh.cache[tld]; ok {
		return b, nil
	}
	var buf bytes.Buffer
	if err := simnet.WriteZone(&buf, tld, zh.source.ZoneDomains(tld), nil); err != nil {
		return blob{}, err
	}
	b := blob{data: buf.Bytes(), etag: `"` + toplist.ContentHash(buf.Bytes()) + `"`}
	zh.cache[tld] = b
	return b, nil
}

// ZonePath returns the server-relative path of a TLD zone file.
func ZonePath(tld string) string { return "/v1/zones/" + tld + ".zone" }

// FetchZone downloads and parses one TLD zone file, returning the
// registered domains. It retries transient failures like the snapshot
// fetches.
func (c *Client) FetchZone(ctx context.Context, tld string) ([]string, error) {
	url := c.baseURL + ZonePath(tld)
	var domains []string
	err := c.retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			return httpx.Transient(err)
		}
		defer httpx.Drain(resp.Body)
		if err := httpx.CheckStatus(url, resp.StatusCode); err != nil {
			return err
		}
		data, err := httpx.ReadBody(resp, c.maxBody)
		if err != nil {
			return err
		}
		origin, ds, err := simnet.ParseZone(bytes.NewReader(data))
		if err != nil {
			return httpx.Transient(err)
		}
		if origin != tld {
			return fmt.Errorf("listserv: zone origin %q, requested %q", origin, tld)
		}
		domains = ds
		return nil
	})
	if err != nil {
		return nil, err
	}
	return domains, nil
}
