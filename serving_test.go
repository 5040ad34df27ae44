package toplists

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/toplist"
)

// TestFacadeServingCore pins the facade's ArchiveHandler inside the
// serving core: a serve.SwappableSource behind ArchiveHandler and the
// full middleware chain serves the archive wire API, /metrics counts
// the traffic, and a Swap changes what subsequent requests read
// without rebuilding the handler.
func TestFacadeServingCore(t *testing.T) {
	build := func(name string) Source {
		arch := toplist.NewArchive(0, 0)
		if err := arch.Put("alexa", 0, toplist.New([]string{name, "b.org"})); err != nil {
			t.Fatal(err)
		}
		return arch
	}

	swap := serve.NewSwappableSource(build("first.com"))
	m := serve.NewMetrics()
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", m.Handler())
	mux.Handle("/", ArchiveHandler(swap))
	handler := serve.Chain(mux,
		m.Instrument(serve.RouteLabel),
		serve.AccessLog(nil),
		serve.Limit(16, m),
		serve.Recover(nil, m),
	)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	path := toplist.RemoteSnapshotPath("alexa", 0)
	if body := get(path); !strings.Contains(body, "first.com") {
		t.Fatalf("pre-swap snapshot missing first.com: %q", body)
	}
	swap.Swap(build("second.com"))
	if body := get(path); !strings.Contains(body, "second.com") {
		t.Fatalf("post-swap snapshot still serving the old generation: %q", body)
	}
	exposition := get("/metrics")
	if !strings.Contains(exposition, "http_requests_total") {
		t.Fatalf("metrics exposition missing request counter:\n%s", exposition)
	}
}
