package listserv

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

func zoneServer(t *testing.T) (*httptest.Server, StaticZones) {
	t.Helper()
	zones := StaticZones{
		"com": {"alpha.com", "beta.com", "gamma.com"},
		"net": {"delta.net"},
		"org": {},
	}
	arch := testArchive(t, 1)
	srv := NewServer(arch).WithZones(zones)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, zones
}

func TestFetchZoneRoundTrip(t *testing.T) {
	ts, zones := zoneServer(t)
	c := instantClient(ts.URL)
	ctx := context.Background()

	got, err := c.FetchZone(ctx, "com")
	if err != nil {
		t.Fatal(err)
	}
	// WriteZone sorts; compare as sorted sets.
	want := []string{"alpha.com", "beta.com", "gamma.com"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("com zone = %v, want %v", got, want)
	}
	net, err := c.FetchZone(ctx, "net")
	if err != nil {
		t.Fatal(err)
	}
	if len(net) != 1 || net[0] != "delta.net" {
		t.Errorf("net zone = %v", net)
	}
	_ = zones
}

func TestFetchZoneEmptyZone(t *testing.T) {
	ts, _ := zoneServer(t)
	c := instantClient(ts.URL)
	got, err := c.FetchZone(context.Background(), "org")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("org zone = %v, want empty", got)
	}
}

func TestFetchZoneUnknownTLD(t *testing.T) {
	ts, _ := zoneServer(t)
	c := instantClient(ts.URL)
	if _, err := c.FetchZone(context.Background(), "dev"); !IsNotFound(err) {
		t.Fatalf("err = %v, want 404", err)
	}
}

// TestFetchZoneBodyLimit: a zone past the client's body limit is
// refused, not parsed as a shorter zone.
func TestFetchZoneBodyLimit(t *testing.T) {
	ts, _ := zoneServer(t)
	c := instantClient(ts.URL)
	c.maxBody = 64
	if got, err := c.FetchZone(context.Background(), "com"); err == nil {
		t.Fatalf("zone past the limit read as %v, want an error", got)
	}
}

func TestZoneEndpointServesETag(t *testing.T) {
	ts, _ := zoneServer(t)
	resp, err := http.Get(ts.URL + ZonePath("com"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("zone response lacks ETag")
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+ZonePath("com"), nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional zone GET = %d, want 304", resp2.StatusCode)
	}
}

func TestZoneEndpointRejectsNonZoneFiles(t *testing.T) {
	ts, _ := zoneServer(t)
	for _, path := range []string{"/v1/zones/com.txt", "/v1/zones/.zone", "/v1/zones/com"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestStaticZonesSource(t *testing.T) {
	z := StaticZones{"org": {"a.org"}, "com": {"b.com"}}
	if got := z.ZoneTLDs(); !reflect.DeepEqual(got, []string{"com", "org"}) {
		t.Errorf("tlds = %v", got)
	}
	if got := z.ZoneDomains("org"); len(got) != 1 {
		t.Errorf("org = %v", got)
	}
}
