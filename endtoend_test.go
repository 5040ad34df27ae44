package toplists

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/hygiene"
	"repro/internal/listserv"
	"repro/internal/toplist"
)

// TestEndToEndCollectionPipeline exercises the full §4→§6→§9 pipeline
// the way a researcher would run it against real providers: simulate
// the ecosystem, publish the archive over HTTP in the providers'
// publication format, collect it back slot by slot with the listserv
// client, verify the collected archive is identical, and then run the
// stability analysis and the hygiene recommendations on the
// *collected* data.
func TestEndToEndCollectionPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end network pipeline")
	}
	scale := TestScale()
	scale.Population.Days = 21
	study, err := Simulate(context.Background(), WithScale(scale))
	if err != nil {
		t.Fatal(err)
	}

	// Publish (with the general-population zone files) and collect.
	zones := listserv.StaticZones{
		"com": study.World.ZoneDomains(0, "com"),
		"net": study.World.ZoneDomains(0, "net"),
		"org": study.World.ZoneDomains(0, "org"),
	}
	ts := httptest.NewServer(listserv.NewServer(study.Archive).WithZones(zones))
	defer ts.Close()
	client := listserv.NewClient(ts.URL)
	ctx := context.Background()
	collected := toplist.NewArchive(study.Archive.First(), study.Archive.Last())
	for _, p := range study.Archive.Providers() {
		for d := study.Archive.First(); d <= study.Archive.Last(); d++ {
			l, err := client.FetchDay(ctx, p, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := collected.Put(p, d, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !collected.Complete() {
		t.Fatal("collected archive incomplete")
	}

	// Byte-identical snapshots.
	for _, p := range study.Archive.Providers() {
		toplist.EachDay(study.Archive, func(d toplist.Day) {
			want := study.Archive.Get(p, d).Names()
			got := collected.Get(p, d).Names()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s %v: mirrored snapshot differs", p, d)
			}
		})
	}

	// The zone download matches the world's population source.
	com, err := client.FetchZone(ctx, "com")
	if err != nil {
		t.Fatal(err)
	}
	if len(com) == 0 || len(com) != len(zones["com"]) {
		t.Fatalf("com zone = %d domains, want %d", len(com), len(zones["com"]))
	}

	// Analyses on collected data agree with analyses on the original.
	origCtx := study.Analysis
	collCtx := analysis.NewContext(study.World, collected)
	origTau := origCtx.KendallDayToDay(Alexa, scale.HeadSize)
	collTau := collCtx.KendallDayToDay(Alexa, scale.HeadSize)
	if !reflect.DeepEqual(origTau, collTau) {
		t.Fatal("stability analysis differs between original and mirrored archive")
	}

	// The §9 recommendations run end to end on the collected archive.
	zone := study.World.ZoneAt(int(study.Archive.Last()))
	imp := hygiene.StabilityImpact(collected, Umbrella, hygiene.Recommended(zone), 0)
	if imp.Days != collected.Days() {
		t.Fatalf("hygiene saw %d days, want %d", imp.Days, collected.Days())
	}
	if imp.MeanDrop <= 0 {
		t.Error("umbrella cleaning dropped nothing — junk generation broken?")
	}
	t.Logf("pipeline ok: %d days mirrored, umbrella drop %.1f%%, raw churn %.2f%%",
		collected.Days(), 100*imp.MeanDrop, 100*imp.RawChurn)
}
