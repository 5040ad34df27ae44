// Command mirror reproduces the paper's §4 dataset collection end to
// end over real HTTP: it publishes a simulated archive through the
// listserv server the way providers publish daily CSVs (zip-wrapped,
// with ETags), then drives a Mirror client that downloads every
// provider's snapshot day by day — with retries and gap accounting —
// and verifies the rebuilt archive matches the original byte for byte.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/listserv"

	toplists "repro"
)

func main() {
	scale := toplists.TestScale()
	scale.Population.Days = 14 // two weeks of "collection"
	study, err := toplists.Simulate(context.Background(), toplists.WithScale(scale))
	if err != nil {
		log.Fatal(err)
	}
	source := study.Archive

	// Publish like a provider: day 0 visible at start, one more day
	// per publication tick.
	gate := listserv.NewGatekeeper(source, source.First())
	server := httptest.NewServer(listserv.NewServerAt(gate))
	defer server.Close()
	fmt.Printf("publisher on %s, %d providers x %d days\n",
		server.URL, len(source.Providers()), source.Days())

	client := listserv.NewClient(server.URL,
		listserv.WithFormat(listserv.FormatZip),
		listserv.WithHTTPClient(&http.Client{Timeout: 10 * time.Second}),
	)
	idx, err := client.Index(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: providers=%v first=%s\n\n", idx.Providers, idx.FirstDay)

	mirror := listserv.NewMirror(client, source.Providers())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Follow the live publisher: advance one day, collect the archive
	// so far (already-collected days are kept, so each tick downloads
	// only the new day).
	for d := source.First(); d <= source.Last(); d++ {
		gate.Advance(d)
		if _, err := mirror.Collect(ctx, source.First(), d); err != nil {
			log.Fatal(err)
		}
	}
	got := mirror.Archive()

	mismatches := 0
	for _, p := range source.Providers() {
		for d := source.First(); d <= source.Last(); d++ {
			want := source.Get(p, d)
			have := got.Get(p, d)
			if have == nil || have.Len() != want.Len() || have.Name(1) != want.Name(1) {
				mismatches++
			}
		}
	}
	run, _ := listserv.LongestContinuousRun(got)
	fmt.Printf("collected %d days; longest continuous run %s..%s; mismatches=%d; gaps=%v\n",
		got.Days(), run.First, run.Last, mismatches, mirror.Gaps())
	if mismatches == 0 && got.Complete() {
		fmt.Println("rebuilt archive is identical to the published one ✔")
	}
}
