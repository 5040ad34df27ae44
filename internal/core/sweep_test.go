package core

import (
	"context"
	"testing"

	"repro/internal/providers"
	"repro/internal/stats"
	"repro/internal/toplist"
)

// TestSeedSweep runs tiny studies under several seeds and checks that
// the paper's headline orderings are not artifacts of one seed: churn
// ordering (Majestic < Umbrella < Alexa-post) and imperfect inter-list
// overlap must hold for every seed.
func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for _, seed := range []uint64{2, 3, 5, 8} {
		s := TestScale()
		s.Population.Seed = seed
		s.Population.Sites = 4000
		s.Population.BirthsPerDay = 25
		s.Population.Days = 22
		s.ListSize = 1200
		s.HeadSize = 50
		s.BurnInDays = 40
		st, err := RunContext(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		churn := func(p string, from, to int) float64 {
			var sum float64
			n := 0
			for d := from; d < to-1; d++ {
				cur := stats.NewIDSet(st.Archive.Get(p, toplist.Day(d)).IDs())
				next := stats.NewIDSet(st.Archive.Get(p, toplist.Day(d+1)).IDs())
				sum += float64(cur.RemovedCount(next))
				n++
			}
			return sum / float64(n)
		}
		change := st.ChangeDay()
		maj := churn(providers.Majestic, 2, st.Days())
		umb := churn(providers.Umbrella, 2, change)
		alexaPost := churn(providers.Alexa, change+1, st.Days())
		if !(maj < umb && umb < alexaPost) {
			t.Fatalf("seed %d: churn ordering broken: maj=%.1f umb=%.1f alexaPost=%.1f",
				seed, maj, umb, alexaPost)
		}
		a := stats.NewStringSet(st.Archive.Get(providers.Alexa, 5).BaseDomains().Names())
		m := stats.NewStringSet(st.Archive.Get(providers.Majestic, 5).BaseDomains().Names())
		overlap := float64(a.IntersectionCount(m)) / float64(a.Len())
		if overlap > 0.85 || overlap < 0.05 {
			t.Fatalf("seed %d: alexa∩majestic %.2f outside plausible band", seed, overlap)
		}
	}
}
