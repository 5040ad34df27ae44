package analysis

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/toplist"
)

// RankVariation is one row of Table 4: a domain's highest (best),
// median, and lowest (worst) rank per provider over the archive.
// Absent days are excluded, matching the paper's presentation; Presence
// reports how often the domain was listed at all.
type RankVariation struct {
	Domain   string
	Highest  map[string]int
	Median   map[string]int
	Lowest   map[string]int
	Presence map[string]float64 // share of days listed
}

// Table4 selects example domains at the given day-0 Alexa rank targets
// (mirroring the paper's mix of top and long-tail examples) and reports
// their rank variation across all providers. Only domains present in
// every provider's day-0 list qualify, so the per-provider columns are
// comparable.
func (c *Context) Table4(providers []string, alexaProvider string, rankTargets []int) []RankVariation {
	first := c.Arch.First()
	day0 := c.Arch.Get(alexaProvider, first)
	if day0 == nil {
		return nil
	}
	// Qualify only domains present in every provider's list across the
	// period (sampled at five days) — the paper's examples are listed
	// throughout, which is what makes their rank spreads comparable.
	sampleDays := []toplist.Day{
		first,
		first + toplist.Day(c.Arch.Days()/4),
		first + toplist.Day(c.Arch.Days()/2),
		first + toplist.Day(3*c.Arch.Days()/4),
		c.Arch.Last(),
	}
	inAll := func(id uint32) bool {
		name := c.W.Domains[id].Name
		for _, p := range providers {
			for _, d := range sampleDays {
				if !c.Arch.Get(p, d).Contains(name) {
					return false
				}
			}
		}
		return true
	}
	ids := present(c.worldIDs(day0))
	var chosen []uint32
	for _, target := range rankTargets {
		if target < 1 {
			target = 1
		}
		if target > len(ids) {
			target = len(ids)
		}
		// Walk outward from the target rank to the nearest domain
		// present in all lists.
		found := false
		for off := 0; off < len(ids) && !found; off++ {
			for _, idx := range []int{target - 1 + off, target - 1 - off} {
				if idx < 0 || idx >= len(ids) {
					continue
				}
				id := ids[idx]
				if dup(chosen, id) {
					continue
				}
				if inAll(id) {
					chosen = append(chosen, id)
					found = true
					break
				}
			}
		}
	}

	out := make([]RankVariation, 0, len(chosen))
	for _, id := range chosen {
		name := c.W.Domains[id].Name
		rv := RankVariation{
			Domain:   name,
			Highest:  make(map[string]int),
			Median:   make(map[string]int),
			Lowest:   make(map[string]int),
			Presence: make(map[string]float64),
		}
		for _, p := range providers {
			var ranks []float64
			days := 0
			toplist.EachDay(c.Arch, func(d toplist.Day) {
				days++
				if r := c.Arch.Get(p, d).RankOf(name); r > 0 {
					ranks = append(ranks, float64(r))
				}
			})
			if len(ranks) == 0 {
				continue
			}
			sort.Float64s(ranks)
			rv.Highest[p] = int(ranks[0])
			rv.Median[p] = int(stats.Median(ranks))
			rv.Lowest[p] = int(ranks[len(ranks)-1])
			rv.Presence[p] = float64(len(ranks)) / float64(days)
		}
		out = append(out, rv)
	}
	return out
}

func dup(ids []uint32, id uint32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
