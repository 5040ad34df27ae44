package analysis

import (
	"repro/internal/toplist"
)

// IntersectionPoint is one day of Fig. 1a: pairwise and triple
// intersections of the base-domain-normalised lists.
type IntersectionPoint struct {
	Day                                toplist.Day
	AlexaUmbrella, AlexaMajestic       int
	UmbrellaMajestic, AllThree         int
	AlexaBases, UmbrellaBases, MajBase int
}

// IntersectionSeries computes Fig. 1a over the archive for the three
// standard providers at the given subset size (0 = full list).
//
// No per-day set is built: each day sets one bit per list on the base
// keys the list holds, counts the keys by bit pattern, and clears the
// bits of the keys it touched.
func (c *Context) IntersectionSeries(alexa, umbrella, majestic string, top int) []IntersectionPoint {
	const inA, inU, inM = 1, 2, 4
	in := make([]uint8, len(c.groupOf)) // by base key
	var touched []uint32
	var out []IntersectionPoint
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		for _, l := range []struct {
			provider string
			bit      uint8
		}{{alexa, inA}, {umbrella, inU}, {majestic, inM}} {
			for _, id := range cut(c.column(l.provider, d), top) {
				if id == noID {
					continue
				}
				k := c.info[id].baseKey
				if in[k] == 0 {
					touched = append(touched, k)
				}
				in[k] |= l.bit
			}
		}
		var byBits [8]int
		for _, k := range touched {
			byBits[in[k]]++
			in[k] = 0
		}
		touched = touched[:0]
		p := IntersectionPoint{Day: d}
		// Each count takes the keys held by at least the lists in want.
		for _, f := range []struct {
			want  uint8
			count *int
		}{
			{inA, &p.AlexaBases}, {inU, &p.UmbrellaBases}, {inM, &p.MajBase},
			{inA | inU, &p.AlexaUmbrella}, {inA | inM, &p.AlexaMajestic},
			{inU | inM, &p.UmbrellaMajestic}, {inA | inU | inM, &p.AllThree},
		} {
			for bits, n := range byBits {
				if uint8(bits)&f.want == f.want {
					*f.count += n
				}
			}
		}
		out = append(out, p)
	})
	return out
}

// DisjunctRow is one provider's row of Table 3: of the head domains
// found only in this provider's list over the final week, the share
// present on the advertising/tracking blacklist, associated with mobile
// traffic, and found in the other providers' full lists.
type DisjunctRow struct {
	Provider    string
	Disjunct    int
	BlacklistPC float64 // % hpHosts analog
	MobilePC    float64 // % Lumen analog
	OtherTopPC  float64 // % in the other lists' full Top lists
}

// Table3 classifies the one-week disjunct head domains (paper §5.3).
// head is the head subset size; the final seven archive days are
// aggregated.
func (c *Context) Table3(providers []string, head int) []DisjunctRow {
	last := c.Arch.Last()
	first := last - 6
	if first < c.Arch.First() {
		first = c.Arch.First()
	}
	// Weekly unions of head IDs and full-list IDs per provider.
	headU := make([]map[uint32]struct{}, len(providers))
	fullU := make([]map[uint32]struct{}, len(providers))
	for i, p := range providers {
		headU[i] = make(map[uint32]struct{})
		fullU[i] = make(map[uint32]struct{})
		for d := first; d <= last; d++ {
			ids, _ := c.ids(p, d, head)
			for _, id := range ids {
				headU[i][id] = struct{}{}
			}
			ids, _ = c.ids(p, d, 0)
			for _, id := range ids {
				fullU[i][id] = struct{}{}
			}
		}
	}
	rows := make([]DisjunctRow, len(providers))
	for i, p := range providers {
		row := DisjunctRow{Provider: p}
		var bl, mob, other int
		for id := range headU[i] {
			exclusive := true
			for j := range providers {
				if j == i {
					continue
				}
				if _, ok := headU[j][id]; ok {
					exclusive = false
					break
				}
			}
			if !exclusive {
				continue
			}
			row.Disjunct++
			cat := c.W.Domains[id].Category
			if cat.Blacklisted() {
				bl++
			}
			if cat.MobileTraffic() {
				mob++
			}
			inOther := false
			for j := range providers {
				if j == i {
					continue
				}
				if _, ok := fullU[j][id]; ok {
					inOther = true
					break
				}
			}
			if inOther {
				other++
			}
		}
		if row.Disjunct > 0 {
			n := float64(row.Disjunct)
			row.BlacklistPC = 100 * float64(bl) / n
			row.MobilePC = 100 * float64(mob) / n
			row.OtherTopPC = 100 * float64(other) / n
		}
		rows[i] = row
	}
	return rows
}
