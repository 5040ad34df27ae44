package analysis

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/providers"
	"repro/internal/stats"
	"repro/internal/toplist"
)

// The references below are the map-based kernels that the dense ones
// replaced, kept to pin the dense kernels' output.

// baseKeySetReference is the set of base keys in the provider's cut on
// day.
func baseKeySetReference(c *Context, provider string, day toplist.Day, top int) map[uint32]struct{} {
	ids, _ := c.ids(provider, day, top)
	out := make(map[uint32]struct{}, len(ids))
	for _, id := range ids {
		out[c.info[id].baseKey] = struct{}{}
	}
	return out
}

func intersectionReference(c *Context, alexa, umbrella, majestic string, top int) []IntersectionPoint {
	var out []IntersectionPoint
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		a := baseKeySetReference(c, alexa, d, top)
		u := baseKeySetReference(c, umbrella, d, top)
		m := baseKeySetReference(c, majestic, d, top)
		p := IntersectionPoint{
			Day:           d,
			AlexaBases:    len(a),
			UmbrellaBases: len(u),
			MajBase:       len(m),
		}
		for k := range a {
			_, inU := u[k]
			_, inM := m[k]
			if inU {
				p.AlexaUmbrella++
			}
			if inM {
				p.AlexaMajestic++
			}
			if inU && inM {
				p.AllThree++
			}
		}
		for k := range u {
			if _, inM := m[k]; inM {
				p.UmbrellaMajestic++
			}
		}
		out = append(out, p)
	})
	return out
}

func dailyRemovedReference(c *Context, provider string, top int) []int {
	var out []int
	var prev stats.IDSet
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, _ := c.ids(provider, d, top)
		cur := stats.NewIDSet(ids)
		if prev != nil {
			out = append(out, prev.RemovedCount(cur))
		}
		prev = cur
	})
	return out
}

func rankMatrixReference(c *Context, provider string, top, maxDomains int) *rankMatrix {
	days := c.Arch.Days()
	m := &rankMatrix{days: days}
	ranks := make(map[uint32][]int32)
	admitThreshold := uint32(0xFFFFFFFF)
	if _, size := c.ids(provider, c.Arch.First(), top); maxDomains > 0 && size > 0 {
		p := float64(maxDomains) / float64(size)
		if p < 1 {
			admitThreshold = uint32(p * float64(0xFFFFFFFF))
		}
	}
	admit := func(id uint32) bool {
		h := id * 2654435761
		h ^= h >> 16
		h *= 2246822519
		h ^= h >> 13
		return h <= admitThreshold
	}
	day := 0
	toplist.EachDay(c.Arch, func(d toplist.Day) {
		ids, n := c.ids(provider, d, top)
		if m.size == 0 {
			m.size = n
		}
		for rank, id := range ids {
			if !admit(id) {
				continue
			}
			s, ok := ranks[id]
			if !ok {
				s = make([]int32, days)
				sentinel := int32(2 * m.size)
				for i := range s {
					s[i] = sentinel
				}
				ranks[id] = s
			}
			s[day] = int32(rank + 1)
		}
		day++
	})
	ids := make([]uint32, 0, len(ranks))
	for id := range ranks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if maxDomains > 0 && len(ids) > maxDomains {
		keep := make([]uint32, maxDomains)
		step := float64(len(ids)) / float64(maxDomains)
		for i := range keep {
			keep[i] = ids[int(float64(i)*step)]
		}
		ids = keep
	}
	m.series = make([][]int32, len(ids))
	for i, id := range ids {
		m.series[i] = ranks[id]
	}
	return m
}

// ksWeekendReference is KSWeekendDistances over the reference rank
// matrix, with fresh sample buffers per domain.
func ksWeekendReference(c *Context, provider string, top, maxDomains int) (weekend, baseline []float64) {
	m := rankMatrixReference(c, provider, top, maxDomains)
	sentinel := int32(2 * m.size)
	appendKS := func(out []float64, a, b []float64) []float64 {
		if len(a) < 4 || len(b) < 4 {
			return out
		}
		if d := stats.KSDistance(a, b); !math.IsNaN(d) {
			out = append(out, d)
		}
		return out
	}
	for _, series := range m.series {
		var wd, we []float64
		var halves [2][]float64
		for d, r := range series {
			switch {
			case r == sentinel:
			case toplist.Day(d).IsWeekend():
				we = append(we, float64(r))
			default:
				halves[len(wd)%2] = append(halves[len(wd)%2], float64(r))
				wd = append(wd, float64(r))
			}
		}
		weekend = appendKS(weekend, wd, we)
		baseline = appendKS(baseline, halves[0], halves[1])
	}
	return weekend, baseline
}

// TestKernelsMatchReferences is the differential test for the dense
// kernels of Figs. 1a, 1b and 3a: on the shared archive, its name-only
// copy, a gappy archive with absent days and an absent provider, and
// the hand-built archive with repeats and unknown names, each equals
// its map-based reference.
func TestKernelsMatchReferences(t *testing.T) {
	c := ctx(t)
	std := []string{providers.Alexa, providers.Umbrella, providers.Majestic}
	for _, tc := range []struct {
		name string
		c    *Context
		ps   []string // alexa, umbrella, majestic roles
		tops []int
	}{
		{"shared", c, std, []int{0, headSize}},
		{"name-only", NewContext(c.W, nameOnly(t)), std, []int{0, headSize}},
		{"gappy", NewContext(c.W, gappyArchive(t, c.W)), []string{"gappy", "absent", "gappy"}, []int{0, 20}},
		{"gappy-absent-first", NewContext(c.W, gappyArchive(t, c.W)), []string{"absent", "gappy", "gappy"}, []int{0}},
		{"hand-built", NewContext(c.W, handBuiltArchive(t, c.W)), []string{providers.Alexa, providers.Umbrella, providers.Alexa}, []int{0, 20}},
	} {
		for _, top := range tc.tops {
			name := fmt.Sprintf("%s/top%d", tc.name, top)
			got := tc.c.IntersectionSeries(tc.ps[0], tc.ps[1], tc.ps[2], top)
			if want := intersectionReference(tc.c, tc.ps[0], tc.ps[1], tc.ps[2], top); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: IntersectionSeries\n got %+v\nwant %+v", name, got, want)
			}
			for _, p := range tc.ps {
				if got, want := tc.c.DailyRemoved(p, top), dailyRemovedReference(tc.c, p, top); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: DailyRemoved(%s)\n got %v\nwant %v", name, p, got, want)
				}
				for _, sample := range []int{50, 500, ksSampleAll} {
					if got, want := tc.c.buildRankMatrix(p, top, sample), rankMatrixReference(tc.c, p, top, sample); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: buildRankMatrix(%s, sample %d) differs from the reference", name, p, sample)
					}
					gotKS, gotBase := tc.c.KSWeekendDistances(p, top, sample)
					wantKS, wantBase := ksWeekendReference(tc.c, p, top, sample)
					if !reflect.DeepEqual(gotKS, wantKS) || !reflect.DeepEqual(gotBase, wantBase) {
						t.Errorf("%s: KSWeekendDistances(%s, sample %d)\n got %v %v\nwant %v %v", name, p, sample, gotKS, gotBase, wantKS, wantBase)
					}
				}
			}
		}
	}
}

// ksSampleAll caps the rank matrix above any test list's ever-seen
// union, so nothing is down-sampled.
const ksSampleAll = 1 << 20
