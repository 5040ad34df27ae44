package analysis

import (
	"math"
	"testing"

	"repro/internal/providers"
	"repro/internal/toplist"
)

func TestSimilarityBetweenIdenticalLists(t *testing.T) {
	c := ctx(t)
	l := c.Arch.Get(providers.Alexa, 0).Top(headSize)
	s := c.SimilarityBetween(l, l, 0.99)
	if s.Tau < 0.999 || s.Rho < 0.999 {
		t.Errorf("identical lists: τ=%v ρ=%v", s.Tau, s.Rho)
	}
	if s.Footrule != 0 {
		t.Errorf("identical lists: footrule=%v", s.Footrule)
	}
	if math.Abs(s.RBO-1) > 1e-9 {
		t.Errorf("identical lists: RBO=%v", s.RBO)
	}
	if s.Common != l.Len() {
		t.Errorf("common = %d, want %d", s.Common, l.Len())
	}
}

func TestSimilarityNilListsDegrade(t *testing.T) {
	c := ctx(t)
	l := c.Arch.Get(providers.Alexa, 0)
	s := c.SimilarityBetween(nil, l, 0.99)
	if !math.IsNaN(s.Tau) || !math.IsNaN(s.RBO) {
		t.Errorf("nil list should yield NaN metrics, got %+v", s)
	}
}

func TestSimilarityDayToDayShape(t *testing.T) {
	c := ctx(t)
	days := c.Arch.Days()
	for _, prov := range []string{providers.Alexa, providers.Umbrella, providers.Majestic} {
		series := c.SimilarityDayToDay(prov, headSize, 0.99)
		if len(series) != days-1 {
			t.Fatalf("%s: %d readings, want %d", prov, len(series), days-1)
		}
		for i, s := range series {
			if !math.IsNaN(s.RBO) && (s.RBO < 0 || s.RBO > 1) {
				t.Fatalf("%s day %d: RBO out of range: %v", prov, i, s.RBO)
			}
			if !math.IsNaN(s.Footrule) && (s.Footrule < 0 || s.Footrule > 1) {
				t.Fatalf("%s day %d: footrule out of range: %v", prov, i, s.Footrule)
			}
		}
	}
}

func TestSimilarityMajesticMostStable(t *testing.T) {
	// The paper's Fig. 4 ordering: Majestic ≫ Alexa > Umbrella in
	// day-to-day order stability. The RBO reading must preserve it for
	// Majestic vs the other two (Alexa/Umbrella may tie).
	c := ctx(t)
	mean := func(prov string) float64 {
		return SimilaritySummary(c.SimilarityDayToDay(prov, headSize, 0.99)).RBO
	}
	maj, alexa, umb := mean(providers.Majestic), mean(providers.Alexa), mean(providers.Umbrella)
	if maj <= alexa || maj <= umb {
		t.Errorf("majestic RBO %v should exceed alexa %v and umbrella %v", maj, alexa, umb)
	}
}

func TestSimilarityCrossProviderBelowWithinProvider(t *testing.T) {
	c := ctx(t)
	within := SimilaritySummary(c.SimilarityDayToDay(providers.Alexa, headSize, 0.99)).RBO
	across := SimilaritySummary(
		c.SimilarityAcrossProviders(providers.Alexa, providers.Umbrella, headSize, 0.99)).RBO
	if across >= within {
		t.Errorf("cross-provider RBO %v should be far below within-provider %v", across, within)
	}
}

func TestSimilarityAgreesWithKendallPath(t *testing.T) {
	// The τ field of SimilarityBetween must match the dedicated
	// kendallBetween used by Fig. 4, on the same list pair read through
	// the ID columns.
	c := ctx(t)
	a := c.Arch.Get(providers.Alexa, 0).Top(headSize)
	b := c.Arch.Get(providers.Alexa, 1).Top(headSize)
	idsA, _ := c.ids(providers.Alexa, 0, headSize)
	idsB, _ := c.ids(providers.Alexa, 1, headSize)
	want := kendallBetween(idsA, idsB)
	got := c.SimilarityBetween(a, b, 0.99).Tau
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("τ = %v via Similarity, %v via kendallBetween", got, want)
	}
}

func TestCompressRanks(t *testing.T) {
	got := compressRanks([]int{907, 3, 55})
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compressRanks = %v, want %v", got, want)
		}
	}
}

func TestSimilaritySummaryIgnoresNaN(t *testing.T) {
	series := []Similarity{
		{Tau: 0.5, Rho: 0.5, Footrule: 0.1, RBO: 0.9, Common: 10},
		{Tau: math.NaN(), Rho: math.NaN(), Footrule: math.NaN(), RBO: 0.7, Common: 0},
	}
	s := SimilaritySummary(series)
	if s.Tau != 0.5 || s.RBO != 0.8 || s.Common != 5 {
		t.Errorf("summary = %+v", s)
	}
	empty := SimilaritySummary(nil)
	if !math.IsNaN(empty.Tau) || !math.IsNaN(empty.RBO) {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestSimilarityHandlesDuplicateNamesInLists(t *testing.T) {
	// Lists with repeated names (possible in malformed input) must not
	// double-count common pairs.
	c := ctx(t)
	names := c.Arch.Get(providers.Alexa, 0).Top(10).Names()
	dup := append(append([]string{}, names...), names[0], names[1])
	a := toplist.New(dup)
	s := c.SimilarityBetween(a, a, 0.9)
	if s.Common > len(names) {
		t.Errorf("common = %d exceeds unique name count %d", s.Common, len(names))
	}
}
