package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/providers"
	"repro/internal/toplist"
)

func TestScaleValidation(t *testing.T) {
	if err := TestScale().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultScale().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TestScale()
	bad.HeadSize = bad.ListSize
	if bad.Validate() == nil {
		t.Fatal("head >= list should fail")
	}
	bad = TestScale()
	bad.Population.Sites = 1
	if bad.Validate() == nil {
		t.Fatal("population errors should propagate")
	}
}

func TestRunStudy(t *testing.T) {
	s := TestScale()
	s.Population.Days = 20
	s.BurnInDays = 30
	st, err := RunContext(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Days() != 20 {
		t.Fatalf("days %d", st.Days())
	}
	if !st.Archive.(*toplist.Archive).Complete() {
		t.Fatal("incomplete archive")
	}
	if st.ChangeDay() != 20*2/3 {
		t.Fatalf("change day %d", st.ChangeDay())
	}
	ps := st.Providers()
	if len(ps) != 3 || ps[0] != providers.Alexa {
		t.Fatalf("providers %v", ps)
	}
	full := st.ListNames(providers.Umbrella, 5, false)
	head := st.ListNames(providers.Umbrella, 5, true)
	if len(full) != s.ListSize || len(head) != s.HeadSize {
		t.Fatalf("list sizes %d/%d", len(full), len(head))
	}
	if st.ListNames("nope", 5, false) != nil {
		t.Fatal("unknown provider should be nil")
	}
	pop := st.PopulationNames(5)
	if len(pop) == 0 {
		t.Fatal("empty population")
	}
	if st.Analysis == nil || st.Campaign == nil {
		t.Fatal("analysis layers missing")
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	bad := TestScale()
	bad.ListSize = 5
	if _, err := RunContext(context.Background(), bad, nil); err == nil {
		t.Fatal("bad scale should fail")
	}
}

// TestRunFromRejectsShiftedArchive: an archive of the right length
// that does not start on day 0 is refused, naming its first day; the
// same lists from day 0 are accepted.
func TestRunFromRejectsShiftedArchive(t *testing.T) {
	s := TestScale()
	s.Population.Days = 20
	s.BurnInDays = 30
	st, err := RunContext(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	const shift = 7
	shifted := toplist.NewArchive(shift, toplist.Day(shift+s.Population.Days-1))
	for _, p := range st.Providers() {
		toplist.EachDay(st.Archive, func(d toplist.Day) {
			if err := shifted.Put(p, d+shift, st.Archive.Get(p, d)); err != nil {
				t.Fatal(err)
			}
		})
	}
	_, err = RunFrom(s, shifted)
	if err == nil {
		t.Fatal("RunFrom accepted an archive starting on day 7")
	}
	if want := toplist.Day(shift).String(); !strings.Contains(err.Error(), "day 7") || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name day 7 (%s)", err, want)
	}
	if _, err := RunFrom(s, st.Archive); err != nil {
		t.Fatalf("RunFrom refused the day-0 archive: %v", err)
	}
}

// BenchmarkRunFrom measures the study rebuild every reopened archive
// pays: the world, the traffic model, the analysis context and the
// campaign. RunFrom reads no slot, so an empty archive over the
// scale's days is enough.
func BenchmarkRunFrom(b *testing.B) {
	s := TestScale()
	src := toplist.NewArchive(0, toplist.Day(s.Population.Days-1))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunFrom(s, src); err != nil {
			b.Fatal(err)
		}
	}
}
