package analysis

import (
	"testing"

	"repro/internal/population"
	"repro/internal/toplist"
)

// TestIncompleteArchive injects missing snapshots and verifies the
// analyses degrade gracefully instead of panicking — defensive
// behaviour for externally loaded (CSV) archives with gaps.
func TestIncompleteArchive(t *testing.T) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(w, gappyArchive(t, w))

	row := c.Table2("gappy", 0)
	if row.TLDMean <= 0 {
		t.Fatal("Table2 should still summarise present days")
	}
	if got := c.DailyRemoved("gappy", 0); len(got) == 0 {
		t.Fatal("DailyRemoved empty")
	}
	if got := c.CumulativeUnique("gappy", 0); got[len(got)-1] != 50 {
		t.Fatalf("cumulative %v", got)
	}
	// Analyses over an entirely absent provider should not panic.
	if got := c.DailyRemoved("absent", 0); len(got) != 0 {
		// Removed counts of empty sets are zero-size diffs.
		for _, v := range got {
			if v != 0 {
				t.Fatal("absent provider produced churn")
			}
		}
	}
	_ = c.CumulativeUnique("absent", 0)
	_, _ = c.KSWeekendDistances("gappy", 0, 100)
}

// gappyArchive is a ten-day archive whose "gappy" provider holds the
// same 50 world records on even days only.
func gappyArchive(t *testing.T, w *population.World) *toplist.Archive {
	t.Helper()
	arch := toplist.NewArchive(0, 9)
	names := make([]string, 50)
	ids := make([]uint32, 50)
	for i := range names {
		names[i] = w.Domains[i].Name
		ids[i] = uint32(i)
	}
	l := toplist.NewWithIDs(names, ids)
	// Odd days are absent; so is every other provider.
	for d := toplist.Day(0); d <= 9; d += 2 {
		if err := arch.Put("gappy", d, l); err != nil {
			t.Fatal(err)
		}
	}
	return arch
}

// TestTable4MissingAlexa exercises the nil-day0 guard.
func TestTable4MissingAlexa(t *testing.T) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	arch := toplist.NewArchive(0, 1)
	c := NewContext(w, arch)
	if rows := c.Table4([]string{"x"}, "x", []int{1}); rows != nil {
		t.Fatal("missing provider should yield nil")
	}
}
