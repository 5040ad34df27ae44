package domainname

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics feeds arbitrary strings through Parse; it must
// return an error or a well-formed Name, never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(raw string) bool {
		n, err := Parse(raw)
		if err != nil {
			return true
		}
		if n.FQDN == "" || len(n.Labels) == 0 {
			return false
		}
		if n.TLD != n.Labels[len(n.Labels)-1] {
			return false
		}
		return strings.HasSuffix(n.FQDN, n.PublicSuffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseStructureProperty checks the structural invariants on
// generated well-formed names.
func TestParseStructureProperty(t *testing.T) {
	labels := []string{"a", "bb", "ccc", "www", "net", "shop", "x1", "d-e"}
	suffixes := []string{"com", "co.uk", "de", "blogspot.com", "ck", "localdomain"}
	f := func(a, b, c, s uint8) bool {
		parts := []string{
			labels[int(a)%len(labels)],
			labels[int(b)%len(labels)],
			labels[int(c)%len(labels)],
		}
		name := strings.Join(parts, ".") + "." + suffixes[int(s)%len(suffixes)]
		n, err := Parse(name)
		if err != nil {
			return false
		}
		// Depth + suffix labels + 1 (the SLD) == total labels when a
		// base exists.
		if n.Base == "" {
			return true
		}
		suffixLabels := strings.Count(n.PublicSuffix, ".") + 1
		return n.Depth+suffixLabels+1 == len(n.Labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBaseOfIdempotent: BaseOf(BaseOf(x)) == BaseOf(x).
func TestBaseOfIdempotent(t *testing.T) {
	for _, s := range []string{
		"a.b.c.example.com", "x.co.uk", "deep.w.blogspot.de",
		"printer.localdomain", "www.ck", "x.y.whatever.ck",
	} {
		b1 := BaseOf(s)
		if b2 := BaseOf(b1); b2 != b1 {
			t.Fatalf("BaseOf not idempotent: %q -> %q -> %q", s, b1, b2)
		}
	}
}

// The rule sets joinSuffixLabels reads, built from pslRules apart from
// the table Parse uses.
var refExact, refWildcard, refExcept = func() (exact, wildcard, except map[string]bool) {
	exact, wildcard, except = map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, r := range pslRules {
		switch {
		case strings.HasPrefix(r, "*."):
			wildcard[r[2:]] = true
		case strings.HasPrefix(r, "!"):
			except[r[1:]] = true
		default:
			exact[r] = true
		}
	}
	return exact, wildcard, except
}()

// joinSuffixLabels is the suffix walk Parse used before it walked
// substrings: each candidate is rebuilt with strings.Join. FuzzParse
// checks Parse against it.
func joinSuffixLabels(labels []string) int {
	best := 1
	for i := 0; i < len(labels); i++ {
		candidate := strings.Join(labels[i:], ".")
		n := len(labels) - i
		if refExcept[candidate] {
			return n - 1
		}
		if refExact[candidate] && n > best {
			best = n
		}
		if i > 0 && refWildcard[candidate] && n+1 > best {
			best = n + 1
		}
	}
	if best > len(labels) {
		best = len(labels)
	}
	return best
}

// FuzzParse checks every accepted name against the join-based suffix
// walk: PublicSuffix, Base, SLD, Depth and Group must all match.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"www.ck", "x.y.ck", "a.blogspot.co.uk", "blogspot.com",
		"A.Example.COM.",
		strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." +
			strings.Repeat("c", 63) + "." + strings.Repeat("d", 57) + ".com",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := Parse(s)
		if err != nil {
			return
		}
		labels := strings.Split(n.FQDN, ".")
		k := joinSuffixLabels(labels)
		suffix := strings.Join(labels[len(labels)-k:], ".")
		var base, sld string
		depth := 0
		if len(labels) > k {
			base = strings.Join(labels[len(labels)-k-1:], ".")
			sld = labels[len(labels)-k-1]
			depth = len(labels) - k - 1
		}
		group := sld
		if base == "" {
			group = ""
		} else if sld == "blogspot" || strings.HasPrefix(suffix, "blogspot.") {
			group = "blogspot"
		}
		if n.PublicSuffix != suffix || n.Base != base || n.SLD != sld ||
			n.Depth != depth || n.Group() != group {
			t.Fatalf("Parse(%q) = suffix %q base %q sld %q depth %d group %q; want %q %q %q %d %q",
				s, n.PublicSuffix, n.Base, n.SLD, n.Depth, n.Group(), suffix, base, sld, depth, group)
		}
	})
}
