package domainname

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePaperExample(t *testing.T) {
	// §5 of the paper: for www.net.in.tum.de, .de is the public suffix,
	// tum.de the base domain, and the name is a third-level subdomain.
	n := MustParse("www.net.in.tum.de")
	if n.PublicSuffix != "de" {
		t.Fatalf("public suffix %q", n.PublicSuffix)
	}
	if n.Base != "tum.de" {
		t.Fatalf("base %q", n.Base)
	}
	if n.Depth != 3 {
		t.Fatalf("depth %d", n.Depth)
	}
	if n.SLD != "tum" {
		t.Fatalf("sld %q", n.SLD)
	}
	if !n.ValidTLD {
		t.Fatal("de must be a valid TLD")
	}
}

func TestParseBaseDomain(t *testing.T) {
	n := MustParse("example.com")
	if n.Base != "example.com" || n.Depth != 0 || n.SLD != "example" {
		t.Fatalf("got %+v", n)
	}
}

func TestParseMultiLabelSuffix(t *testing.T) {
	n := MustParse("shop.example.co.uk")
	if n.PublicSuffix != "co.uk" {
		t.Fatalf("public suffix %q", n.PublicSuffix)
	}
	if n.Base != "example.co.uk" {
		t.Fatalf("base %q", n.Base)
	}
	if n.Depth != 1 {
		t.Fatalf("depth %d", n.Depth)
	}
}

func TestParseNormalisation(t *testing.T) {
	n := MustParse("  WWW.Example.COM. ")
	if n.FQDN != "www.example.com" {
		t.Fatalf("fqdn %q", n.FQDN)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", ".", "a..b", "-leading.com", "trailing-.com",
		"exa mple.com", "exa*mple.com",
		strings.Repeat("a", 64) + ".com",
		strings.Repeat("abcdefgh.", 32) + "com", // > 253 octets
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseUnderscoreAllowed(t *testing.T) {
	if _, err := Parse("_dmarc.example.com"); err != nil {
		t.Fatalf("underscore label rejected: %v", err)
	}
}

func TestWildcardAndException(t *testing.T) {
	// *.ck is a public suffix; www.ck is an exception.
	if !IsPublicSuffix("anything.ck") {
		t.Fatal("anything.ck should be a public suffix under *.ck")
	}
	n := MustParse("www.ck")
	if n.Base != "www.ck" || n.Depth != 0 {
		t.Fatalf("exception rule: %+v", n)
	}
	n = MustParse("foo.www.ck")
	if n.Base != "www.ck" || n.Depth != 1 {
		t.Fatalf("under exception rule: %+v", n)
	}
	n = MustParse("site.whatever.ck")
	if n.PublicSuffix != "whatever.ck" || n.Base != "site.whatever.ck" {
		t.Fatalf("wildcard rule: %+v", n)
	}
}

func TestPrivateSuffixBlogspot(t *testing.T) {
	n := MustParse("cooking.blogspot.com")
	if n.PublicSuffix != "blogspot.com" {
		t.Fatalf("public suffix %q", n.PublicSuffix)
	}
	if n.Base != "cooking.blogspot.com" || n.Depth != 0 {
		t.Fatalf("%+v", n)
	}
	if g := SLDGroup("cooking.blogspot.com"); g != "blogspot" {
		t.Fatalf("blogspot group %q", g)
	}
	if g := SLDGroup("foo.blogspot.de"); g != "blogspot" {
		t.Fatalf("blogspot.de group %q", g)
	}
}

func TestSLDGroup(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"docs.sharepoint.com", "sharepoint"},
		// tumblr.com is deliberately NOT a private suffix here, so user
		// blogs group under "tumblr" — matching the paper's Fig. 3b,
		// which shows a tumblr.com group.
		{"someblog.tumblr.com", "tumblr"},
		{"nessus.org", "nessus"},
		{"cdn.ampproject.org", "ampproject"},
		{"com", ""},
		// A name that is itself a public suffix has no SLD group, even
		// when that suffix is a blogspot variant.
		{"blogspot.com", ""},
		{"blogspot.co.uk", ""},
	} {
		if got := SLDGroup(tc.in); got != tc.want {
			t.Fatalf("SLDGroup(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBaseOfAndDepthOf(t *testing.T) {
	if BaseOf("a.b.c.example.org") != "example.org" {
		t.Fatal("BaseOf")
	}
	if BaseOf("com") != "com" {
		t.Fatal("BaseOf of a public suffix should return the input")
	}
	if DepthOf("a.b.c.example.org") != 3 {
		t.Fatal("DepthOf")
	}
	if DepthOf("!!!") != 0 {
		t.Fatal("DepthOf unparseable")
	}
}

func TestTLDValidity(t *testing.T) {
	if !IsValidTLD("com") || !IsValidTLD("de") || !IsValidTLD("xyz") {
		t.Fatal("expected valid TLDs")
	}
	for _, bad := range []string{"localdomain", "cpe", "0", "server"} {
		if IsValidTLD(bad) {
			t.Fatalf("%q must be invalid", bad)
		}
	}
	n := MustParse("printer.localdomain")
	if n.ValidTLD {
		t.Fatal("localdomain marked valid")
	}
}

func TestInvalidTLDSamplesAreInvalid(t *testing.T) {
	samples := InvalidTLDSamples()
	if len(samples) == 0 {
		t.Fatal("no invalid TLD samples")
	}
	for _, s := range samples {
		if IsValidTLD(s) {
			t.Fatalf("sample %q is in the valid registry", s)
		}
	}
}

func TestRegistryCounts(t *testing.T) {
	if TLDCount() < 100 {
		t.Fatalf("TLD registry too small: %d", TLDCount())
	}
	if PublicSuffixRuleCount() < 80 {
		t.Fatalf("PSL too small: %d", PublicSuffixRuleCount())
	}
}

func TestParseIdempotentProperty(t *testing.T) {
	// Property: re-parsing a parsed FQDN yields the same structure.
	f := func(seed uint64) bool {
		names := []string{
			"example.com", "www.example.com", "a.b.c.d.example.co.uk",
			"x.blogspot.com", "deep.www.ck", "host.localdomain",
		}
		n1 := MustParse(names[int(seed%uint64(len(names)))])
		n2 := MustParse(n1.FQDN)
		return n1.FQDN == n2.FQDN && n1.Base == n2.Base &&
			n1.Depth == n2.Depth && n1.PublicSuffix == n2.PublicSuffix
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBaseIsSuffixProperty(t *testing.T) {
	// Property: for any parsed name with a base, FQDN ends with Base and
	// Base ends with PublicSuffix.
	for _, s := range []string{
		"example.com", "www.example.com", "a.b.c.example.co.uk",
		"x.y.blogspot.de", "cdn.fastly.net", "svc.internal",
	} {
		n := MustParse(s)
		if n.Base == "" {
			continue
		}
		if !strings.HasSuffix(n.FQDN, n.Base) {
			t.Fatalf("%q: FQDN not suffixed by base %q", s, n.Base)
		}
		if !strings.HasSuffix(n.Base, n.PublicSuffix) {
			t.Fatalf("%q: base %q not suffixed by suffix %q", s, n.Base, n.PublicSuffix)
		}
	}
}

// parsed keeps Parse results alive in TestParseAllocatesOnce.
var parsed Name

// TestParseAllocatesOnce: parsing an already-normalised name allocates
// only its Labels slice; the suffix walk, PublicSuffix and Base are
// substrings of the input.
func TestParseAllocatesOnce(t *testing.T) {
	for _, s := range []string{
		"example.com", "www.net.in.tum.de", "a.b.blogspot.co.uk",
		"x.y.whatever.ck", "foo.www.ck", "printer.localdomain",
	} {
		allocs := testing.AllocsPerRun(100, func() { parsed = MustParse(s) })
		if allocs != 1 {
			t.Errorf("Parse(%q) allocates %.1f times, want 1", s, allocs)
		}
	}
}

// TestInheritsSuffix pins where a name takes its public suffix from
// its parent without a walk, and every case where the PSL could put it
// elsewhere: a rule for the name or a name between, a wildcard over
// the parent's children, and a name that is not below the parent.
func TestInheritsSuffix(t *testing.T) {
	for _, tc := range []struct {
		name, parent string
		want         bool
	}{
		{"brand.com", "com", true},
		{"brand.co.uk", "co.uk", true},
		{"www.brand.com", "brand.com", true},
		{"a.b.c.brand.de", "brand.de", true},
		{"x.cooking.blogspot.com", "cooking.blogspot.com", true},
		{"www.team-a.sharepoint.com", "team-a.sharepoint.com", true},
		{"printer-0001.localdomain", "localdomain", true},
		{"a.foo.www.ck", "foo.www.ck", true},
		{"blogspot.com", "com", false},   // an exact rule for the name
		{"a.blogspot.com", "com", false}, // an exact rule between
		{"s3.amazonaws.com", "amazonaws.com", false},
		{"foo.ck", "ck", false}, // a wildcard over the parent's children
		{"www.ck", "ck", false}, // an exception rule for the name
		{"a.b.brand.com", "b.brand.com", true},
		{"brand.com", "brand.com", false},  // not below
		{"xbrand.com", "brand.com", false}, // not at a label boundary
		{"brand.com", "de", false},
		{".com", "com", false},
	} {
		if got := InheritsSuffix(tc.name, tc.parent); got != tc.want {
			t.Errorf("InheritsSuffix(%q, %q) = %v, want %v", tc.name, tc.parent, got, tc.want)
		}
		if !tc.want {
			continue
		}
		if n, p := MustParse(tc.name), MustParse(tc.parent); n.PublicSuffix != p.PublicSuffix {
			t.Errorf("%q inherits from %q, but their public suffixes are %q and %q", tc.name, tc.parent, n.PublicSuffix, p.PublicSuffix)
		}
	}
}
