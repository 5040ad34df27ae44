// Package domainname implements DNS name parsing as used by the paper's
// analyses: public-suffix-aware base-domain extraction, subdomain depth,
// TLD validity against an IANA-style registry, and SLD grouping.
//
// Terminology follows the paper (§5): for www.net.in.tum.de, "de" is the
// public suffix (and TLD), "tum.de" is the base domain, and the name is a
// third-level subdomain (depth 3). The SLD (second-level domain) group of
// a name is the label left of its public suffix ("tum").
package domainname

import (
	"fmt"
	"strings"
)

// Name is a parsed domain name.
type Name struct {
	// FQDN is the normalised (lower-case, no trailing dot) input.
	FQDN string
	// Labels are the DNS labels, least significant (TLD) last.
	Labels []string
	// TLD is the rightmost label.
	TLD string
	// PublicSuffix is the effective TLD per the embedded PSL (may span
	// multiple labels, e.g. "co.uk").
	PublicSuffix string
	// Base is the base domain (public suffix plus one label,
	// a.k.a. eTLD+1). Empty if the name is itself a public suffix.
	Base string
	// SLD is the label immediately left of the public suffix.
	SLD string
	// Depth is the subdomain depth below the base domain: 0 for a base
	// domain, 1 for a first-level subdomain, and so on.
	Depth int
	// ValidTLD reports whether TLD is in the embedded registry of
	// delegated TLDs.
	ValidTLD bool
}

// Parse normalises and parses a domain name. It rejects empty names,
// names with empty labels, and syntactically invalid labels; it accepts
// (and strips) one trailing dot.
func Parse(s string) (Name, error) {
	n := strings.ToLower(strings.TrimSpace(s))
	n = strings.TrimSuffix(n, ".")
	if n == "" {
		return Name{}, fmt.Errorf("domainname: empty name")
	}
	if len(n) > 253 {
		return Name{}, fmt.Errorf("domainname: name exceeds 253 octets: %q", s)
	}
	labels := strings.Split(n, ".")
	for _, l := range labels {
		if err := checkLabel(l); err != nil {
			return Name{}, fmt.Errorf("domainname: %q: %w", s, err)
		}
	}
	out := Name{FQDN: n, Labels: labels, TLD: labels[len(labels)-1]}
	out.ValidTLD = IsValidTLD(out.TLD)
	first := len(labels) - publicSuffixLabels(n, labels)
	out.PublicSuffix = suffix(n, labels, first)
	if first > 0 {
		out.Base = suffix(n, labels, first-1)
		out.SLD = labels[first-1]
		out.Depth = first - 1
	}
	return out, nil
}

// suffix returns the name formed by labels[i:] as a substring of name,
// the dot-joined labels.
func suffix(name string, labels []string, i int) string {
	off := len(name) + 1
	for _, l := range labels[i:] {
		off -= len(l) + 1
	}
	return name[off:]
}

// MustParse is Parse for known-good inputs; it panics on error.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

func checkLabel(l string) error {
	if l == "" {
		return fmt.Errorf("empty label")
	}
	if len(l) > 63 {
		return fmt.Errorf("label exceeds 63 octets: %q", l)
	}
	for i := 0; i < len(l); i++ {
		c := l[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '-' || c == '_':
			// Underscore occurs in real DNS traffic (service labels,
			// misconfigured hosts); the paper's lists contain such names.
			if c == '-' && (i == 0 || i == len(l)-1) {
				return fmt.Errorf("label begins or ends with hyphen: %q", l)
			}
		default:
			return fmt.Errorf("invalid character %q in label %q", c, l)
		}
	}
	return nil
}

// BaseOf returns the base domain of s, or s itself if s is already a
// public suffix or unparseable. Convenient for bulk normalisation.
func BaseOf(s string) string {
	n, err := Parse(s)
	if err != nil {
		return s
	}
	if n.Base == "" {
		return n.FQDN
	}
	return n.Base
}

// DepthOf returns the subdomain depth of s, or 0 if unparseable.
func DepthOf(s string) int {
	n, err := Parse(s)
	if err != nil {
		return 0
	}
	return n.Depth
}

// Group returns the paper's §6.2 grouping key for n: the label left of
// the public suffix, with all blogspot.* variants collapsed into the
// single group "blogspot" (the paper groups blogspot country domains
// together). Empty when n is itself a public suffix.
func (n Name) Group() string {
	if n.Base == "" {
		return ""
	}
	if n.SLD == "blogspot" || strings.HasPrefix(n.PublicSuffix, "blogspot.") {
		return "blogspot"
	}
	return n.SLD
}

// SLDGroup returns the Group of s, or "" if s is unparseable.
func SLDGroup(s string) string {
	n, err := Parse(s)
	if err != nil {
		return ""
	}
	return n.Group()
}
