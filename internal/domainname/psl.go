package domainname

import "strings"

// The embedded miniature Public Suffix List. It follows the PSL
// algorithm: the longest matching rule wins, "*" matches exactly one
// label, and "!" exception rules override wildcard rules. The set below
// covers the ICANN suffixes that dominate real top lists plus a sample of
// private-section suffixes (blogspot, github.io, …) so PSL-aware grouping
// is exercised the way the paper uses it.
var pslRules = []string{
	// Generic TLDs.
	"com", "net", "org", "info", "biz", "edu", "gov", "mil", "int",
	"io", "co", "me", "tv", "cc", "xyz", "online", "site", "top",
	"club", "shop", "app", "dev", "cloud", "blog", "space", "store",
	// Country-code TLDs (flat).
	"de", "fr", "nl", "it", "es", "pl", "ru", "ch", "at", "be", "se",
	"no", "fi", "dk", "cz", "eu", "us", "ca", "cn", "in", "ir", "gr",
	"ro", "hu", "pt", "sk", "tw", "vn", "id", "th", "my", "sg", "hk",
	"kr", "ua", "by", "kz", "ar", "cl", "pe",
	// Multi-label public suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "uk",
	"com.au", "net.au", "org.au", "edu.au", "au",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp", "jp",
	"com.br", "net.br", "org.br", "gov.br", "br",
	"com.mx", "org.mx", "mx",
	"co.in", "net.in", "org.in",
	"co.nz", "net.nz", "org.nz", "nz",
	"co.za", "org.za", "za",
	"com.tr", "org.tr", "tr",
	"com.cn", "net.cn", "org.cn",
	"co.kr", "or.kr",
	"com.tw", "org.tw",
	"com.hk", "org.hk",
	"com.sg", "org.sg",
	"com.ar", "com.pe", "com.cl",
	// Wildcard rule with exceptions (the PSL's classic .ck case).
	"*.ck", "!www.ck",
	// Private-section suffixes: user-content platforms whose
	// subdomains belong to distinct owners.
	"blogspot.com", "blogspot.de", "blogspot.co.uk", "blogspot.com.br",
	"blogspot.fr", "blogspot.in", "blogspot.mx", "blogspot.jp",
	"github.io", "gitlab.io", "herokuapp.com", "appspot.com",
	"cloudfront.net", "s3.amazonaws.com", "fastly.net",
	"azurewebsites.net", "netlify.app", "web.app", "firebaseapp.com",
	"wordpress.com", "weebly.com", "wixsite.com",
}

// pslRule flags the kinds of rule the embedded PSL has for a name, so
// the suffix walk hashes each candidate once.
type pslRule uint8

const (
	ruleExact    pslRule = 1 << iota
	ruleWildcard         // "*.name": every child of name is a suffix
	ruleExcept           // "!name": name is registrable despite a wildcard
)

var psl map[string]pslRule

func init() {
	psl = make(map[string]pslRule, len(pslRules))
	for _, r := range pslRules {
		switch {
		case strings.HasPrefix(r, "*."):
			psl[r[2:]] |= ruleWildcard
		case strings.HasPrefix(r, "!"):
			psl[r[1:]] |= ruleExcept
		default:
			psl[r] |= ruleExact
		}
	}
}

// publicSuffixLabels returns how many trailing labels of name, split
// into labels, form the public suffix under the embedded PSL. Per the
// PSL algorithm, a name with no matching rule has a one-label public
// suffix (its TLD). Candidates are substrings of name, so the walk does
// not allocate.
func publicSuffixLabels(name string, labels []string) int {
	best := 1
	off := 0
	for i, l := range labels {
		rule := psl[name[off:]]
		off += len(l) + 1
		n := len(labels) - i
		if rule&ruleExcept != 0 {
			// An exception rule makes the matched name registrable: its
			// public suffix is one label shorter.
			return n - 1
		}
		if rule&ruleExact != 0 && n > best {
			best = n
		}
		if i > 0 && rule&ruleWildcard != 0 && n+1 > best {
			// "*.candidate" matched by labels[i-1:].
			best = n + 1
		}
	}
	if best > len(labels) {
		best = len(labels)
	}
	return best
}

// InheritsSuffix reports whether name, a normalised name below parent,
// has parent's public suffix without a walk: no PSL rule is for a
// suffix of name longer than parent, and no wildcard rule makes
// parent's children public suffixes. Where it holds, a parse of parent
// gives name's public suffix, and so its base and depth. Where it does
// not, the PSL could put name's suffix elsewhere; ask Parse. It is
// false when name is not below parent.
func InheritsSuffix(name, parent string) bool {
	stop := len(name) - len(parent) // where parent starts in name
	if stop < 2 || name[stop-1] != '.' || name[stop:] != parent || psl[parent]&ruleWildcard != 0 {
		return false
	}
	for off := 0; off < stop; {
		if psl[name[off:]] != 0 {
			return false
		}
		off += strings.IndexByte(name[off:], '.') + 1
	}
	return true
}

// IsPublicSuffix reports whether the whole of s is a public suffix.
func IsPublicSuffix(s string) bool {
	n, err := Parse(s)
	if err != nil {
		return false
	}
	return n.Base == ""
}

// PublicSuffixRuleCount reports the number of embedded PSL rules; used in
// documentation/diagnostic output.
func PublicSuffixRuleCount() int { return len(pslRules) }
