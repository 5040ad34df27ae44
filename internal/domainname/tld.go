package domainname

// The embedded registry of delegated (valid) TLDs, modelled on the IANA
// TLD directory the paper checks against (§5.1). It contains the legacy
// gTLDs, the ccTLDs used by the embedded PSL, and a sample of new gTLDs.
// Names whose rightmost label is not listed here count as "invalid TLD"
// domains — the paper found 1,347 such TLDs in the Umbrella list
// (examples: instagram, localdomain, server, cpe, 0, big, cs).
var validTLDs = []string{
	// Legacy gTLDs.
	"com", "net", "org", "info", "biz", "edu", "gov", "mil", "int",
	"arpa",
	// ccTLDs.
	"ac", "ar", "at", "au", "be", "br", "by", "ca", "cc", "ch", "ck",
	"cl", "cn", "co", "cz", "de", "dk", "es", "eu", "fi", "fr", "gr",
	"hk", "hu", "id", "in", "io", "ir", "it", "jp", "kr", "kz", "me",
	"mx", "my", "nl", "no", "nz", "pe", "pl", "pt", "ro", "ru", "se",
	"sg", "sk", "th", "tr", "tv", "tw", "ua", "uk", "us", "vn", "za",
	// New gTLDs (post-2013 programme).
	"app", "blog", "cloud", "club", "dev", "online", "shop", "site",
	"space", "store", "top", "xyz", "agency", "art", "bank", "casino",
	"city", "design", "digital", "email", "expert", "fun", "games",
	"guru", "health", "host", "icu", "land", "life", "live", "ltd",
	"media", "money", "network", "news", "ninja", "one", "page",
	"party", "press", "pro", "review", "rocks", "run", "science",
	"services", "social", "solutions", "stream", "studio", "team",
	"tech", "today", "tools", "travel", "vip", "website", "wiki",
	"work", "world", "zone",
}

// invalidTLDSamples are rightmost labels seen in real DNS query traffic
// that are not delegated TLDs; the population generator uses them for
// junk names, mirroring the paper's Umbrella findings.
var invalidTLDSamples = []string{
	"localdomain", "local", "server", "cpe", "lan", "home", "corp",
	"internal", "intranet", "localhost", "belkin", "dlink", "router",
	"gateway", "workgroup", "domain", "invalid", "example", "test",
	"big", "cs", "0", "1", "instagram", "youtube_edu", "wpad", "mail1",
	"dhcp", "fritz", "box", "站点", // keep ASCII-only below; see init
}

var validTLDSet map[string]bool

func init() {
	validTLDSet = make(map[string]bool, len(validTLDs))
	for _, t := range validTLDs {
		validTLDSet[t] = true
	}
	// Drop any non-ASCII sample (synthetic names are ASCII-only).
	clean := invalidTLDSamples[:0]
	for _, t := range invalidTLDSamples {
		ascii := true
		for i := 0; i < len(t); i++ {
			if t[i] >= 0x80 {
				ascii = false
				break
			}
		}
		if ascii && !validTLDSet[t] {
			clean = append(clean, t)
		}
	}
	invalidTLDSamples = clean
}

// IsValidTLD reports whether tld is a delegated TLD in the embedded
// registry.
func IsValidTLD(tld string) bool { return validTLDSet[tld] }

// InvalidTLDSamples returns labels usable as junk TLDs, none of which are
// delegated.
func InvalidTLDSamples() []string {
	out := make([]string, len(invalidTLDSamples))
	copy(out, invalidTLDSamples)
	return out
}

// TLDCount reports the size of the registry (the paper's analog is
// IANA's 1,543 TLDs as of May 2018).
func TLDCount() int { return len(validTLDs) }
