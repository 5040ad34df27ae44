package simnet

import "strings"

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the simulator.
const (
	RCodeNoError RCode = iota
	RCodeNXDomain
	RCodeServFail
)

// String returns the conventional RCODE name.
func (rc RCode) String() string {
	switch rc {
	case RCodeNoError:
		return "NOERROR"
	case RCodeNXDomain:
		return "NXDOMAIN"
	default:
		return "SERVFAIL"
	}
}

// Response is the answer to a simulated resolution: the full CNAME
// chain (if any) plus terminal address/CAA data.
type Response struct {
	RCode RCode
	// Chain holds CNAME targets in order, from the queried name to the
	// terminal name; empty when the name maps directly to addresses.
	Chain []string
	// A is the terminal IPv4 address (0 if none).
	A uint32
	// AAAA reports whether a routed IPv6 address is present.
	AAAA bool
	// CAA reports whether a CAA record with an issue/issuewild set is
	// present at the base domain.
	CAA bool
	// TTL is the answer's time-to-live in seconds.
	TTL uint32
}

// Zone answers authoritative queries; the population's World implements
// it.
type Zone interface {
	// Lookup resolves name. Implementations must follow CNAME chains
	// themselves (the terminal data is in the response), mirroring what
	// a recursive resolver returns to a stub.
	Lookup(name string) Response
}

// CachingResolver is a recursive resolver model with a TTL-aware answer
// cache and a query counter — the piece needed to study whether TTL
// values bias a DNS-volume-based ranking (§7.2). Time is virtual and
// advanced by the caller.
type CachingResolver struct {
	zone Zone
	// cache maps name -> cached answer + absolute expiry (virtual
	// seconds).
	cache map[string]cachedAnswer
	now   uint64
	// UpstreamQueries counts cache misses per queried name, i.e. the
	// query volume the authoritative side (and a resolver-based ranking
	// like Umbrella's input) would observe.
	UpstreamQueries map[string]uint64
	// ClientQueries counts all client queries per name.
	ClientQueries map[string]uint64
}

type cachedAnswer struct {
	resp   Response
	expiry uint64
}

// NewCachingResolver builds a resolver over zone at virtual time 0.
func NewCachingResolver(zone Zone) *CachingResolver {
	return &CachingResolver{
		zone:            zone,
		cache:           make(map[string]cachedAnswer),
		UpstreamQueries: make(map[string]uint64),
		ClientQueries:   make(map[string]uint64),
	}
}

// Advance moves virtual time forward by seconds.
func (r *CachingResolver) Advance(seconds uint64) { r.now += seconds }

// Now returns the current virtual time in seconds.
func (r *CachingResolver) Now() uint64 { return r.now }

// Query resolves name through the cache, counting upstream traffic only
// on cache misses. Negative answers are cached briefly (60 s), as
// resolvers do.
func (r *CachingResolver) Query(name string) Response {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	r.ClientQueries[name]++
	if c, ok := r.cache[name]; ok && c.expiry > r.now {
		return c.resp
	}
	resp := r.zone.Lookup(name)
	r.UpstreamQueries[name]++
	ttl := uint64(resp.TTL)
	if resp.RCode != RCodeNoError {
		ttl = 60
	}
	if ttl == 0 {
		ttl = 1
	}
	r.cache[name] = cachedAnswer{resp: resp, expiry: r.now + ttl}
	return resp
}

// StaticZone is a Zone backed by a fixed map, convenient for tests and
// for the §7 controlled experiments where we register test domains.
type StaticZone struct {
	Records map[string]Response
	// Default is returned for unknown names; its zero value is an
	// NXDOMAIN.
	Default Response
}

// NewStaticZone builds an empty static zone whose default answer is
// NXDOMAIN.
func NewStaticZone() *StaticZone {
	return &StaticZone{
		Records: make(map[string]Response),
		Default: Response{RCode: RCodeNXDomain},
	}
}

// Add registers an answer for name.
func (z *StaticZone) Add(name string, resp Response) {
	z.Records[strings.ToLower(name)] = resp
}

// Lookup implements Zone.
func (z *StaticZone) Lookup(name string) Response {
	if resp, ok := z.Records[strings.ToLower(name)]; ok {
		return resp
	}
	return z.Default
}
