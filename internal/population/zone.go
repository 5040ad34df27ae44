package population

import (
	"fmt"

	"repro/internal/simnet"
)

// dayZone adapts the world to simnet.Zone for a fixed measurement day.
type dayZone struct {
	w   *World
	day int
}

// ZoneAt returns the authoritative DNS view of the world on the given
// day (domain birth/death is day-dependent).
func (w *World) ZoneAt(day int) simnet.Zone { return dayZone{w: w, day: day} }

// Lookup implements simnet.Zone: NXDOMAIN for unknown, unborn, dead,
// junk, and ghost names; otherwise the domain's records, with a CNAME
// chain when the domain is CDN-fronted or alias-hosted.
func (z dayZone) Lookup(name string) simnet.Response {
	id, ok := z.w.IDByName(name)
	if !ok {
		return simnet.Response{RCode: simnet.RCodeNXDomain}
	}
	d := &z.w.Domains[id]
	if !d.Exists(z.day) {
		return simnet.Response{RCode: simnet.RCodeNXDomain}
	}
	resp := simnet.Response{
		RCode: simnet.RCodeNoError,
		A:     d.IPv4,
		AAAA:  d.Flags.Has(FlagIPv6),
		TTL:   d.TTL,
	}
	// CAA is measured at the base domain (the paper counts base domains
	// with an issue/issuewild set).
	base := &z.w.Domains[d.BaseID]
	resp.CAA = base.Flags.Has(FlagCAA)
	if d.Flags.Has(FlagCNAME) {
		if d.CDN != 0 {
			resp.Chain = []string{z.w.CDNs.CNAMETarget(d.Base, d.CDN)}
		} else {
			resp.Chain = []string{aliasTarget(d)}
		}
	}
	return resp
}

// aliasTarget synthesises a non-CDN hosting CNAME target.
func aliasTarget(d *Domain) string {
	return fmt.Sprintf("web%d.hosting-%d.net", d.Seed%8, d.ASN)
}

// dayProber adapts the world to simnet.WebProber for a fixed day.
type dayProber struct {
	w   *World
	day int
}

// ProberAt returns the HTTPS/HTTP2 probing view of the world on day.
func (w *World) ProberAt(day int) simnet.WebProber { return dayProber{w: w, day: day} }

// Probe implements simnet.WebProber from the domain's capability flags.
func (p dayProber) Probe(name string) simnet.ProbeResult {
	id, ok := p.w.IDByName(name)
	if !ok {
		return simnet.ProbeResult{}
	}
	d := &p.w.Domains[id]
	if !d.Exists(p.day) {
		return simnet.ProbeResult{}
	}
	res := simnet.ProbeResult{
		Reachable: true,
		TLS:       d.Flags.Has(FlagTLS),
		HTTP2:     d.Flags.Has(FlagHTTP2),
		Redirects: int(d.Seed % 4),
	}
	if d.Flags.Has(FlagHSTS) {
		res.HSTSMaxAge = 31536000
		// Emit a realistic raw header; half the deployments also set
		// includeSubDomains, as large crawls observe.
		res.HSTSHeader = "max-age=31536000"
		if d.Seed%2 == 0 {
			res.HSTSHeader += "; includeSubDomains"
		}
	}
	if res.Redirects > simnet.MaxRedirects {
		res.HTTP2 = false
	}
	return res
}

// ResolveWWW reports whether a www-prefixed variant of name exists in
// the world; the paper's campaigns query domains both raw and
// www-prefixed.
func (w *World) ResolveWWW(name string) (string, bool) {
	www := "www." + name
	_, ok := w.byName[www]
	return www, ok
}
