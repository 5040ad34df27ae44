// Package analysis implements the paper's §5 (structure) and §6
// (stability) analyses over a multi-provider snapshot archive: Table 2
// structure metrics, list intersections (Fig. 1a, Table 3), churn and
// growth (Figs. 1b–2c), weekend/weekday dynamics (Fig. 3), rank-order
// correlation (Fig. 4), and per-domain rank variation (Table 4).
package analysis

import (
	"context"
	"errors"
	"strings"

	"repro/internal/cache"
	"repro/internal/domainname"
	"repro/internal/population"
	"repro/internal/toplist"
)

// Context caches per-domain parse results and per-slot ID columns so
// the per-day analyses stay cheap. It is safe for concurrent use:
// RunAll shares one Context across its experiment drivers. Arch is the
// read-side interface, so the same analyses run unchanged against an
// in-memory Archive or a DiskStore reopened from a previous run.
//
// The ID-based analyses read a (provider, day) slot through its
// column: the slot's list resolved to world IDs once, on first read,
// and kept for the Context's lifetime. Readers that ask for a slot
// while it is being resolved wait for that one fill. The column costs
// 4 bytes per list entry per slot and follows the Study's contract that
// its archive is fixed: a slot rewritten in a live store is seen by a
// new Context.
type Context struct {
	W    *population.World
	Arch toplist.Source

	// Per world-record parse results. Base records are parsed once,
	// here, and their TLDs, base domains and SLD groups interned to
	// dense keys; a subdomain takes its base record's keys.
	info []nameInfo
	tlds int // number of TLD keys
	// groupOf maps a base key to its SLD group key (noGroup for none):
	// the group is a function of the base domain. groups names the
	// group keys.
	groupOf []uint32
	groups  []string

	columns *cache.LRU[slot, []uint32] // unbounded; never mutated once filled
}

type slot struct {
	provider string
	day      toplist.Day
}

// noID marks a column entry that is not a world record: an injected
// synthetic ID, or a name the world does not know.
const noID = ^uint32(0)

// noGroup is the group key of a base domain with no SLD group.
const noGroup = ^uint32(0)

type nameInfo struct {
	baseKey  uint32 // shared across providers
	tldKey   uint32
	depth    uint8
	validTLD bool
}

// NewContext builds the cache for the world underlying arch.
func NewContext(w *population.World, arch toplist.Source) *Context {
	c := &Context{
		W:       w,
		Arch:    arch,
		info:    make([]nameInfo, w.Len()),
		columns: cache.New[slot, []uint32](0),
	}
	tldKeys := make(map[string]uint32)
	baseKeys := make(map[string]uint32, w.BaseCount())
	groupKeys := make(map[string]uint32, w.BaseCount())
	for i := range w.Domains {
		d := &w.Domains[i]
		if b := d.BaseID; b < uint32(i) && underBase(d, &w.Domains[b]) {
			c.info[i] = nameInfo{c.info[b].baseKey, c.info[b].tldKey, d.Depth, d.ValidTLD}
			continue
		}
		// population.Build rejects unparseable names; one would key as
		// the empty name.
		n, _ := domainname.Parse(d.Name)
		base := n.Base
		if base == "" {
			base = n.FQDN
		}
		baseKey, isNew := intern(baseKeys, base)
		if isNew {
			g := noGroup
			if name := n.Group(); name != "" {
				k, newGroup := intern(groupKeys, name)
				if newGroup {
					c.groups = append(c.groups, name)
				}
				g = k
			}
			c.groupOf = append(c.groupOf, g)
		}
		tldKey, _ := intern(tldKeys, n.TLD)
		c.info[i] = nameInfo{
			baseKey:  baseKey,
			tldKey:   tldKey,
			depth:    uint8(n.Depth),
			validTLD: n.ValidTLD,
		}
	}
	c.tlds = len(tldKeys)
	return c
}

// underBase reports whether subdomain record d parses to the base
// domain of its base record b, so that it shares b's keys. The world
// names d below b, and d's depth, which Build takes from the parse,
// counts its labels above that base unless a PSL rule below the base
// moved it; such a record is parsed like a base record.
func underBase(d, b *population.Domain) bool {
	return strings.Count(d.Name, ".")-int(d.Depth) == strings.Count(b.Base, ".")
}

// intern returns the dense key of s in keys, adding s if it is new.
func intern(keys map[string]uint32, s string) (key uint32, isNew bool) {
	if k, ok := keys[s]; ok {
		return k, false
	}
	k := uint32(len(keys))
	keys[s] = k
	return k, true
}

// worldIDs resolves l to one world ID per rank, noID where the entry
// is not a world record. It is the one place a List becomes IDs.
func (c *Context) worldIDs(l *toplist.List) []uint32 {
	if ids := l.IDs(); ids != nil {
		n := uint32(c.W.Len())
		for i, id := range ids {
			if id >= n {
				ids[i] = noID
			}
		}
		return ids
	}
	// Lists decoded from snapshot documents carry names only; read
	// them in place rather than through a copy of the name slice.
	out := make([]uint32, l.Len())
	for i := range out {
		id, ok := c.W.IDByName(l.Name(i + 1))
		if !ok {
			id = noID
		}
		out[i] = id
	}
	return out
}

// present drops the noID entries of ids, keeping rank order.
func present(ids []uint32) []uint32 {
	out := make([]uint32, 0, len(ids))
	for _, id := range ids {
		if id != noID {
			out = append(out, id)
		}
	}
	return out
}

// errAbsent fails a column fill whose Get returned nil, so the slot is
// not memoized.
var errAbsent = errors.New("analysis: slot absent")

// column returns the slot's ID column, resolving it on first read; nil
// when the slot is absent. Concurrent readers of one slot share one
// Get. A nil Get is never memoized, so a read that failed for a moment
// is asked again on the next access.
func (c *Context) column(provider string, day toplist.Day) []uint32 {
	col, _ := c.columns.Do(context.Background(), slot{provider, day}, nil, func() ([]uint32, error) {
		l := c.Arch.Get(provider, day)
		if l == nil {
			return nil, errAbsent
		}
		return c.worldIDs(l), nil
	})
	return col
}

// cut returns a column's first top ranks when top > 0.
func cut(col []uint32, top int) []uint32 {
	if top > 0 && top < len(col) {
		return col[:top]
	}
	return col
}

// ids returns the world IDs among provider's first top ranks on day
// (the whole list when top is 0), in rank order, and the number of
// ranks in that cut. The cut is made before non-world entries are
// dropped, so n can exceed len(ids). An absent slot yields no IDs and
// n = 0.
func (c *Context) ids(provider string, day toplist.Day, top int) (ids []uint32, n int) {
	col := cut(c.column(provider, day), top)
	return present(col), len(col)
}
