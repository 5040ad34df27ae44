// Package analysis implements the paper's §5 (structure) and §6
// (stability) analyses over a multi-provider snapshot archive: Table 2
// structure metrics, list intersections (Fig. 1a, Table 3), churn and
// growth (Figs. 1b–2c), weekend/weekday dynamics (Fig. 3), rank-order
// correlation (Fig. 4), and per-domain rank variation (Table 4).
package analysis

import (
	"sync"

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
// and kept for the Context's lifetime. The column costs 4 bytes per
// list entry per slot and follows the Study's contract that its archive
// is fixed: a slot rewritten in a live store is seen by a new Context.
type Context struct {
	W    *population.World
	Arch toplist.Source

	// Per world-record parse cache.
	info []nameInfo
	// base-domain string -> compact key, shared across providers.
	baseKeys map[string]uint32

	mu      sync.Mutex
	columns map[slot][]uint32 // never mutated once stored
}

type slot struct {
	provider string
	day      toplist.Day
}

// noID marks a column entry that is not a world record: an injected
// synthetic ID, or a name the world does not know.
const noID = ^uint32(0)

type nameInfo struct {
	tld      string
	sldGroup string
	baseKey  uint32
	depth    uint8
	validTLD bool
}

// NewContext builds the cache for the world underlying arch.
func NewContext(w *population.World, arch toplist.Source) *Context {
	c := &Context{
		W:        w,
		Arch:     arch,
		info:     make([]nameInfo, w.Len()),
		baseKeys: make(map[string]uint32),
		columns:  make(map[slot][]uint32),
	}
	for i := range w.Domains {
		d := &w.Domains[i]
		n, err := domainname.Parse(d.Name)
		if err != nil {
			continue
		}
		base := n.Base
		if base == "" {
			base = n.FQDN
		}
		c.info[i] = nameInfo{
			tld:      n.TLD,
			sldGroup: domainname.SLDGroup(d.Name),
			baseKey:  c.baseKey(base),
			depth:    uint8(n.Depth),
			validTLD: n.ValidTLD,
		}
	}
	return c
}

func (c *Context) baseKey(base string) uint32 {
	if k, ok := c.baseKeys[base]; ok {
		return k
	}
	k := uint32(len(c.baseKeys))
	c.baseKeys[base] = k
	return k
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
	// Lists decoded from snapshot documents carry names only.
	names := l.Names()
	out := make([]uint32, len(names))
	for i, name := range names {
		id, ok := c.W.IDByName(name)
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

// column returns the slot's ID column, resolving it on first read; nil
// when the slot is absent. A nil Get is never stored, so a read that
// failed for a moment is asked again on the next access. Two readers
// may resolve the same slot at once; the first column stored wins.
func (c *Context) column(provider string, day toplist.Day) []uint32 {
	k := slot{provider, day}
	c.mu.Lock()
	col, ok := c.columns[k]
	c.mu.Unlock()
	if ok {
		return col
	}
	l := c.Arch.Get(provider, day)
	if l == nil {
		return nil
	}
	col = c.worldIDs(l)
	c.mu.Lock()
	if stored, ok := c.columns[k]; ok {
		col = stored
	} else {
		c.columns[k] = col
	}
	c.mu.Unlock()
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

// baseKeySet returns the set of unique base-domain keys in the
// provider's subset on day — the paper's base-domain normalisation for
// intersections (§5.2).
func (c *Context) baseKeySet(provider string, day toplist.Day, top int) map[uint32]struct{} {
	ids, _ := c.ids(provider, day, top)
	out := make(map[uint32]struct{}, len(ids))
	for _, id := range ids {
		out[c.info[id].baseKey] = struct{}{}
	}
	return out
}
