package analysis

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/domainname"
	"repro/internal/population"
)

// newContextReference builds NewContext's key tables the direct way:
// every world record parsed and interned, in record order, with no
// record taking another's keys. TestNewContextMatchesReference checks
// NewContext against it.
func newContextReference(w *population.World) *Context {
	c := &Context{W: w, info: make([]nameInfo, w.Len())}
	tldKeys := make(map[string]uint32)
	baseKeys := make(map[string]uint32)
	groupKeys := make(map[string]uint32)
	for i := range w.Domains {
		n, _ := domainname.Parse(w.Domains[i].Name)
		base := n.Base
		if base == "" {
			base = n.FQDN
		}
		baseKey, isNew := intern(baseKeys, base)
		if isNew {
			g := noGroup
			if name := n.Group(); name != "" {
				g, _ = intern(groupKeys, name)
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
	c.groups = make([]string, len(groupKeys))
	for name, k := range groupKeys {
		c.groups[k] = name
	}
	return c
}

// TestNewContextMatchesReference: NewContext's per-record keys, SLD
// groups and TLD count equal the every-record parse's exactly, key
// numbers included, over several TestConfig worlds and (without
// -short) the DefaultConfig one.
func TestNewContextMatchesReference(t *testing.T) {
	var cfgs []population.Config
	for _, seed := range []uint64{1, 2, 3, 601} {
		cfg := population.TestConfig()
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	if !testing.Short() {
		cfgs = append(cfgs, population.DefaultConfig())
	}
	for _, cfg := range cfgs {
		label := fmt.Sprintf("%d sites, seed %d", cfg.Sites, cfg.Seed)
		w, err := population.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := NewContext(w, nil), newContextReference(w)
		if i := firstDiff(got.info, want.info); i >= 0 {
			d := &w.Domains[i]
			t.Errorf("%s: record %d (%q, base record %d): info %+v, want %+v", label, i, d.Name, d.BaseID, got.info[i], want.info[i])
		}
		if !slices.Equal(got.groupOf, want.groupOf) {
			t.Errorf("%s: groupOf differs (%d and %d base keys)", label, len(got.groupOf), len(want.groupOf))
		}
		if !slices.Equal(got.groups, want.groups) {
			t.Errorf("%s: groups differ (%d and %d groups)", label, len(got.groups), len(want.groups))
		}
		if got.tlds != want.tlds {
			t.Errorf("%s: %d TLD keys, want %d", label, got.tlds, want.tlds)
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
