package listserv

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/toplist"
)

// Mirror rebuilds a multi-provider Archive by downloading one snapshot
// per provider per day — the paper's §4 collection process ("we source
// daily snapshots ... but only used periods with continuous daily
// data"). Days a provider failed to publish are recorded as gaps, and
// LongestContinuousRun recovers the paper's usable-period rule.
type Mirror struct {
	client    *Client
	providers []string
	workers   int

	mu      sync.Mutex
	archive *toplist.Archive
	gaps    map[string][]toplist.Day
}

// MirrorOption configures a Mirror.
type MirrorOption func(*Mirror)

// WithWorkers sets the per-day download parallelism (default: one
// goroutine per provider).
func WithWorkers(n int) MirrorOption {
	return func(m *Mirror) {
		if n > 0 {
			m.workers = n
		}
	}
}

// NewMirror collects the given providers through client.
func NewMirror(client *Client, providers []string, opts ...MirrorOption) *Mirror {
	m := &Mirror{
		client:    client,
		providers: append([]string(nil), providers...),
		workers:   len(providers),
		gaps:      make(map[string][]toplist.Day),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Collect downloads all snapshots in [first, last] and returns the
// assembled archive. Unpublished snapshots (404) become gaps; any
// other error aborts the collection. Snapshots an earlier Collect
// already holds are kept without another request (a published
// snapshot never changes), so following a live publisher by
// re-collecting [first, today] on every tick downloads each snapshot
// once.
func (m *Mirror) Collect(ctx context.Context, first, last toplist.Day) (*toplist.Archive, error) {
	if last < first {
		return nil, fmt.Errorf("listserv: collect range [%v,%v] is empty", first, last)
	}
	m.mu.Lock()
	prev := m.archive
	m.archive = toplist.NewArchive(first, last)
	if prev != nil {
		for _, p := range prev.Providers() {
			for d := max(first, prev.First()); d <= min(last, prev.Last()); d++ {
				if l := prev.Get(p, d); l != nil {
					m.archive.Put(p, d, l) //nolint:errcheck // d is inside the new range
				}
			}
		}
	}
	m.gaps = make(map[string][]toplist.Day)
	m.mu.Unlock()
	for d := first; d <= last; d++ {
		if err := m.CollectDay(ctx, d); err != nil {
			return nil, err
		}
	}
	return m.Archive(), nil
}

// CollectDay downloads one day across all providers that do not
// already hold it, in parallel. It may be called repeatedly with
// increasing days to follow a live publisher (see Gatekeeper).
func (m *Mirror) CollectDay(ctx context.Context, day toplist.Day) error {
	type result struct {
		provider string
		list     *toplist.List
		err      error
	}
	var todo []string
	m.mu.Lock()
	for _, p := range m.providers {
		if m.archive.Get(p, day) == nil {
			todo = append(todo, p)
		}
	}
	m.mu.Unlock()
	jobs := make(chan string)
	results := make(chan result)
	var wg sync.WaitGroup
	for i := 0; i < m.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				l, err := m.client.FetchDay(ctx, p, day)
				results <- result{provider: p, list: l, err: err}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, p := range todo {
			select {
			case jobs <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	var firstErr error
	for r := range results {
		switch {
		case r.err == nil:
			m.mu.Lock()
			err := m.archive.Put(r.provider, day, r.list)
			m.mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case IsNotFound(r.err):
			m.mu.Lock()
			m.gaps[r.provider] = append(m.gaps[r.provider], day)
			m.mu.Unlock()
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("listserv: %s day %v: %w", r.provider, day, r.err)
			}
		}
	}
	return firstErr
}

// Archive returns the collected archive (nil before Collect).
func (m *Mirror) Archive() *toplist.Archive {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.archive
}

// Gaps returns, per provider, the days that were not published, in
// ascending order.
func (m *Mirror) Gaps() map[string][]toplist.Day {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]toplist.Day, len(m.gaps))
	for p, days := range m.gaps {
		c := append([]toplist.Day(nil), days...)
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		out[p] = c
	}
	return out
}

// Run is a continuous day range within an archive.
type Run struct {
	First, Last toplist.Day
}

// Days returns the length of the run.
func (r Run) Days() int { return int(r.Last-r.First) + 1 }

// LongestContinuousRun returns the longest day range over which every
// provider in the archive has a snapshot — the paper's "only used
// periods with continuous daily data" selection rule. ok is false when
// no day is complete.
func LongestContinuousRun(a toplist.Source) (Run, bool) {
	providers := a.Providers()
	if len(providers) == 0 {
		return Run{}, false
	}
	var best, cur Run
	var inRun, found bool
	for d := a.First(); d <= a.Last(); d++ {
		complete := true
		for _, p := range providers {
			if a.Get(p, d) == nil {
				complete = false
				break
			}
		}
		if complete {
			if !inRun {
				cur = Run{First: d, Last: d}
				inRun = true
			} else {
				cur.Last = d
			}
			if !found || cur.Days() > best.Days() {
				best = cur
				found = true
			}
		} else {
			inRun = false
		}
	}
	return best, found
}
