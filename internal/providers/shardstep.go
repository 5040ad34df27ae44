package providers

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/traffic"
)

// This file is the provider-side half of distributed generation
// (internal/shard): ShardStepper advances one contiguous shard of the
// per-domain EMA state on a worker process, and Generator.MergeDay
// folds the shards' partial results back into a coordinator-side
// generator — producing, by construction, the same floating-point bits
// as Generator.StepDay.
//
// The split leans on three invariants the in-process engine already
// pins:
//
//   - signals are pure: traffic.Model.SignalRange(axis, day, ...) is an
//     elementwise function of the immutable world, so disjoint shards
//     recompute their slices independently and identically on any
//     machine that builds the same world;
//   - base-slot space is record space: a base domain's slot index IS
//     its record index, so the web/link rankers' per-slot aggregation
//     and the DNS ranker's per-record update shard over the same
//     [lo, hi) boundaries (parallel.Shard of the same n);
//   - injections never touch the per-record arrays: injectors feed only
//     the small per-name extra maps, which stay coordinator-owned in
//     MergeDay — a worker needs no injector at all.
//
// Every arithmetic expression below mirrors webRanker.step /
// dnsRanker.stepRange token for token; the equivalence test compares
// the two paths with math.Float64bits.

// ShardStepper advances one contiguous shard [lo, hi) of the per-domain
// EMA state, day by sequential day. It is the worker-side compute unit
// of distributed generation: construct it from the same (world, options)
// the coordinator's generator was built from, Seed it (or start cold for
// a fresh run), then Step each day in order and ship Partial slices
// back. It is not safe for concurrent use; the shard worker serialises
// access per session.
type ShardStepper struct {
	m    *traffic.Model
	opts Options
	lo   int
	hi   int

	buckets *baseBuckets
	// runs are the maximal contiguous record-index ranges covering every
	// member (base + subdomains) of the shard's slots — the index set the
	// web/link signal fills must touch. Precomputed once; signal fills
	// walk runs instead of scattered member indices.
	runs [][2]int
	// sig is a full-length signal scratch so member indices address it
	// directly; only the shard's runs (and [lo, hi) for DNS) are filled.
	sig []float64

	web  *shardState // Alexa (nil when disabled)
	link *shardState // Majestic
	dns  *shardState // Umbrella

	started bool
	day     int // last stepped day; meaningful once started
}

// shardState is one provider's double-buffered EMA state restricted to
// the shard: cur holds the last stepped day, next is scratch.
type shardState struct {
	cur, next []float64
}

func (s *shardState) flip() { s.cur, s.next = s.next, s.cur }

// NewShardStepper builds a stepper for shard [lo, hi) of the world
// behind m. Injectors in opts are ignored (extras are coordinator
// state); everything else must match the coordinator's options exactly
// or the merged archive will not be byte-identical — the shard wire
// protocol's job fingerprint enforces that.
func NewShardStepper(m *traffic.Model, opts Options, lo, hi int) (*ShardStepper, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := m.W.Len()
	if lo < 0 || hi < lo || hi > n {
		return nil, fmt.Errorf("providers: shard [%d, %d) outside [0, %d)", lo, hi, n)
	}
	s := &ShardStepper{m: m, opts: opts, lo: lo, hi: hi, sig: make([]float64, n)}
	size := hi - lo
	if opts.enabled(Alexa) {
		s.web = &shardState{make([]float64, size), make([]float64, size)}
	}
	if opts.enabled(Majestic) {
		s.link = &shardState{make([]float64, size), make([]float64, size)}
	}
	if opts.enabled(Umbrella) {
		s.dns = &shardState{make([]float64, size), make([]float64, size)}
	}
	if s.web != nil || s.link != nil {
		s.buckets = newBaseBuckets(m.W)
		s.runs = memberRuns(s.buckets, lo, hi)
	}
	return s, nil
}

// memberRuns coalesces the record indices of every member of slots
// [lo, hi) into maximal contiguous [start, end) runs, ascending.
func memberRuns(b *baseBuckets, lo, hi int) [][2]int {
	// Members of consecutive slots are contiguous in the CSR array, but
	// only ascending within each slot — sort a copy to coalesce globally.
	members := slices.Clone(b.members[b.start[lo]:b.start[hi]])
	slices.Sort(members)
	var runs [][2]int
	for i := 0; i < len(members); {
		j := i + 1
		for j < len(members) && members[j] == members[j-1]+1 {
			j++
		}
		runs = append(runs, [2]int{int(members[i]), int(members[j-1]) + 1})
		i = j
	}
	return runs
}

// Bounds returns the shard's record range [lo, hi).
func (s *ShardStepper) Bounds() (lo, hi int) { return s.lo, s.hi }

// Started reports whether the stepper holds any stepped (or seeded)
// state; a cold stepper's first Step copies scores instead of blending.
func (s *ShardStepper) Started() bool { return s.started }

// Day returns the last stepped (or seeded) day; meaningful only once
// Started.
func (s *ShardStepper) Day() int { return s.day }

// Providers returns the provider names the stepper maintains state for,
// in the fixed output order.
func (s *ShardStepper) Providers() []string { return s.opts.EnabledProviders() }

// Partial returns provider's current shard state (length hi-lo), the
// EMA values of the last stepped day. The slice is the stepper's live
// buffer: read (or copy) it before the next Step, and do not modify it.
func (s *ShardStepper) Partial(provider string) []float64 {
	if st := s.state(provider); st != nil {
		return st.cur
	}
	return nil
}

// Seed overwrites provider's shard state with vals — how a reassigned
// shard resumes on a fresh worker from the coordinator's merged state.
// Callers seed every enabled provider and then SetDay/SetStarted to
// position the stepper.
func (s *ShardStepper) Seed(provider string, vals []float64) error {
	st := s.state(provider)
	if st == nil {
		return fmt.Errorf("providers: seed for disabled provider %q", provider)
	}
	if len(vals) != s.hi-s.lo {
		return fmt.Errorf("providers: seed for %q has %d values, shard holds %d", provider, len(vals), s.hi-s.lo)
	}
	copy(st.cur, vals)
	return nil
}

// SetState positions the stepper after seeding: day is the day the
// seeded values represent (the next Step must be day+1), started is
// false only when the seed is the pre-simulation zero state.
func (s *ShardStepper) SetState(day int, started bool) {
	s.day = day
	s.started = started
}

func (s *ShardStepper) state(provider string) *shardState {
	switch provider {
	case Alexa:
		return s.web
	case Umbrella:
		return s.dns
	case Majestic:
		return s.link
	}
	return nil
}

// Step advances every enabled provider's shard state to day. Days must
// be stepped in the same sequence the serial generator would (burn-in
// included); the Alexa alpha regime is derived from the day itself, so
// a stepper seeded past the change day lands in the post-change regime
// automatically.
func (s *ShardStepper) Step(day int) {
	if s.web != nil {
		a := s.opts.AlexaAlphaPre
		if s.opts.AlexaChangeDay >= 0 && day >= s.opts.AlexaChangeDay {
			a = s.opts.AlexaAlphaPost
		}
		s.stepBase(s.web, traffic.AxisWeb, a, day)
	}
	if s.link != nil {
		s.stepBase(s.link, traffic.AxisLink, s.opts.MajesticAlpha, day)
	}
	if s.dns != nil {
		s.stepDNS(day)
	}
	s.started = true
	s.day = day
}

// stepBase is the shard-local body of webRanker.step: per-slot member
// sums in ascending record order, then the fused EMA advance — the
// identical expressions, so the floating-point bits match.
func (s *ShardStepper) stepBase(st *shardState, axis traffic.Axis, a float64, day int) {
	for _, run := range s.runs {
		s.m.SignalRange(axis, day, s.sig, run[0], run[1])
	}
	started := s.started
	prev, next := st.cur, st.next
	for b := s.lo; b < s.hi; b++ {
		var sum float64
		for _, i := range s.buckets.members[s.buckets.start[b]:s.buckets.start[b+1]] {
			sum += s.sig[i]
		}
		j := b - s.lo
		if !started {
			next[j] = sum
		} else {
			next[j] = (1-a)*prev[j] + a*sum
		}
	}
	st.flip()
}

// stepDNS is the shard-local body of dnsRanker.stepRange.
func (s *ShardStepper) stepDNS(day int) {
	st := s.dns
	a := s.opts.UmbrellaAlpha
	started := s.started
	prev, next := st.cur, st.next
	s.m.SignalRange(traffic.AxisDNS, day, s.sig, s.lo, s.hi)
	for i := s.lo; i < s.hi; i++ {
		clients := s.m.UniqueClients(s.sig[i])
		score := clients
		if s.opts.UmbrellaVolumeRanking {
			score = clients * queriesPerClient
		}
		j := i - s.lo
		if !started {
			next[j] = score
		} else {
			next[j] = (1-a)*prev[j] + a*score
		}
	}
	st.flip()
}

// --- coordinator-side merge -------------------------------------------

// FrontValues returns provider's current full-length EMA state — the
// coordinator reads it to seed reassigned shards. The slice is live
// generator state: valid until the next StepDay or MergeDay, and must
// not be modified. Returns nil for disabled or unknown providers.
func (g *Generator) FrontValues(provider string) []float64 {
	if s := g.state(provider); s != nil {
		return s.ema
	}
	return nil
}

// MergeDay advances the generator to day d from externally computed
// per-domain EMA state instead of stepping signals locally — the
// coordinator half of a distributed StepDay. fill is called once per
// enabled provider (in the fixed output order) with the provider's EMA
// state to overwrite; MergeDay then steps the injected-name extras
// exactly as StepDay would, so Snapshots behaves identically
// afterwards.
//
// Because merging is a positional copy of values that were produced by
// the very expressions StepDay runs, no floating-point operation is
// reordered: an archive generated through MergeDay is byte-identical to
// the serial reference. Days must be merged in StepDay's sequence. A
// fill error is returned immediately and leaves the generator state
// inconsistent; the run must be abandoned, not resumed.
func (g *Generator) MergeDay(d int, fill func(provider string, dst []float64) error) error {
	if g.Opts.AlexaChangeDay >= 0 && d == g.Opts.AlexaChangeDay {
		g.alexa.alpha = g.Opts.AlexaAlphaPost
	}
	if g.Opts.enabled(Alexa) {
		if err := g.alexa.merge(Alexa, d, fill); err != nil {
			return err
		}
	}
	if g.Opts.enabled(Umbrella) {
		if err := g.umbrella.merge(Umbrella, d, fill); err != nil {
			return err
		}
	}
	if g.Opts.enabled(Majestic) {
		if err := g.majestic.merge(Majestic, d, fill); err != nil {
			return err
		}
	}
	return nil
}

func (r *webRanker) merge(name string, day int, fill func(string, []float64) error) error {
	if err := fill(name, r.ema); err != nil {
		return err
	}
	r.started = true
	stepExtras(r.extra, r.injectionsFor(day), r.alpha, r.convert)
	return nil
}

func (r *dnsRanker) merge(name string, day int, fill func(string, []float64) error) error {
	if err := fill(name, r.ema); err != nil {
		return err
	}
	r.stepExtras(day)
	r.started = true
	return nil
}

// SameBits reports whether two float slices are bitwise identical — the
// equality the distributed-equivalence tests assert (plain == would
// conflate distinct NaN payloads and +0/-0).
func SameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
