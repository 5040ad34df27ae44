// Package providers implements the three list-generation mechanisms the
// paper studies (§2, §7): Alexa (panel-observed web visits over a
// sliding window, with the January-2018 regime change), Cisco Umbrella
// (FQDNs ranked by unique DNS client counts), and Majestic (base
// domains ranked by slowly-evolving backlink counts over 90 days).
//
// Sliding windows are modelled as exponential moving averages with
// matching effective length (TestEMAApproximatesWindow and the root
// BenchmarkAblationWindow compare them against an exact ring-buffer
// window).
package providers

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/parallel"
	"repro/internal/population"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

// Options configures archive generation.
type Options struct {
	// ListSize is the published list length (the paper's "Top 1M"
	// analog).
	ListSize int
	// BurnInDays warms the provider windows before day 0 so the archive
	// starts in steady state.
	BurnInDays int
	// AlexaChangeDay is the day the Alexa list switches to its short
	// window (the paper's late-January-2018 change); -1 disables it.
	AlexaChangeDay int
	// EMA smoothing factors. Alpha = 2/(window+1): 2/91 corresponds to
	// the documented 90-day windows.
	AlexaAlphaPre, AlexaAlphaPost float64
	UmbrellaAlpha                 float64
	MajesticAlpha                 float64
	// UmbrellaVolumeRanking switches Umbrella to raw query-volume
	// ranking instead of unique clients — the §7.2 ablation; the
	// default (false) matches the real mechanism.
	UmbrellaVolumeRanking bool
	// Injector adds external DNS activity (RIPE-Atlas-style) into
	// Umbrella's input.
	Injector *traffic.Injector
	// AlexaInjector adds synthetic panel activity (toolbar-API-style,
	// §7.1 / Le Pochat et al.) into Alexa's input: Clients are panel
	// visitors, Queries are page views.
	AlexaInjector *traffic.Injector
	// MajesticInjector adds synthetic backlinks (purchased-link-style,
	// §7.3) into Majestic's input: Clients are referring /24 subnets;
	// Queries are ignored.
	MajesticInjector *traffic.Injector
	// Enabled restricts which providers are generated (nil = all
	// three). The §7 experiments only need Umbrella and use this to
	// skip the other two.
	Enabled []string
}

func (o Options) enabled(name string) bool {
	if o.Enabled == nil {
		return true
	}
	for _, e := range o.Enabled {
		if e == name {
			return true
		}
	}
	return false
}

// DefaultOptions returns calibrated options for an archive of the given
// length: the Alexa change lands two-thirds through, mirroring its
// position inside the paper's JOINT window.
func DefaultOptions(days, listSize int) Options {
	return Options{
		ListSize:       listSize,
		BurnInDays:     120,
		AlexaChangeDay: days * 2 / 3,
		AlexaAlphaPre:  2.0 / 91.0,
		AlexaAlphaPost: 0.75,
		UmbrellaAlpha:  0.65,
		MajesticAlpha:  2.0 / 91.0,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.ListSize < 10 {
		return fmt.Errorf("providers: ListSize must be >= 10, got %d", o.ListSize)
	}
	for _, a := range []float64{o.AlexaAlphaPre, o.AlexaAlphaPost, o.UmbrellaAlpha, o.MajesticAlpha} {
		if a <= 0 || a > 1 {
			return fmt.Errorf("providers: EMA alpha %v outside (0,1]", a)
		}
	}
	if o.BurnInDays < 0 {
		return fmt.Errorf("providers: negative burn-in")
	}
	return nil
}

// Provider names used in archives.
const (
	Alexa    = "alexa"
	Umbrella = "umbrella"
	Majestic = "majestic"
)

// EnabledProviders returns the providers these options emit, in the
// fixed output order (Alexa, Umbrella, Majestic).
func (o Options) EnabledProviders() []string {
	out := make([]string, 0, 3)
	for _, p := range []string{Alexa, Umbrella, Majestic} {
		if o.enabled(p) {
			out = append(out, p)
		}
	}
	return out
}

// Generator produces daily snapshots for all three providers.
type Generator struct {
	Model *traffic.Model
	Opts  Options

	alexa    *webRanker
	majestic *webRanker
	umbrella *dnsRanker
}

// NewGenerator builds a generator; options are validated.
func NewGenerator(m *traffic.Model, opts Options) (*Generator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{Model: m, Opts: opts}
	buckets := newBaseBuckets(m.W)
	g.alexa = newWebRanker(m, traffic.AxisWeb, opts.AlexaAlphaPre, opts.AlexaInjector, buckets)
	g.majestic = newWebRanker(m, traffic.AxisLink, opts.MajesticAlpha, opts.MajesticInjector, buckets)
	g.umbrella = newDNSRanker(m, opts)
	return g, nil
}

// EnabledProviders returns the providers this generator emits, in the
// fixed output order (Alexa, Umbrella, Majestic).
func (g *Generator) EnabledProviders() []string { return g.Opts.EnabledProviders() }

// Run generates the archive for days [0, days): burn-in first, then one
// snapshot per provider per day. It is the serial reference
// implementation; internal/engine drives the same stepping API
// concurrently and must stay byte-identical to it.
func (g *Generator) Run(days int) (*toplist.Archive, error) {
	if days < 1 {
		return nil, fmt.Errorf("providers: days must be >= 1")
	}
	for d := -g.Opts.BurnInDays; d < 0; d++ {
		g.StepDay(d, 1)
	}
	arch := toplist.NewArchive(0, toplist.Day(days-1))
	arch.Expect(g.EnabledProviders()...)
	for d := 0; d < days; d++ {
		g.StepDay(d, 1)
		for _, s := range g.Snapshots(toplist.Day(d), 1) {
			if err := arch.Put(s.Provider, s.Day, s.List); err != nil {
				return nil, err
			}
		}
	}
	return arch, nil
}

// StepDay advances all enabled providers to day d — the signal/EMA
// stepping phase of the day; Snapshots ranks the result. With workers
// > 1 the three providers step concurrently (their EMA states are fully
// independent) and each shards its per-domain loops across workers;
// the result is bitwise identical to workers == 1 because every score
// accumulator still sums the same values in the same order. Each
// provider's EMA state is updated in place, so day d's Snapshots must
// be taken before StepDay(d+1).
func (g *Generator) StepDay(d, workers int) {
	if g.Opts.AlexaChangeDay >= 0 && d == g.Opts.AlexaChangeDay {
		g.alexa.alpha = g.Opts.AlexaAlphaPost
	}
	if workers <= 1 {
		// Closure-free serial path: the steady-state day allocates
		// nothing here.
		if g.Opts.enabled(Alexa) {
			g.alexa.step(d, 1)
		}
		if g.Opts.enabled(Majestic) {
			g.majestic.step(d, 1)
		}
		if g.Opts.enabled(Umbrella) {
			g.umbrella.step(d, 1)
		}
		return
	}
	tasks := make([]func(), 0, 3)
	if g.Opts.enabled(Alexa) {
		tasks = append(tasks, func() { g.alexa.step(d, workers) })
	}
	if g.Opts.enabled(Majestic) {
		tasks = append(tasks, func() { g.majestic.step(d, workers) })
	}
	if g.Opts.enabled(Umbrella) {
		tasks = append(tasks, func() { g.umbrella.step(d, workers) })
	}
	parallel.Do(tasks...)
}

// Snapshots ranks the enabled providers' lists for day — which must be
// the day of the latest StepDay — in the fixed output order. With
// workers > 1 the per-provider top-K selections run concurrently; with
// workers <= 1 they run inline, closure-free, so the serial steady
// state allocates nothing beyond the lists themselves.
func (g *Generator) Snapshots(day toplist.Day, workers int) []toplist.Snapshot {
	names := g.EnabledProviders()
	out := make([]toplist.Snapshot, len(names))
	if workers <= 1 {
		for i, p := range names {
			out[i] = toplist.Snapshot{Provider: p, Day: day, List: g.state(p).list(g.Model, g.Opts.ListSize)}
		}
		return out
	}
	tasks := make([]func(), len(names))
	for i, p := range names {
		out[i] = toplist.Snapshot{Provider: p, Day: day}
		s := &out[i]
		tasks[i] = func() { s.List = g.state(p).list(g.Model, g.Opts.ListSize) }
	}
	parallel.Do(tasks...)
	return out
}

// state returns provider's rank state, or nil for a disabled or
// unknown provider.
func (g *Generator) state(provider string) *rankState {
	if !g.Opts.enabled(provider) {
		return nil
	}
	switch provider {
	case Alexa:
		return &g.alexa.rankState
	case Umbrella:
		return &g.umbrella.rankState
	case Majestic:
		return &g.majestic.rankState
	}
	return nil
}

// rankState is what one provider ranks from: its per-domain EMA window
// state, updated in place by each step, the injected names' EMA, and
// the provider's persistent top-K selection scratch, which makes the
// steady-state rank phase allocation-free.
type rankState struct {
	ema     []float64
	extra   map[string]float64
	scratch rankScratch
}

func (s *rankState) list(m *traffic.Model, size int) *toplist.List {
	top := topIDsInto(&s.scratch.cand, s.ema, size)
	return mergeExtras(m, top, s.ema, s.extra, size, &s.scratch)
}

// rankScratch holds one provider's reusable top-K selection buffers:
// the candidate-ID slice (previously a fresh len(scores) allocation per
// provider per day) and the rank-ordered name output (copied into the
// immutable List on construction, so reuse never aliases a published
// snapshot).
type rankScratch struct {
	cand  []uint32
	names []string
	ids   []uint32
}

// --- base-domain web/link ranker (Alexa, Majestic) --------------------

// baseBuckets maps every base-domain slot to its member record indices
// (the base itself plus its subdomains) in ascending order, in CSR
// form. It lets per-base aggregation be sharded across workers while
// reproducing the serial accumulation order exactly: each slot's sum
// visits the same record indices ascending, so the floating-point
// result is bitwise identical to the serial loop. The layout is a pure
// function of the immutable world and is shared by all rankers over it.
type baseBuckets struct {
	start   []int    // len = W.Len()+1; members of slot b are ids[start[b]:start[b+1]]
	members []uint32 // record indices, ascending within each slot
}

func newBaseBuckets(w *population.World) *baseBuckets {
	n := w.Len()
	start := make([]int, n+1)
	for i := range w.Domains {
		start[w.Domains[i].BaseID+1]++
	}
	for b := 0; b < n; b++ {
		start[b+1] += start[b]
	}
	members := make([]uint32, n)
	fill := make([]int, n)
	for i := range w.Domains {
		b := w.Domains[i].BaseID
		members[start[b]+fill[b]] = uint32(i)
		fill[b]++
	}
	return &baseBuckets{start: start, members: members}
}

// webRanker aggregates an axis signal per base domain and ranks bases
// by an EMA of it. An optional injector merges synthetic external
// activity (the §7 manipulation experiments) under the same window.
type webRanker struct {
	m       *traffic.Model
	axis    traffic.Axis
	alpha   float64
	inj     *traffic.Injector
	buckets *baseBuckets
	// convert maps injected client counts (panel visitors / referring
	// subnets) into the axis's latent signal units.
	convert func(float64) float64

	sig   []float64 // per-record scratch
	score []float64 // per-base aggregated daily signal
	rankState
	started bool
}

func newWebRanker(m *traffic.Model, axis traffic.Axis, alpha float64, inj *traffic.Injector, buckets *baseBuckets) *webRanker {
	n := m.W.Len()
	convert := func(v float64) float64 { return v }
	switch axis {
	case traffic.AxisWeb:
		convert = m.WebSignalFor
	case traffic.AxisLink:
		convert = m.LinkSignalFor
	}
	return &webRanker{
		m:       m,
		axis:    axis,
		alpha:   alpha,
		inj:     inj,
		buckets: buckets,
		convert: convert,
		sig:     make([]float64, n),
		score:   make([]float64, n),
		rankState: rankState{
			ema:   make([]float64, n),
			extra: make(map[string]float64),
		},
	}
}

func (r *webRanker) step(day, workers int) {
	n := len(r.sig)
	if workers <= 1 {
		r.m.SignalRange(r.axis, day, r.sig, 0, n)
	} else {
		parallel.For(workers, n, func(lo, hi int) {
			r.m.SignalRange(r.axis, day, r.sig, lo, hi)
		})
	}
	// The EMA advances in place: each element reads only its own
	// previous value.
	ema := r.ema
	a := r.alpha
	started := r.started
	if workers <= 1 {
		// Serial reference path: direct accumulation over records,
		// then a separate EMA pass.
		for i := range r.score {
			r.score[i] = 0
		}
		for i := range r.m.W.Domains {
			bid := r.m.W.Domains[i].BaseID
			r.score[bid] += r.sig[i]
		}
		if !started {
			copy(ema, r.score)
		} else {
			for i := range r.score {
				ema[i] = (1-a)*ema[i] + a*r.score[i]
			}
		}
	} else {
		// Sharded over the base-slot space; each slot sums its members
		// in the same ascending order the serial loop visits them, and
		// the EMA advance is fused into the same pass (the operands are
		// the identical values, so the fusion changes no arithmetic —
		// it only saves one fan-out barrier per provider per day).
		parallel.For(workers, n, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				var s float64
				for _, i := range r.buckets.members[r.buckets.start[b]:r.buckets.start[b+1]] {
					s += r.sig[i]
				}
				r.score[b] = s
				if !started {
					ema[b] = s
				} else {
					ema[b] = (1-a)*ema[b] + a*s
				}
			}
		})
	}
	r.started = true
	stepExtras(r.extra, r.injectionsFor(day), a, r.convert)
}

func (r *webRanker) injectionsFor(day int) map[string]traffic.Injection {
	if r.inj == nil {
		return nil
	}
	return r.inj.For(day)
}

// stepExtras advances injected names' EMA one day: today's injections
// contribute clients (visitors / subnets) plus a marginal page-view
// credit, converted into the ranker's signal units; names not injected
// today decay under the same window.
func stepExtras(extra map[string]float64, today map[string]traffic.Injection, alpha float64, convert func(float64) float64) {
	for name := range extra {
		if _, ok := today[name]; !ok {
			extra[name] *= (1 - alpha)
			if extra[name] < 1e-12 {
				delete(extra, name)
			}
		}
	}
	for name, inj := range today {
		score := convert(inj.Clients + inj.Queries/(queriesPerClient*100))
		extra[name] = (1-alpha)*extra[name] + alpha*score
	}
}

// mergeExtras merges the world's top IDs with injected names into one
// descending-rank list; injected names get synthetic IDs above the
// world range. Output is staged in sc's reusable buffers — the List
// constructor copies, so reuse never aliases a published snapshot.
func mergeExtras(m *traffic.Model, top []uint32, ema []float64, extra map[string]float64, size int, sc *rankScratch) *toplist.List {
	if len(extra) == 0 {
		names := sc.names[:0]
		for _, id := range top {
			names = append(names, m.W.Domains[id].Name)
		}
		sc.names = names
		return toplist.NewWithIDs(names, top)
	}
	type ext struct {
		name  string
		score float64
	}
	extras := make([]ext, 0, len(extra))
	for name, s := range extra {
		extras = append(extras, ext{name, s})
	}
	sort.Slice(extras, func(i, j int) bool {
		if extras[i].score != extras[j].score {
			return extras[i].score > extras[j].score
		}
		return extras[i].name < extras[j].name
	})
	names := sc.names[:0]
	ids := sc.ids[:0]
	wi, ei := 0, 0
	worldLen := uint32(m.W.Len())
	for len(names) < size && (wi < len(top) || ei < len(extras)) {
		useExtra := false
		switch {
		case wi >= len(top):
			useExtra = true
		case ei >= len(extras):
			useExtra = false
		default:
			useExtra = extras[ei].score > ema[top[wi]]
		}
		if useExtra {
			names = append(names, extras[ei].name)
			ids = append(ids, worldLen+uint32(ei))
			ei++
		} else {
			names = append(names, m.W.Domains[top[wi]].Name)
			ids = append(ids, top[wi])
			wi++
		}
	}
	sc.names, sc.ids = names, ids
	return toplist.NewWithIDs(names, ids)
}

// --- FQDN DNS ranker (Umbrella) ---------------------------------------

// dnsRanker ranks every FQDN record by an EMA of its estimated unique
// client count (or raw query volume under the ablation), merging in
// injected external activity.
type dnsRanker struct {
	m    *traffic.Model
	opts Options

	sig []float64
	rankState
	started bool
}

func newDNSRanker(m *traffic.Model, opts Options) *dnsRanker {
	n := m.W.Len()
	return &dnsRanker{
		m:    m,
		opts: opts,
		sig:  make([]float64, n),
		rankState: rankState{
			ema:   make([]float64, n),
			extra: make(map[string]float64),
		},
	}
}

// queriesPerClient is the mean daily query count a single client
// contributes for an ordinary domain; used to convert query volume to
// score under the volume-ranking ablation.
const queriesPerClient = 12.0

func (r *dnsRanker) step(day, workers int) {
	n := len(r.sig)
	// Signal fill and the per-record EMA update are elementwise, so
	// sharding them changes nothing about the arithmetic.
	if workers <= 1 {
		r.stepRange(day, 0, n)
	} else {
		parallel.For(workers, n, func(lo, hi int) {
			r.stepRange(day, lo, hi)
		})
	}
	r.stepExtras(day)
	r.started = true
}

// stepExtras advances the injected names' EMA one day; split out of step
// so the distributed merge path (Generator.MergeDay) can run the
// coordinator-owned extras update without touching the per-record state.
func (r *dnsRanker) stepExtras(day int) {
	a := r.opts.UmbrellaAlpha
	// Injected names: anything not injected today decays toward zero.
	var today map[string]traffic.Injection
	if r.opts.Injector != nil {
		today = r.opts.Injector.For(day)
	}
	for name := range r.extra {
		if _, ok := today[name]; !ok {
			r.extra[name] *= (1 - a)
			if r.extra[name] < 1e-6 {
				delete(r.extra, name)
			}
		}
	}
	for name, inj := range today {
		score := inj.Clients
		if r.opts.UmbrellaVolumeRanking {
			score = inj.Queries
		} else {
			// Unique-client ranking still credits volume marginally.
			score += inj.Queries / (queriesPerClient * 100)
		}
		r.extra[name] = (1-a)*r.extra[name] + a*score
	}
}

// stepRange fills signal and advances the EMA over records [lo, hi) —
// the shardable body of step, also callable directly so the serial
// path stays closure-free.
func (r *dnsRanker) stepRange(day, lo, hi int) {
	a := r.opts.UmbrellaAlpha
	ema := r.ema
	r.m.SignalRange(traffic.AxisDNS, day, r.sig, lo, hi)
	for i := lo; i < hi; i++ {
		clients := r.m.UniqueClients(r.sig[i])
		score := clients
		if r.opts.UmbrellaVolumeRanking {
			score = clients * queriesPerClient
		}
		if !r.started {
			ema[i] = score
		} else {
			ema[i] = (1-a)*ema[i] + a*score
		}
	}
}

// --- top-K selection ---------------------------------------------------

// topIDs returns the indexes of the size largest positive scores, in
// descending score order (ties broken by index for determinism).
func topIDs(scores []float64, size int) []uint32 {
	buf := make([]uint32, 0, len(scores))
	return topIDsInto(&buf, scores, size)
}

// topIDsInto is topIDs over a caller-owned candidate buffer: *buf is
// reset, grown as needed (and written back so the capacity persists),
// and the returned slice aliases it — valid until the next call with
// the same buffer. The steady-state day loop passes each provider's
// rankScratch here, eliminating the per-provider-per-day len(scores)
// candidate allocation.
func topIDsInto(buf *[]uint32, scores []float64, size int) []uint32 {
	cand := (*buf)[:0]
	for i, s := range scores {
		if s > 0 {
			cand = append(cand, uint32(i))
		}
	}
	*buf = cand
	if size > len(cand) {
		size = len(cand)
	}
	if size == 0 {
		return nil
	}
	less := func(a, b uint32) bool {
		sa, sb := scores[a], scores[b]
		if sa != sb {
			return sa > sb
		}
		return a < b
	}
	quickselect(cand, size, less)
	top := cand[:size]
	// The comparator is a strict total order (indices are distinct), so
	// the sorted result is unique — switching sort implementations can
	// never change the emitted order, and SortFunc avoids sort.Slice's
	// per-call reflection setup.
	slices.SortFunc(top, func(a, b uint32) int {
		if less(a, b) {
			return -1
		}
		return 1
	})
	return top
}

// quickselect partially orders xs so that the k elements that compare
// least under less occupy xs[:k] (in arbitrary order).
func quickselect(xs []uint32, k int, less func(a, b uint32) bool) {
	lo, hi := 0, len(xs)
	for hi-lo > 1 {
		// Median-of-three pivot for resilience on sorted inputs.
		mid := lo + (hi-lo)/2
		if less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if less(xs[hi-1], xs[lo]) {
			xs[hi-1], xs[lo] = xs[lo], xs[hi-1]
		}
		if less(xs[hi-1], xs[mid]) {
			xs[hi-1], xs[mid] = xs[mid], xs[hi-1]
		}
		pivot := xs[mid]
		i, j := lo, hi-1
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k > i:
			lo = i
		default:
			return
		}
	}
}
