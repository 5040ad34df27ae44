// Package core wires the substrates into a complete study: build the
// synthetic world, run the three list generators over the JOINT window,
// and expose the analysis and measurement layers. It is the library's
// central entry point; the public facade (package toplists at the
// module root) re-exports it.
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

// Scale bundles the knobs that trade fidelity for runtime.
type Scale struct {
	Name string
	// Population configures the synthetic world.
	Population population.Config
	// ListSize is the published list length (the paper's 1M analog).
	ListSize int
	// HeadSize is the head subset (the paper's Top 1k analog; the
	// paper's head:list ratio is 1:1000, ours defaults to 1:100 so head
	// statistics remain stable at small scale).
	HeadSize int
	// BurnInDays warms the provider windows before day 0.
	BurnInDays int
	// Workers is the engine parallelism: 0 uses every core
	// (GOMAXPROCS), 1 forces the serial reference path. The archive is
	// bitwise identical either way (internal/engine's equivalence
	// tests pin this); the knob only trades wall-clock.
	Workers int
}

// TestScale is the fast scale used by tests and benchmarks.
func TestScale() Scale {
	return Scale{
		Name:       "test",
		Population: population.TestConfig(),
		ListSize:   3000,
		HeadSize:   100,
		BurnInDays: 60,
	}
}

// DefaultScale is the EXPERIMENTS.md scale.
func DefaultScale() Scale {
	return Scale{
		Name:       "default",
		Population: population.DefaultConfig(),
		ListSize:   25_000,
		HeadSize:   250,
		BurnInDays: 120,
	}
}

// Validate reports scale errors.
func (s Scale) Validate() error {
	if err := s.Population.Validate(); err != nil {
		return err
	}
	if s.ListSize < 10 || s.HeadSize < 1 || s.HeadSize >= s.ListSize {
		return fmt.Errorf("core: bad list/head sizes %d/%d", s.ListSize, s.HeadSize)
	}
	if s.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", s.Workers)
	}
	return nil
}

// Study is a fully materialised simulation run. Archive is the
// read-side interface, not a concrete store: a simulated study holds
// an in-memory toplist.Archive, while a study rebuilt with RunFrom
// serves straight from whatever Source (e.g. a reopened
// toplist.DiskStore) it was given.
type Study struct {
	Scale    Scale
	Opts     providers.Options
	World    *population.World
	Model    *traffic.Model
	Archive  toplist.Source
	Analysis *analysis.Context
	Campaign *measure.Campaign
}

// parts is what every study constructor derives from a scale before it
// generates or reads an archive: the world, its traffic model and the
// generator options.
type parts struct {
	scale Scale
	world *population.World
	model *traffic.Model
	opts  providers.Options
}

// build derives the parts of a validated scale. It builds no
// generator: RunFrom, which only reads an archive, needs none.
func build(s Scale) (parts, error) {
	w, err := population.Build(s.Population)
	if err != nil {
		return parts{}, err
	}
	opts := providers.DefaultOptions(s.Population.Days, s.ListSize)
	opts.BurnInDays = s.BurnInDays
	return parts{scale: s, world: w, model: traffic.NewModel(w), opts: opts}, nil
}

// generator validates s and builds its parts and a fresh generator
// over them.
func generator(s Scale) (parts, *providers.Generator, error) {
	if err := s.Validate(); err != nil {
		return parts{}, nil, err
	}
	p, err := build(s)
	if err != nil {
		return parts{}, nil, err
	}
	g, err := providers.NewGenerator(p.model, p.opts)
	if err != nil {
		return parts{}, nil, err
	}
	return p, g, nil
}

// study assembles the Study that serves arch.
func (p *parts) study(arch toplist.Source) *Study {
	return &Study{
		Scale:    p.scale,
		Opts:     p.opts,
		World:    p.world,
		Model:    p.model,
		Archive:  arch,
		Analysis: analysis.NewContext(p.world, arch),
		Campaign: measure.NewCampaign(p.world),
	}
}

// run generates the scale's days with eng into a fresh in-memory
// archive, teed into tee when it is non-nil, and returns the Study
// over that archive.
func (p *parts) run(ctx context.Context, eng *engine.Engine, tee toplist.SnapshotSink) (*Study, error) {
	days := p.scale.Population.Days
	arch := toplist.NewArchive(0, toplist.Day(days-1))
	arch.Expect(eng.Providers()...)
	if err := eng.Run(ctx, days, engine.Tee(arch, tee)); err != nil {
		return nil, err
	}
	return p.study(arch), nil
}

// NewEngine builds the world and a simulation engine for it, for
// callers that stream snapshots day by day (cmd/toplistd -live)
// instead of materialising a Study. The engine covers
// s.Population.Days days.
func NewEngine(s Scale) (*population.World, *engine.Engine, error) {
	p, g, err := generator(s)
	if err != nil {
		return nil, nil, err
	}
	return p.world, engine.New(g, engine.Config{Workers: s.Workers}), nil
}

// RunContext builds the world, generates the archive (concurrently,
// per s.Workers), and prepares the analysis layers. When tee is
// non-nil every generated snapshot is additionally streamed into it
// (e.g. a toplist.DiskStore persisting the run), and cancelling ctx
// stops the engine at the next day boundary.
func RunContext(ctx context.Context, s Scale, tee toplist.SnapshotSink) (*Study, error) {
	p, g, err := generator(s)
	if err != nil {
		return nil, err
	}
	return p.run(ctx, engine.New(g, engine.Config{Workers: s.Workers}), tee)
}

// RunFrom rebuilds a study around an already-generated archive: the
// world, traffic model, and analysis layers are reconstructed
// deterministically from s (which must match the scale that produced
// src), but no simulation runs — the engine is never invoked, and src
// (typically a toplist.DiskStore reopened with toplist.OpenArchive)
// serves every snapshot read. This is how analyses resume from disk
// instead of resimulating. src must cover the scale's days from day 0.
func RunFrom(s Scale, src toplist.Source) (*Study, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil archive source")
	}
	if got, want := src.Days(), s.Population.Days; got != want {
		return nil, fmt.Errorf("core: archive covers %d days but scale %q simulates %d", got, s.Name, want)
	}
	// The world, the Alexa change day and the analyses count days from
	// day 0, so an archive that starts later would be misread.
	if first := src.First(); first != 0 {
		return nil, fmt.Errorf("core: archive starts on day %d (%v); a study starts on day 0 (%v)", int(first), first, toplist.Day(0))
	}
	p, err := build(s)
	if err != nil {
		return nil, err
	}
	return p.study(src), nil
}

// Days returns the archive length in days.
func (st *Study) Days() int { return st.Archive.Days() }

// ChangeDay returns the Alexa regime-change day.
func (st *Study) ChangeDay() int { return st.Opts.AlexaChangeDay }

// Providers returns the three provider names in the paper's order.
func (st *Study) Providers() []string {
	return []string{providers.Alexa, providers.Umbrella, providers.Majestic}
}

// ListNames returns the names of provider's list on day, cut to head
// entries when head is true.
func (st *Study) ListNames(provider string, day int, head bool) []string {
	l := st.Archive.Get(provider, toplist.Day(day))
	if l == nil {
		return nil
	}
	if head {
		l = l.Top(st.Scale.HeadSize)
	}
	return l.Names()
}

// PopulationNames returns the general-population (com/net/org) sample
// names on day.
func (st *Study) PopulationNames(day int) []string {
	ids := st.World.ComNetOrg(day)
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = st.World.Domains[id].Name
	}
	return names
}
