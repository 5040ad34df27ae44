package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/population"
	"repro/internal/shard"
	"repro/internal/toplist"
)

// distributedParts builds the full distributed-generation stack for a
// scale: its parts, a coordinator over workerURLs, and an engine whose
// StepDay runs through it.
func distributedParts(s Scale, workerURLs []string, opts []shard.CoordinatorOption) (parts, *engine.Engine, *shard.Coordinator, error) {
	p, g, err := generator(s)
	if err != nil {
		return parts{}, nil, nil, err
	}
	coord, err := shard.NewCoordinator(g, shard.JobFor(s.Population, p.opts, p.model), workerURLs, opts...)
	if err != nil {
		return parts{}, nil, nil, err
	}
	return p, engine.New(g, engine.Config{Workers: s.Workers, Remote: coord}), coord, nil
}

// NewDistributedEngine is NewEngine with the per-day stepping farmed
// out to shard workers at workerURLs (cmd/shardd instances): the
// returned engine drives the same rank/emit machinery, but every
// StepDay runs remotely through the returned coordinator and merges
// back bitwise-identically to a local run. Callers must Close the
// coordinator when the run ends.
func NewDistributedEngine(s Scale, workerURLs []string, opts ...shard.CoordinatorOption) (*population.World, *engine.Engine, *shard.Coordinator, error) {
	p, eng, coord, err := distributedParts(s, workerURLs, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return p.world, eng, coord, nil
}

// RunDistributed is RunContext with generation distributed across the
// shard workers at workerURLs. The resulting Study is indistinguishable
// from a local run's — TestDistributedEquivalence pins the archives
// byte-identical — only the wall-clock location of the per-domain math
// changes.
func RunDistributed(ctx context.Context, s Scale, tee toplist.SnapshotSink, workerURLs []string, opts ...shard.CoordinatorOption) (*Study, error) {
	p, eng, coord, err := distributedParts(s, workerURLs, opts)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	return p.run(ctx, eng, tee)
}
