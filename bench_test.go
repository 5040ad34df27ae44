package toplists

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, each regenerating the artifact from a shared
// test-scale simulation. Run with:
//
//	go test -bench=. -benchmem
var (
	benchLab  *Lab
	benchOnce sync.Once
)

func lab(b *testing.B) *Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab = NewLab(WithScale(TestScale()))
		if _, err := benchLab.Study(); err != nil {
			panic(err)
		}
	})
	return benchLab
}

func benchExperiment(b *testing.B, id string) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l.Run(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig1a(b *testing.B)  { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)  { benchExperiment(b, "fig1b") }
func BenchmarkFig1c(b *testing.B)  { benchExperiment(b, "fig1c") }
func BenchmarkFig2a(b *testing.B)  { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)  { benchExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B)  { benchExperiment(b, "fig2c") }
func BenchmarkFig3a(b *testing.B)  { benchExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)  { benchExperiment(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)  { benchExperiment(b, "fig3c") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6a(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)  { benchExperiment(b, "fig6c") }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B)  { benchExperiment(b, "fig7c") }
func BenchmarkFig7d(b *testing.B)  { benchExperiment(b, "fig7d") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkTTL(b *testing.B)    { benchExperiment(b, "ttl") }

// BenchmarkAblationVolume flips Umbrella to query-volume ranking and
// regenerates the Fig. 5 comparison (the ablation-volume experiment in
// internal/experiments/exp_atlas.go).
func BenchmarkAblationVolume(b *testing.B) { benchExperiment(b, "ablation-volume") }

// BenchmarkAggregation regenerates the §9 Tranco-style aggregation
// extension (churn of Dowdall aggregates vs single lists).
func BenchmarkAggregation(b *testing.B) { benchExperiment(b, "aggregation") }

// BenchmarkAblationSimilarity regenerates the rank-similarity metric
// ablation (τ vs ρ vs footrule vs RBO over the same archive).
func BenchmarkAblationSimilarity(b *testing.B) { benchExperiment(b, "similarity") }

// BenchmarkHygiene regenerates the §9.1 list-cleaning impact table.
func BenchmarkHygiene(b *testing.B) { benchExperiment(b, "hygiene") }

// BenchmarkManipulation regenerates the manipulation-cost and
// aggregate-resistance extension (binary search over generator runs).
func BenchmarkManipulation(b *testing.B) { benchExperiment(b, "manipulation") }

// BenchmarkAblationHorizon regenerates the window-length ablation
// (four full Alexa-mechanism regenerations).
func BenchmarkAblationHorizon(b *testing.B) { benchExperiment(b, "ablation-horizon") }

// BenchmarkSimulate measures a full end-to-end simulation (world +
// archive generation) at test scale.
func BenchmarkSimulate(b *testing.B) {
	scale := TestScale()
	scale.Population.Days = 14
	scale.BurnInDays = 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(context.Background(), WithScale(scale)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine measures archive generation alone (world build
// excluded), reporting simulated days (burn-in included) per second
// across three variants that all produce byte-identical archives (see
// internal/engine's equivalence tests):
//
//   - serial: engine.Run at Workers=1, the reference computation;
//   - pipelined-N: engine.Run at N workers — one day loop that steps
//     and ranks each day at the full width, with the sink written one
//     day behind on the emit goroutine;
//   - barriered-N: the same compute with no emit goroutine: step the
//     day, rank it, write it, then start the next day.
//
// The names predate the one-loop engine and stay so the artifact
// history still joins. pipelined/barriered is the wall-clock value of
// the emit overlap; the in-memory Archive sink here costs almost
// nothing, so it sits near 1, and CI gates it in the same run.
// Against a DiskStore, which is busy for most of each day, the overlap
// is worth far more (perfbench's generate workload). pipelined/serial
// is the end-to-end concurrent-engine speedup; it needs real parallel
// hardware.
func BenchmarkEngine(b *testing.B) {
	scale := TestScale()
	scale.Population.Days = 14
	scale.BurnInDays = 20
	w, err := population.Build(scale.Population)
	if err != nil {
		b.Fatal(err)
	}
	m := traffic.NewModel(w)
	mkGen := func(b *testing.B) *providers.Generator {
		opts := providers.DefaultOptions(scale.Population.Days, scale.ListSize)
		opts.BurnInDays = scale.BurnInDays
		g, err := providers.NewGenerator(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	reportDays := func(b *testing.B) {
		stepped := scale.BurnInDays + scale.Population.Days
		b.ReportMetric(float64(stepped)*float64(b.N)/b.Elapsed().Seconds(), "days/sec")
	}
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		b.ResetTimer()
		var st engine.Stats
		for i := 0; i < b.N; i++ {
			// Generator construction (state arrays + base buckets) is
			// untimed so days/sec reflects the stepping loop alone.
			b.StopTimer()
			g := mkGen(b)
			b.StartTimer()
			e := engine.New(g, engine.Config{Workers: workers})
			arch := toplist.NewArchive(0, toplist.Day(scale.Population.Days-1))
			arch.Expect(g.EnabledProviders()...)
			if err := e.Run(context.Background(), scale.Population.Days, arch); err != nil {
				b.Fatal(err)
			}
			st = e.Stats()
		}
		reportDays(b)
		// Phase observability: per-day step/rank wall time and the
		// worker count, so the perf-trajectory artifacts record where
		// the day went, not just how fast it was.
		days := float64(scale.Population.Days)
		b.ReportMetric(st.StepTime.Seconds()*1e3/days, "step-ms/day")
		b.ReportMetric(st.RankTime.Seconds()*1e3/days, "rank-ms/day")
		b.ReportMetric(float64(st.StepWorkers), "step-workers")
		b.ReportMetric(float64(st.RankWorkers), "rank-workers")
	}
	// runBarriered is the engine's day loop with the sink written
	// inline: every phase of a day completes before the next begins,
	// with intra-phase parallelism only.
	runBarriered := func(b *testing.B, workers int) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := mkGen(b)
			b.StartTimer()
			days := scale.Population.Days
			arch := toplist.NewArchive(0, toplist.Day(days-1))
			arch.Expect(g.EnabledProviders()...)
			for d := -scale.BurnInDays; d < 0; d++ {
				g.StepDay(d, workers)
			}
			for d := 0; d < days; d++ {
				g.StepDay(d, workers)
				for _, s := range g.Snapshots(toplist.Day(d), workers) {
					if err := arch.Put(s.Provider, s.Day, s.List); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		reportDays(b)
	}
	n := runtime.GOMAXPROCS(0)
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("barriered-%d", n), func(b *testing.B) { runBarriered(b, n) })
	b.Run(fmt.Sprintf("pipelined-%d", n), func(b *testing.B) { run(b, 0) })
}

// BenchmarkRunAll regenerates every table and figure through the
// pooled experiment runner over the shared study. Compare against
// `-cpu 1` (which collapses the pool to one worker) for the
// worker-pool gain.
func BenchmarkRunAll(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := l.RunAll(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkAblationWindow compares the EMA window approximation against
// the exact ring-buffer sliding window: memory vs fidelity, where
// providers.TestEMAApproximatesWindow checks the fidelity.
func BenchmarkAblationWindow(b *testing.B) {
	w, err := population.Build(population.TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := traffic.NewModel(w)
	n := w.Len()
	b.Run("ema", func(b *testing.B) {
		ema := make([]float64, n)
		buf := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = m.Signal(traffic.AxisWeb, i%28, buf)
			const alpha = 2.0 / 91.0
			for j, v := range buf {
				ema[j] = (1-alpha)*ema[j] + alpha*v
			}
		}
	})
	b.Run("ring-window", func(b *testing.B) {
		sw := providers.NewSlidingWindow(n, 90)
		buf := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = m.Signal(traffic.AxisWeb, i%28, buf)
			sw.Push(buf)
		}
	})
}
