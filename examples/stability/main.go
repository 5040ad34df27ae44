// Stability: reproduce the paper's §6 findings on one simulated
// archive — churn over rank, the Alexa regime change, long-term decay,
// and weekend effects (Figs. 1b–3a).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/stats"
)

func main() {
	lab := toplists.NewLab(toplists.WithScale(toplists.TestScale()))
	study, err := lab.Study()
	if err != nil {
		log.Fatal(err)
	}
	change := study.ChangeDay()

	fmt.Println("=== churn by rank subset (mean daily change, % of subset) ===")
	sizes := []int{30, 100, 300, 1000, study.Scale.ListSize}
	fmt.Printf("%-10s", "subset")
	for _, s := range sizes {
		fmt.Printf("%8d", s)
	}
	fmt.Println()
	rows := map[string][]float64{
		"alexa-pre":  study.Analysis.ChurnByRank(toplists.Alexa, sizes, 7, change),
		"alexa-post": study.Analysis.ChurnByRank(toplists.Alexa, sizes, change+1, study.Days()),
		"umbrella":   study.Analysis.ChurnByRank(toplists.Umbrella, sizes, 7, study.Days()),
		"majestic":   study.Analysis.ChurnByRank(toplists.Majestic, sizes, 7, study.Days()),
	}
	for _, name := range []string{"alexa-pre", "alexa-post", "umbrella", "majestic"} {
		fmt.Printf("%-10s", name)
		for _, v := range rows[name] {
			fmt.Printf("%7.2f%%", 100*v)
		}
		fmt.Println()
	}

	fmt.Println("\n=== intersection with day-0 list (decay, % remaining) ===")
	for _, p := range study.Providers() {
		dec := study.Analysis.DecayFromStart(p, 0)
		last := dec[len(dec)-1]
		fmt.Printf("%-9s: after %2d days %5.1f%% of the starting list remains\n",
			p, len(dec)-1, 100*last)
	}

	fmt.Println("\n=== weekend effect (mean KS distance weekday vs weekend ranks) ===")
	for _, p := range study.Providers() {
		ds, base := study.Analysis.KSWeekendDistances(p, 0, 5000)
		fmt.Printf("%-9s: weekend %.3f vs weekday baseline %.3f\n",
			p, stats.Mean(ds), stats.Mean(base))
	}

	fmt.Printf("\nTakeaway (paper §6): a one-off list download is a lottery —\n" +
		"repeat measurements longitudinally and avoid weekend/weekday mixes.\n")
}
