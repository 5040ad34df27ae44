package atlas

import (
	"testing"

	"repro/internal/providers"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

// TestToolbarAttackEntersAlexa runs the Le Pochat-style toolbar attack
// through the §7.1 model: a farm of fake extension installs, each
// loading the attacker's page three times a day, reaches the Alexa
// generator as bots distinct panel visitors and 3 × bots page views a
// day, and the domain enters the published list.
func TestToolbarAttackEntersAlexa(t *testing.T) {
	m := model(t)
	const (
		attacker = "attacker-blog.com"
		bots     = 400
		days     = 21
	)
	inj := traffic.NewInjector()
	for day := 0; day < days; day++ {
		inj.Add(attacker, day, bots, 3*bots)
	}

	opts := costOpts()
	opts.AlexaInjector = inj
	opts.Enabled = []string{providers.Alexa}
	g, err := providers.NewGenerator(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := g.Run(days)
	if err != nil {
		t.Fatal(err)
	}
	rank := arch.Get(providers.Alexa, toplist.Day(days-1)).RankOf(attacker)
	if rank == 0 {
		t.Fatal("toolbar attack failed: attacker not listed")
	}
	t.Logf("attacker reached Alexa rank %d with %d bots x 3 views/day for %d days", rank, bots, days)
}

// TestToolbarAttackScalesWithBots confirms the panel mechanism's
// documented behaviour: more distinct visitors beat more page views
// from few visitors (the same unique-source principle §7.2 finds for
// Umbrella). A farm of toolbar bots, each loading the page viewsPerBot
// times a day, reaches the Alexa generator as bots distinct panel
// visitors and bots × viewsPerBot page views a day.
func TestToolbarAttackScalesWithBots(t *testing.T) {
	m := model(t)
	const days = 14
	rankFor := func(bots, viewsPerBot int) int {
		const domain = "scaling-test.com"
		inj := traffic.NewInjector()
		for day := 0; day < days; day++ {
			inj.Add(domain, day, float64(bots), float64(bots*viewsPerBot))
		}
		opts := costOpts()
		opts.AlexaInjector = inj
		opts.Enabled = []string{providers.Alexa}
		g, err := providers.NewGenerator(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		arch, err := g.Run(days)
		if err != nil {
			t.Fatal(err)
		}
		return arch.Get(providers.Alexa, toplist.Day(days-1)).RankOf(domain)
	}
	manyBots := rankFor(600, 1) // 600 views/day total
	fewBots := rankFor(6, 100)  // 600 views/day total
	if manyBots == 0 {
		t.Fatal("many-bots attack did not enter the list")
	}
	if fewBots != 0 && fewBots <= manyBots {
		t.Errorf("6 bots x 100 views (rank %d) should not beat 600 bots x 1 view (rank %d)",
			fewBots, manyBots)
	}
	t.Logf("600x1 -> rank %d; 6x100 -> rank %d", manyBots, fewBots)
}
