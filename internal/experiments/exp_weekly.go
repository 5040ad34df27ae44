package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/parallel"
	"repro/internal/providers"
	"repro/internal/stats"
)

func init() {
	register("fig3a", "KS distance between weekend and weekday rank distributions (Fig. 3a)", runFig3a)
	register("fig3b", "Weekend/weekday SLD dynamics in Alexa (Fig. 3b)", runFig3b)
	register("fig3c", "Weekend/weekday SLD dynamics in Umbrella (Fig. 3c)", runFig3c)
	register("fig4", "CDF of Kendall's tau between lists (Fig. 4)", runFig4)
}

const ksSample = 20000

func runFig3a(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Paper:  "Fig. 3a: ~35% of Alexa 1M and >15% of Umbrella 1M domains at KS distance 1; Majestic near 0; weekday-vs-weekday baseline <0.05 for 90% of domains",
		Header: []string{"list", "top", "mean KS", "P(KS=1)", "P(KS<0.05)", "baseline mean KS"},
	}
	tops := []int{0, st.Scale.HeadSize}
	ps := st.Providers()
	type sample struct{ ds, base []float64 }
	samples := make([]sample, len(tops)*len(ps))
	parallel.Each(len(samples), func(i int) {
		s := &samples[i]
		s.ds, s.base = st.Analysis.KSWeekendDistances(ps[i%len(ps)], tops[i/len(ps)], ksSample)
	})
	for i, s := range samples {
		ones, small := 0, 0
		for _, v := range s.ds {
			if v == 1 {
				ones++
			}
			if v < 0.05 {
				small++
			}
		}
		n := float64(len(s.ds))
		if n == 0 {
			n = 1
		}
		label := "full"
		if top := tops[i/len(ps)]; top > 0 {
			label = d(top)
		}
		res.Rows = append(res.Rows, []string{
			ps[i%len(ps)], label, f3(stats.Mean(s.ds)),
			pct(float64(ones) / n), pct(float64(small) / n),
			f3(stats.Mean(s.base)),
		})
	}
	return res, nil
}

func runSLD(e *Env, provider, paper string, postChangeOnly bool) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	from, to := 0, st.Days()
	if postChangeOnly {
		from = st.ChangeDay() + 1
	}
	groups := st.Analysis.SLDDynamics(provider, 25, 3, from, to)
	res := &Result{
		Paper:  paper,
		Header: []string{"SLD group", "weekday mean", "weekend mean", "swing"},
	}
	max := 12
	if len(groups) < max {
		max = len(groups)
	}
	for _, g := range groups[:max] {
		res.Rows = append(res.Rows, []string{
			g.Group, f1(g.WeekdayMean), f1(g.WeekendMean),
			fmt.Sprintf("%.1f%%", g.SwingPercent),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d groups above threshold; window days %d..%d", len(groups), from, to))
	return res, nil
}

func runFig3b(e *Env) (*Result, error) {
	return runSLD(e, providers.Alexa,
		"Fig. 3b: blogspot.*/tumblr.com more popular on weekends, sharepoint.com on weekdays; dynamics only appear after Alexa's change",
		true)
}

func runFig3c(e *Env) (*Result, error) {
	return runSLD(e, providers.Umbrella,
		"Fig. 3c: ampproject.org and nflxso.net up on weekends, nessus.org during the week",
		false)
}

func runFig4(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Paper:  "Fig. 4: day-to-day tau>0.95 for 99% of Majestic, 72% of Alexa, 40% of Umbrella days; vs a fixed reference day, very strong correlation drops below 5% for all",
		Header: []string{"list", "mode", "mean tau", "median tau", "share tau>0.95"},
	}
	for _, p := range st.Providers() {
		d2d := st.Analysis.KendallDayToDay(p, st.Scale.HeadSize)
		vsFirst := st.Analysis.KendallVsFirst(p, st.Scale.HeadSize)
		res.Rows = append(res.Rows, []string{
			p, "day-to-day", f3(stats.Mean(d2d)), f3(stats.Median(d2d)),
			pct(analysis.VeryStrongShare(d2d)),
		})
		res.Rows = append(res.Rows, []string{
			p, "vs day 0", f3(stats.Mean(vsFirst)), f3(stats.Median(vsFirst)),
			pct(analysis.VeryStrongShare(vsFirst)),
		})
	}
	return res, nil
}
