package experiments

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/toplist"
)

func init() {
	register("table5", "Measurement characteristics across lists and population (Table 5)", runTable5)
	register("fig6a", "NXDOMAIN share over time (Fig. 6a)", func(e *Env) (*Result, error) {
		return runDNSSeries(e, "fig6a",
			"Fig. 6a: Umbrella 11.5%, Majestic 2.7%, population 0.8%, Alexa 0.13%",
			func(m measure.Metrics) float64 { return m.NXDOMAIN })
	})
	register("fig6b", "IPv6 adoption over time (Fig. 6b)", func(e *Env) (*Result, error) {
		return runDNSSeries(e, "fig6b",
			"Fig. 6b: top lists 11-15% vs population 4.1%",
			func(m measure.Metrics) float64 { return m.IPv6 })
	})
	register("fig6c", "CAA adoption over time (Fig. 6c)", func(e *Env) (*Result, error) {
		return runDNSSeries(e, "fig6c",
			"Fig. 6c: top lists 1-2% vs population 0.1%; heads up to 28%",
			func(m measure.Metrics) float64 { return m.CAA })
	})
	register("fig7a", "CDN ratio by list and weekday (Fig. 7a)", runFig7a)
	register("fig7b", "Top-5 CDN share: head vs full vs population (Fig. 7b)", runFig7b)
	register("fig7c", "Top-5 CDN share by weekday (Fig. 7c)", runFig7c)
	register("fig7d", "Top-5 AS share: head vs full vs population (Fig. 7d)", runFig7d)
	register("fig8", "HTTP/2 adoption over time (Fig. 8)", runFig8)
}

// measureList measures the provider's list (optionally the head subset)
// on day.
func measureList(e *Env, provider string, day int, head bool) (measure.Metrics, error) {
	st, err := e.Study()
	if err != nil {
		return measure.Metrics{}, err
	}
	return st.Campaign.Measure(st.ListNames(provider, day, head), day), nil
}

func runTable5(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	// Sample several post-change days for means and σ, like the paper's
	// April/May 2018 measurement window.
	var days []int
	for d := st.Days() - 10; d < st.Days(); d += 2 {
		if d > 0 {
			days = append(days, d)
		}
	}
	type column struct {
		name     string
		provider string
		head     bool
		m        map[string][]float64
	}
	metricNames := []string{"NXDOMAIN", "IPv6-enabled", "CAA-enabled", "CNAMEs",
		"CDNs (via CNAME)", "Unique AS IPv4", "Unique AS IPv6", "Top 5 AS share",
		"TLS-capable", "HSTS-enabled (of TLS)", "HTTP2"}
	extract := func(m measure.Metrics) []float64 {
		return []float64{m.NXDOMAIN, m.IPv6, m.CAA, m.CNAME, m.CDN,
			float64(m.UniqueAS4), float64(m.UniqueAS6), m.Top5ASShare,
			m.TLS, m.HSTSofTLS, m.HTTP2}
	}
	var cols []*column
	for _, head := range []bool{true, false} {
		for _, p := range st.Providers() {
			label := p + " full"
			if head {
				label = fmt.Sprintf("%s head(%d)", p, st.Scale.HeadSize)
			}
			cols = append(cols, &column{name: label, provider: p, head: head, m: map[string][]float64{}})
		}
	}
	// One measurement per (column, day), each independent of the others.
	mets := make([]measure.Metrics, len(cols)*len(days))
	parallel.Each(len(mets), func(i int) {
		c, day := cols[i/len(days)], days[i%len(days)]
		mets[i] = st.Campaign.Measure(st.ListNames(c.provider, day, c.head), day)
	})
	for i, met := range mets {
		c := cols[i/len(days)]
		for mi, v := range extract(met) {
			c.m[metricNames[mi]] = append(c.m[metricNames[mi]], v)
		}
	}
	// Population column (measured once; it changes slowly).
	popDay := days[len(days)-1]
	popM := st.Campaign.Measure(st.PopulationNames(popDay), popDay)
	popVals := extract(popM)

	res := &Result{
		Paper: "Table 5: top lists significantly exceed the population on every adoption metric (heads by up to 2 orders of magnitude); NXDOMAIN Umbrella 11.5% ≫ Majestic 2.7% > population 0.8% > Alexa 0.13%; Umbrella lowest TLS among lists",
	}
	res.Header = []string{"metric"}
	for _, c := range cols {
		res.Header = append(res.Header, c.name)
	}
	res.Header = append(res.Header, "com/net/org")

	isCount := map[string]bool{"Unique AS IPv4": true, "Unique AS IPv6": true}
	for mi, name := range metricNames {
		row := []string{name}
		for ci, c := range cols {
			mean, std := stats.MeanStd(c.m[name])
			// Significance marking: heads against their full list,
			// fulls against the population (paper footnote 6).
			var base float64
			if c.head {
				fullCol := cols[ci+3]
				base = stats.Mean(fullCol.m[name])
			} else {
				base = popVals[mi]
			}
			markStr := ""
			if !isCount[name] {
				markStr = string(measure.Classify(mean, base, std)) + " "
			}
			row = append(row, markStr+meanStdCell(mean, std, !isCount[name]))
		}
		if isCount[name] {
			row = append(row, f1(popVals[mi]))
		} else {
			row = append(row, pct(popVals[mi]))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"measured on days %v; population sample %d domains", days, popM.N))
	return res, nil
}

// runDNSSeries renders a weekly-sampled share series for the full lists
// plus the population.
func runDNSSeries(e *Env, id, paper string, get func(measure.Metrics) float64) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Paper:  paper,
		Header: []string{"day", "alexa 1M", "umbrella 1M", "majestic 1M", "com/net/org"},
	}
	for day := 0; day < st.Days(); day += 7 {
		row := []string{toplist.Day(day).String()}
		for _, p := range st.Providers() {
			m, err := measureList(e, p, day, false)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(get(m)))
		}
		pm := st.Campaign.Measure(st.PopulationNames(day), day)
		row = append(row, pct(get(pm)))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// weekdayWindow returns 14 consecutive post-change days, for per-weekday
// grouping.
func weekdayWindow(st interface{ Days() int }) (from, to int) {
	to = st.Days() - 1
	from = to - 14
	if from < 0 {
		from = 0
	}
	return
}

func runFig7a(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	from, to := weekdayWindow(st)
	res := &Result{
		Paper:  "Fig. 7a: CDN detection ratio differs by list (head ~26-36%, full 2.6-10%) with minor weekday effects",
		Header: []string{"weekday", "alexa head", "alexa full", "umbrella head", "umbrella full", "majestic head", "majestic full"},
	}
	type acc struct {
		sum float64
		n   int
	}
	table := map[string]map[int]*acc{} // provider+head -> weekday -> acc
	key := func(p string, head bool) string {
		if head {
			return p + "+h"
		}
		return p
	}
	for day := from; day < to; day++ {
		wd := int(toplist.Day(day).Weekday())
		for _, p := range st.Providers() {
			for _, head := range []bool{true, false} {
				m, err := measureList(e, p, day, head)
				if err != nil {
					return nil, err
				}
				k := key(p, head)
				if table[k] == nil {
					table[k] = map[int]*acc{}
				}
				if table[k][wd] == nil {
					table[k][wd] = &acc{}
				}
				table[k][wd].sum += m.CDN
				table[k][wd].n++
			}
		}
	}
	weekdays := []string{"Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday"}
	for wd := 0; wd < 7; wd++ {
		row := []string{weekdays[wd]}
		for _, p := range st.Providers() {
			for _, head := range []bool{true, false} {
				a := table[key(p, head)][wd]
				if a == nil || a.n == 0 {
					row = append(row, "-")
					continue
				}
				row = append(row, f3(a.sum/float64(a.n)))
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("post-change window days %d..%d", from, to))
	return res, nil
}

func runShares(e *Env, id, paper string, top func(m measure.Metrics) []measure.Share) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	day := st.Days() - 3
	res := &Result{
		Paper:  paper,
		Header: []string{"sample", "top-5 entries (label=share of detected)"},
	}
	addRow := func(label string, m measure.Metrics) {
		shares := top(m)
		cells := ""
		for i, s := range shares {
			if i > 0 {
				cells += "  "
			}
			cells += fmt.Sprintf("%s=%.1f%%", s.Label, 100*s.Share)
		}
		res.Rows = append(res.Rows, []string{label, cells})
	}
	for _, head := range []bool{true, false} {
		for _, p := range st.Providers() {
			m, err := measureList(e, p, day, head)
			if err != nil {
				return nil, err
			}
			label := p + " full"
			if head {
				label = fmt.Sprintf("%s head(%d)", p, st.Scale.HeadSize)
			}
			addRow(label, m)
		}
	}
	addRow("com/net/org", st.Campaign.Measure(st.PopulationNames(day), day))
	return res, nil
}

func runFig7b(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	return runShares(e, "fig7b",
		"Fig. 7b: top-5 CDN share >80% everywhere; Google dominates the population (71%) via private-hosted sites; Akamai & co dominate list heads",
		func(m measure.Metrics) []measure.Share { return st.Campaign.TopCDNShares(m, 5) })
}

func runFig7c(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	from, to := weekdayWindow(st)
	res := &Result{
		Paper:  "Fig. 7c: Alexa shows a strong weekend/weekday CDN-share pattern after its change; weekend days show more Google (private hosting)",
		Header: []string{"weekday", "alexa google-share", "alexa akamai-share"},
	}
	type acc struct {
		goog, akam, n float64
	}
	byWD := map[int]*acc{}
	for day := from; day < to; day++ {
		m, err := measureList(e, "alexa", day, false)
		if err != nil {
			return nil, err
		}
		shares := st.Campaign.TopCDNShares(m, 10)
		wd := int(toplist.Day(day).Weekday())
		if byWD[wd] == nil {
			byWD[wd] = &acc{}
		}
		for _, s := range shares {
			switch s.Label {
			case "Google":
				byWD[wd].goog += s.Share
			case "Akamai":
				byWD[wd].akam += s.Share
			}
		}
		byWD[wd].n++
	}
	weekdays := []string{"Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday"}
	for wd := 0; wd < 7; wd++ {
		a := byWD[wd]
		if a == nil || a.n == 0 {
			continue
		}
		res.Rows = append(res.Rows, []string{
			weekdays[wd], pct(a.goog / a.n), pct(a.akam / a.n),
		})
	}
	return res, nil
}

func runFig7d(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	return runShares(e, "fig7d",
		"Fig. 7d: GoDaddy dominates the population (26%) but only 2.7-4.5% of web lists; top-5 AS share 40% population, ~53% heads, ~27% fulls",
		func(m measure.Metrics) []measure.Share { return st.Campaign.TopASShares(m, 5) })
}

func runFig8(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Paper:  "Fig. 8: HTTP/2 ~7.8% population, up to 26.6% Alexa 1M, ~35%+ for heads; weekday pattern for lists with weekly churn",
		Header: []string{"day", "alexa head", "alexa 1M", "umbrella head", "umbrella 1M", "majestic head", "majestic 1M", "c/n/o"},
	}
	for day := 0; day < st.Days(); day += 7 {
		row := []string{toplist.Day(day).String()}
		for _, p := range st.Providers() {
			for _, head := range []bool{true, false} {
				m, err := measureList(e, p, day, head)
				if err != nil {
					return nil, err
				}
				row = append(row, pct(m.HTTP2))
			}
		}
		pm := st.Campaign.Measure(st.PopulationNames(day), day)
		row = append(row, pct(pm.HTTP2))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
