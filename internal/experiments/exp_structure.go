package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/parallel"
	"repro/internal/providers"
)

func init() {
	register("table2", "Dataset structure metrics (Table 2)", runTable2)
	register("table3", "Classification of disjunct head domains (Table 3)", runTable3)
	register("table4", "Rank variation of example domains (Table 4)", runTable4)
}

func runTable2(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Paper: "Table 2: Umbrella 28% base domains / depth up to 33 / 1347 invalid TLDs; web lists ~97% base domains; µ∆ Majestic 6k ≪ Alexa-pre 21k < Umbrella 118k ≪ Alexa-post 483k (per 1M)",
		Header: []string{
			"list", "top", "µTLD±σ", "µBD±σ", "SD1", "SD2", "SD3", "SDM",
			"DUPSLD±σ", "µ∆", "µNEW",
		},
	}
	addRow := func(row analysis.Table2Row) {
		top := "full"
		if row.Top > 0 {
			top = d(row.Top)
		}
		res.Rows = append(res.Rows, []string{
			row.Provider, top,
			meanStdCell(row.TLDMean, row.TLDStd, false),
			meanStdCell(row.BDMean, row.BDStd, false),
			pct(row.SD1), pct(row.SD2), pct(row.SD3), d(row.SDM),
			meanStdCell(row.DupMean, row.DupStd, false),
			f1(row.Delta), f1(row.New),
		})
	}
	// Full lists first: their calls resolve the columns the head rows
	// reuse, so they should start first.
	ps := st.Providers()
	rows := make([]analysis.Table2Row, 2*len(ps))
	parallel.Each(len(rows), func(i int) {
		top := 0
		if i >= len(ps) {
			top = st.Scale.HeadSize
		}
		rows[i] = st.Analysis.Table2(ps[i%len(ps)], top)
	})
	for _, row := range rows {
		addRow(row)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"list size %d, head %d, %d days; counts scale with list size (paper: 1M/1k over 333 days)",
		st.Scale.ListSize, st.Scale.HeadSize, st.Days()))
	return res, nil
}

func runTable3(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	rows := st.Analysis.Table3(st.Providers(), st.Scale.HeadSize)
	res := &Result{
		Paper:  "Table 3: Umbrella disjuncts 20.2% blacklist / 39.4% mobile / 25.6% other-Top1M; Alexa 3.1%/1.6%/99.1%; Majestic 2.0%/3.8%/93.6%",
		Header: []string{"list", "#disjunct", "% blacklist (hpHosts)", "% mobile (Lumen)", "% other Top lists"},
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, []string{
			r.Provider, d(r.Disjunct),
			fmt.Sprintf("%.2f%%", r.BlacklistPC),
			fmt.Sprintf("%.2f%%", r.MobilePC),
			fmt.Sprintf("%.2f%%", r.OtherTopPC),
		})
	}
	return res, nil
}

func runTable4(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	L := st.Scale.ListSize
	targets := []int{1, 3, L / 100, L / 20, L / 4, (L * 4) / 5}
	rows := st.Analysis.Table4(st.Providers(), providers.Alexa, targets)
	res := &Result{
		Paper:  "Table 4: top domains (google/facebook) vary by single ranks; tail domains (mdc.edu, puresight.com) vary by 3-5x across the period",
		Header: []string{"domain", "provider", "highest", "median", "lowest", "presence"},
	}
	for _, rv := range rows {
		for _, p := range st.Providers() {
			if _, ok := rv.Highest[p]; !ok {
				res.Rows = append(res.Rows, []string{rv.Domain, p, "-", "-", "-", "0%"})
				continue
			}
			res.Rows = append(res.Rows, []string{
				rv.Domain, p,
				d(rv.Highest[p]), d(rv.Median[p]), d(rv.Lowest[p]),
				pct1(rv.Presence[p]),
			})
		}
	}
	return res, nil
}
