// Package audit fans the whole market corpus — every app individually
// plus the Table 4 groups — out over core.AnalyzeBatch. It lives below
// internal/market (rather than in it) so the corpus package stays free
// of analyzer imports.
package audit

import (
	"context"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
)

// Entry is one row of a market audit: an individual app or a Table 4
// group, with the property IDs it violates.
type Entry struct {
	ID         string   // app ID ("O1".."TP30") or group ID ("G.1".."G.3")
	Members    []string // group member app IDs; nil for individual apps
	Violated   []string // catalogue-ordered violated property IDs
	Incomplete bool     // analysis degraded (budget/fault); verdicts partial
	Err        error    // hard failure (unparseable source)
}

// Report is the outcome of a full market audit.
type Report struct {
	Apps   []Entry // the 65 corpus apps, in ID order
	Groups []Entry // the Table 4 groups, in catalogue order
}

// Run audits the whole corpus — every app individually, then each
// Table 4 group as a multi-app environment — fanned out over a batch
// worker pool. parallel bounds concurrent analyses (values below 2 run
// sequentially); results are always in corpus order and identical to a
// sequential audit's.
func Run(ctx context.Context, parallel int) *Report {
	apps := market.All()
	groups := market.Groups()

	items := make([]core.BatchItem, 0, len(apps)+len(groups))
	for _, a := range apps {
		items = append(items, core.BatchItem{
			Key:     a.ID,
			Sources: []core.NamedSource{{Name: a.Name, Source: a.Source}},
		})
	}
	for _, g := range groups {
		var srcs []core.NamedSource
		for _, id := range g.Members {
			a, ok := market.ByID(id)
			if !ok {
				continue
			}
			srcs = append(srcs, core.NamedSource{Name: a.Name, Source: a.Source})
		}
		items = append(items, core.BatchItem{Key: g.ID, Sources: srcs})
	}

	bo := core.BatchOptions{
		Options:  core.DefaultOptions(),
		Parallel: parallel,
	}
	results := core.AnalyzeBatch(ctx, bo, items...)

	rep := &Report{}
	for i, r := range results {
		e := Entry{ID: r.Key, Err: r.Err}
		if i >= len(apps) {
			e.Members = groups[i-len(apps)].Members
		}
		if r.Analysis != nil {
			e.Violated = r.Analysis.ViolatedIDs()
			e.Incomplete = r.Analysis.Incomplete
		}
		if i < len(apps) {
			rep.Apps = append(rep.Apps, e)
		} else {
			rep.Groups = append(rep.Groups, e)
		}
	}
	return rep
}
