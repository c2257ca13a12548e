package statemodel_test

import (
	"context"
	"testing"

	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// groupApps parses the member apps of a Table 4 group.
func groupApps(tb testing.TB, id string) []*ir.App {
	tb.Helper()
	for _, g := range market.Groups() {
		if g.ID != id {
			continue
		}
		var apps []*ir.App
		for _, mid := range g.Members {
			spec, ok := market.ByID(mid)
			if !ok {
				tb.Fatalf("app %s missing", mid)
			}
			app, err := spec.Parse()
			if err != nil {
				tb.Fatal(err)
			}
			apps = append(apps, app)
		}
		return apps
	}
	tb.Fatalf("group %s missing", id)
	return nil
}

// BenchmarkBuildBudgetG3 measures extraction of the largest Table 4
// environment (8 apps, 2,304 states) as the analyzer runs it: under a
// fresh unlimited budget per analysis, as core passes one, so the
// budget's ticks are charged.
func BenchmarkBuildBudgetG3(b *testing.B) {
	apps := groupApps(b, "G.3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget := guard.New(context.Background(), guard.Limits{})
		if _, err := statemodel.BuildBudget(budget, statemodel.Options{}, apps...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKripkeG3 measures the Kripke translation of the G.3 model
// (66,816 transitions).
func BenchmarkKripkeG3(b *testing.B) {
	m, err := statemodel.Build(groupApps(b, "G.3")...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kripke.FromModel(m)
	}
}
