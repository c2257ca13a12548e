package soteria

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Absolute times differ from the paper's 2.6GHz-laptop JVM numbers;
// the shapes (who wins, where the costs grow) are the reproduction
// target. cmd/soteria-bench prints the corresponding tables.

import (
	"context"
	"fmt"
	"testing"

	"github.com/soteria-analysis/soteria/internal/bmc"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/experiments"
	"github.com/soteria-analysis/soteria/internal/groovy"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/ltl"
	"github.com/soteria-analysis/soteria/internal/maliot"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/market/audit"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/statemodel"
	"github.com/soteria-analysis/soteria/internal/symbolic"
	"github.com/soteria-analysis/soteria/internal/symexec"
)

func mustIR(b *testing.B, name, src string) *ir.App {
	b.Helper()
	app, err := ir.BuildSource(name, src)
	if err != nil {
		b.Fatal(err)
	}
	return app
}

func mustSpecIR(b *testing.B, id string) *ir.App {
	b.Helper()
	spec, ok := market.ByID(id)
	if !ok {
		b.Fatalf("app %s missing", id)
	}
	app, err := spec.Parse()
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// BenchmarkTable2Dataset regenerates the corpus statistics (Table 2).
func BenchmarkTable2Dataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Individual analyzes all 65 market apps individually
// (Table 3).
func BenchmarkTable3Individual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4MultiApp analyzes the three Table 4 groups as
// environments.
func BenchmarkTable4MultiApp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMalIoT runs the full Appendix C suite.
func BenchmarkMalIoT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := maliot.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11aStateReduction regenerates the property-abstraction
// figure (Fig. 11 top) — it doubles as the abstraction-on/off
// ablation, since it computes both state counts.
func BenchmarkFig11aStateReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11bExtraction measures state-model extraction per
// state-count bucket (Fig. 11 bottom): small (4), medium (24), large
// (192) models, plus the smallest (G.1, 4 states) and largest (G.3,
// 2,304 states) multi-app environments.
func BenchmarkFig11bExtraction(b *testing.B) {
	cases := []struct {
		name string
		ids  []string
	}{
		{"4-states/water-leak", nil}, // paper running example
		{"24-states/O12", []string{"O12"}},
		{"192-states/O1", []string{"O1"}},
		{"group/G.1", market.Groups()[0].Members},
		{"group/G.3", market.Groups()[2].Members},
	}
	for _, c := range cases {
		var apps []*ir.App
		if c.ids == nil {
			apps = []*ir.App{mustIR(b, "water-leak", paperapps.WaterLeakDetector)}
		} else {
			for _, id := range c.ids {
				apps = append(apps, mustSpecIR(b, id))
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := statemodel.Build(apps...)
				if err != nil {
					b.Fatal(err)
				}
				_ = kripke.FromModel(m)
			}
		})
	}
}

// BenchmarkUnionAlgorithm measures Algorithm 2 (structural union of
// already-extracted models), the §6.3 union timing.
func BenchmarkUnionAlgorithm(b *testing.B) {
	var models []*statemodel.Model
	for _, id := range market.Groups()[0].Members {
		m, err := statemodel.Build(mustSpecIR(b, id))
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := statemodel.Union(models...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerificationEngines compares the three checking engines on
// the same model and property (§6.3's verification overhead; paper:
// milliseconds per property).
func BenchmarkVerificationEngines(b *testing.B) {
	app := mustSpecIR(b, "O1")
	m, err := statemodel.Build(app)
	if err != nil {
		b.Fatal(err)
	}
	k := kripke.FromModel(m)
	f := ctl.MustParse(`AG ("ev:smokeDetector.smoke.detected" -> "alarm.alarm=siren")`)

	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			modelcheck.Check(k, f)
		}
	})
	b.Run("bdd-symbolic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := symbolic.New(k)
			e.Check(f)
		}
	})
	b.Run("sat-bmc-depth10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := bmc.CheckAG(k, f, 10); !ok {
				b.Fatal("formula not handled")
			}
		}
	})
}

// BenchmarkAblationPredicateLabels measures the cost and the spurious
// findings of event-only transition labels (paper §4.2's precision
// discussion).
func BenchmarkAblationPredicateLabels(b *testing.B) {
	app := mustSpecIR(b, "O15")
	for _, mode := range []struct {
		name string
		opt  statemodel.Options
	}{
		{"predicate-labels", statemodel.Options{}},
		{"event-only", statemodel.Options{EventOnlyLabels: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := statemodel.BuildOpt(mode.opt, app)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(m.Nondet)), "nondet-reports")
			}
		})
	}
}

// BenchmarkAblationPathMerging reports ESP merging's path reduction on
// the corpus app with the branchiest handlers.
func BenchmarkAblationPathMerging(b *testing.B) {
	// The leak detector's notification branches all end in the same
	// device state, so ESP merging collapses them (§4.2.2).
	app := mustIR(b, "water-leak", paperapps.WaterLeakDetector)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		explored, merged := 0, 0
		for _, r := range symexec.ExecuteAll(app) {
			explored += r.Explored
			merged += r.Merged
		}
		b.ReportMetric(float64(explored), "explored-paths")
		b.ReportMetric(float64(merged), "merged-paths")
	}
}

// BenchmarkBatch measures the full-corpus market audit (65 apps + the
// Table 4 groups) at several batch-worker counts. Every run analyzes
// every item, so the parallel sub-benchmarks measure real fan-out;
// speedup over workers/1 tracks GOMAXPROCS — on a single-core runner
// the times are expected to be flat. cmd/soteria-bench -parallel-bench
// writes the sequential-vs-parallel comparison to BENCH_parallel.json.
func BenchmarkBatch(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers/%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := audit.Run(context.Background(), workers)
				for _, e := range rep.Apps {
					if e.Err != nil {
						b.Fatal(e.Err)
					}
				}
			}
		})
	}
}

// BenchmarkGroovyParse measures parser throughput on the paper's
// largest running example.
func BenchmarkGroovyParse(b *testing.B) {
	src := paperapps.SmokeAlarm
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := groovy.Parse("smoke-alarm", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolicExecution measures per-entry-point path exploration
// (§4.2.2) on the branchiest paper handler.
func BenchmarkSymbolicExecution(b *testing.B) {
	app := mustIR(b, "thermostat", paperapps.ThermostatEnergyControl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symexec.ExecuteAll(app)
	}
}

// BenchmarkBDDEncode measures the symbolic engine's one-time encoding
// cost for the largest single-app model.
func BenchmarkBDDEncode(b *testing.B) {
	app := mustSpecIR(b, "O1")
	m, err := statemodel.Build(app)
	if err != nil {
		b.Fatal(err)
	}
	k := kripke.FromModel(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symbolic.New(k)
	}
}

// BenchmarkSingleAppPipeline measures the full per-app pipeline
// (parse → IR → model → all properties) on the paper's running
// example — the per-app unit of Table 3's workload.
func BenchmarkSingleAppPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.AnalyzeSources(core.DefaultOptions(),
			core.NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLTL measures the automata-theoretic LTL engine on the
// paper's P.10 phrasing over the largest single-app model.
func BenchmarkLTL(b *testing.B) {
	app := mustSpecIR(b, "O1")
	m, err := statemodel.Build(app)
	if err != nil {
		b.Fatal(err)
	}
	k := kripke.FromModel(m)
	f := ltl.MustParse(`G ("ev:smokeDetector.smoke.detected" -> "alarm.alarm=siren")`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ltl.Check(k, f); !r.Holds {
			b.Fatal("property should hold")
		}
	}
}
