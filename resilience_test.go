package soteria

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// buggyEnv builds the two-app environment the resilience tests fault:
// it has both general and app-specific violations and several
// applicable catalogue properties.
func buggyEnv(t *testing.T) []*App {
	t.Helper()
	return []*App{
		parse(t, "buggy-smoke-alarm", paperapps.BuggySmokeAlarm),
		parse(t, "water-leak-detector", paperapps.WaterLeakDetector),
	}
}

// exerciseResult drives the whole post-hoc API surface; every call
// may fail with an error but must not panic.
func exerciseResult(res *Result) {
	_, _, _ = res.CheckFormula(`AG "valve.valve=closed"`)
	_, _, _ = res.CheckFormulaEngine(`AG "valve.valve=closed"`, BDD)
	_, _, _ = res.CheckFormulaEngine(`AG "valve.valve=closed"`, BMC)
	_, _, _ = res.CheckLTL(`G "valve.valve=closed"`)
	_, _, _ = res.WitnessFormula(`EF "valve.valve=closed"`)
	_ = res.DOT()
	_ = res.SMV()
}

// TestFaultInjectionSweep arms a panic at every canonical injection
// site in turn and asserts the public API never panics and always
// returns a structured result: analysis-phase faults degrade to a
// partial Result with diagnostics, post-hoc faults come back as
// errors.
func TestFaultInjectionSweep(t *testing.T) {
	for _, site := range faultinject.Sites() {
		t.Run(site, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.ArmPanic(site, "")
			res, err := AnalyzeEnvironment(buggyEnv(t))
			if err != nil {
				t.Fatalf("fault at %s escalated to a hard error: %v", site, err)
			}
			if res == nil {
				t.Fatalf("fault at %s: nil result", site)
			}
			if res.Incomplete && len(res.Diagnostics) == 0 {
				t.Errorf("fault at %s: incomplete result without diagnostics", site)
			}
			for _, d := range res.Diagnostics {
				if d.Kind != DiagnosticPanic && d.Kind != DiagnosticBudget && d.Kind != DiagnosticError {
					t.Errorf("fault at %s: unclassified diagnostic %v", site, d)
				}
			}
			exerciseResult(res)
		})
	}
}

// TestFaultInjectionBudgetSweep repeats the sweep with injected
// budget exhaustion instead of panics.
func TestFaultInjectionBudgetSweep(t *testing.T) {
	for _, site := range faultinject.Sites() {
		t.Run(site, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.ArmBudget(site, "", "states")
			res, err := AnalyzeEnvironment(buggyEnv(t))
			if err != nil {
				t.Fatalf("fault at %s escalated to a hard error: %v", site, err)
			}
			exerciseResult(res)
		})
	}
}

// TestAnalyzeStageFaultYieldsPartialResult pins the degradation
// contract for faults before property checking: the run stays
// err-free, is marked incomplete, and carries a panic diagnostic
// naming the stage.
func TestAnalyzeStageFaultYieldsPartialResult(t *testing.T) {
	for _, site := range []string{faultinject.SiteAnalyze, faultinject.SiteStateModel, faultinject.SiteKripke} {
		t.Run(site, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.ArmPanic(site, "")
			res, err := AnalyzeEnvironment(buggyEnv(t))
			if err != nil {
				t.Fatalf("hard error: %v", err)
			}
			if !res.Incomplete {
				t.Fatal("result should be incomplete")
			}
			found := false
			for _, d := range res.Diagnostics {
				if d.Kind == DiagnosticPanic {
					found = true
				}
			}
			if !found {
				t.Errorf("no panic diagnostic; got %v", res.Diagnostics)
			}
		})
	}
}

// TestPerPropertyFaultIsolation faults the check of one catalogue
// property and asserts the remaining properties still report their
// verdicts: the faulted ID leaves Checked, a diagnostic names it, and
// the other properties' verdicts (including the P.10 violation) are
// unaffected.
func TestPerPropertyFaultIsolation(t *testing.T) {
	clean, err := AnalyzeEnvironment(buggyEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Checked) < 2 {
		t.Fatalf("need >=2 checked properties to isolate one; got %v", clean.Checked)
	}
	if !clean.Violated("P.10") {
		t.Fatalf("baseline should violate P.10; violations = %v", clean.Violations)
	}
	victim := ""
	for _, id := range clean.Checked {
		if id != "P.10" {
			victim = id
			break
		}
	}

	t.Cleanup(faultinject.Reset)
	faultinject.ArmPanic(faultinject.SiteProperty, victim)
	res, err := AnalyzeEnvironment(buggyEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Error("result should be incomplete with one property faulted")
	}
	foundDiag := false
	for _, d := range res.Diagnostics {
		if d.Property == victim {
			foundDiag = true
		}
	}
	if !foundDiag {
		t.Errorf("no diagnostic for faulted property %s; got %v", victim, res.Diagnostics)
	}
	for _, id := range res.Checked {
		if id == victim {
			t.Errorf("faulted property %s still listed as checked", victim)
		}
	}
	if len(res.Checked) != len(clean.Checked)-1 {
		t.Errorf("checked = %v, want all of %v except %s", res.Checked, clean.Checked, victim)
	}
	if !res.Violated("P.10") {
		t.Error("P.10 verdict lost when an unrelated property faulted")
	}
}

// TestExplicitEngineFailureUndecides exhausts the explicit engine's
// budget on one property. The explicit engine is the only engine on the
// property-sweep path, so that property becomes undecided: it leaves
// Checked, carries an engine.explicit diagnostic, and marks the run
// incomplete, while every other property keeps its verdict.
func TestExplicitEngineFailureUndecides(t *testing.T) {
	clean, err := AnalyzeEnvironment(buggyEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	const victim = "P.10"
	if !clean.Violated(victim) {
		t.Fatalf("baseline should violate %s; violations = %v", victim, clean.Violations)
	}

	t.Cleanup(faultinject.Reset)
	faultinject.ArmBudget(faultinject.SiteEngineExplicit, victim, "states")
	res, err := AnalyzeEnvironment(buggyEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Error("result should be incomplete with one property undecided")
	}
	var want []string
	for _, id := range clean.Checked {
		if id != victim {
			want = append(want, id)
		}
	}
	if strings.Join(res.Checked, ",") != strings.Join(want, ",") {
		t.Errorf("checked = %v, want %v (every property but %s)", res.Checked, want, victim)
	}
	found := false
	for _, d := range res.Diagnostics {
		if d.Property != victim {
			t.Errorf("diagnostic for a property that should be decided: %v", d)
			continue
		}
		if d.Stage == "engine.explicit" && d.Engine == string(Explicit) && d.Kind == DiagnosticBudget {
			found = true
		}
	}
	if !found {
		t.Errorf("no engine.explicit budget diagnostic for %s; got %v", victim, res.Diagnostics)
	}
}

// marketGroupEnv assembles the largest Table 4 multi-app group — the
// heaviest environment in the repo — for the timeout tests.
func marketGroupEnv(t *testing.T) []*App {
	t.Helper()
	var apps []*App
	for _, g := range market.Groups() {
		for _, id := range g.Members {
			spec, ok := market.ByID(id)
			if !ok {
				t.Fatalf("unknown market app %s", id)
			}
			apps = append(apps, parse(t, spec.Name, spec.Source))
		}
	}
	return apps
}

// TestTimeoutReturnsPromptly runs the heaviest environment under a
// 1ms wall-clock budget: the analysis must return well under a
// second, incomplete, with a budget diagnostic.
func TestTimeoutReturnsPromptly(t *testing.T) {
	apps := marketGroupEnv(t)
	start := time.Now()
	res, err := AnalyzeEnvironment(apps, WithTimeout(time.Millisecond))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= time.Second {
		t.Errorf("1ms-budget analysis took %v, want < 1s", elapsed)
	}
	if !res.Incomplete {
		t.Fatalf("1ms-budget analysis reported complete in %v", elapsed)
	}
	budget := false
	for _, d := range res.Diagnostics {
		if d.Kind == DiagnosticBudget {
			budget = true
		}
	}
	if !budget {
		t.Errorf("no budget diagnostic; got %v", res.Diagnostics)
	}
}

// TestContextCancellation aborts an analysis through an
// already-canceled context.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnalyzeEnvironmentContext(ctx, buggyEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Error("canceled analysis should be incomplete")
	}
	budget := false
	for _, d := range res.Diagnostics {
		if d.Kind == DiagnosticBudget {
			budget = true
		}
	}
	if !budget {
		t.Errorf("cancellation should yield a budget diagnostic; got %v", res.Diagnostics)
	}
}

// TestMaxStatesLimit caps state enumeration below the smoke alarm's
// 96 states; the whole product is charged before enumeration, so the
// budget trips immediately.
func TestMaxStatesLimit(t *testing.T) {
	app := parse(t, "smoke-alarm", paperapps.SmokeAlarm)
	res, err := Analyze(app, WithLimits(Limits{MaxStates: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Fatal("analysis under MaxStates=4 should be incomplete")
	}
	found := false
	for _, d := range res.Diagnostics {
		if d.Kind == DiagnosticBudget && strings.Contains(d.Message, "states") {
			found = true
		}
	}
	if !found {
		t.Errorf("no states-budget diagnostic; got %v", res.Diagnostics)
	}
}

// TestMalformedFormulasReturnErrors drives the formula entry points
// with malformed and adversarially nested inputs; all must return
// errors, none may panic or exhaust the stack.
func TestMalformedFormulasReturnErrors(t *testing.T) {
	app := parse(t, "smoke-alarm", paperapps.SmokeAlarm)
	res, err := Analyze(app)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"AG(",
		"E[\"a\" U",
		"\"unterminated",
		strings.Repeat("!", 100000) + "\"p\"",
		strings.Repeat("(", 100000) + "\"p\"" + strings.Repeat(")", 100000),
		strings.Repeat("AG ", 50000) + "\"p\"",
	}
	for _, f := range bad {
		if _, _, err := res.CheckFormula(f); err == nil {
			t.Errorf("CheckFormula(%.20q...) should fail", f)
		}
		if _, _, err := res.CheckLTL(strings.ReplaceAll(f, "AG", "G")); err == nil {
			t.Errorf("CheckLTL(%.20q...) should fail", f)
		}
		if _, _, err := res.WitnessFormula(f); err == nil {
			t.Errorf("WitnessFormula(%.20q...) should fail", f)
		}
	}
	// A small depth limit rejects even modest nesting.
	res, err = Analyze(app, WithLimits(Limits{MaxFormulaDepth: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.CheckFormula(`!!!!!"p"`); err == nil {
		t.Error("MaxFormulaDepth=3 should reject 5 levels of negation")
	}
	if _, _, err := res.CheckFormula(`AG "p"`); err != nil {
		t.Errorf("shallow formula rejected under MaxFormulaDepth=3: %v", err)
	}
}
