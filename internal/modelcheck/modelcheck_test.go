package modelcheck

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// chain builds 0 -> 1 -> 2 -> ... -> n-1 -> n-1 (self loop at end).
func chain(n int, labels map[int][]string) *kripke.Structure {
	k := kripke.New(n)
	for i := 0; i < n-1; i++ {
		k.AddEdge(i, i+1, "")
	}
	k.AddEdge(n-1, n-1, "")
	for s, ps := range labels {
		for _, p := range ps {
			k.SetProp(s, p)
		}
	}
	return k
}

func holdsAt(t *testing.T, k *kripke.Structure, formula string, s int, want bool) {
	t.Helper()
	r := Check(k, ctl.MustParse(formula))
	if r.Sat[s] != want {
		t.Errorf("%s at state %d = %t, want %t", formula, s, r.Sat[s], want)
	}
}

func TestPropAndBoolean(t *testing.T) {
	k := chain(3, map[int][]string{0: {"a"}, 1: {"a", "b"}, 2: {"b"}})
	holdsAt(t, k, `"a"`, 0, true)
	holdsAt(t, k, `"a"`, 2, false)
	holdsAt(t, k, `"a" & "b"`, 1, true)
	holdsAt(t, k, `"a" & "b"`, 0, false)
	holdsAt(t, k, `"a" | "b"`, 2, true)
	holdsAt(t, k, `!"a"`, 2, true)
	holdsAt(t, k, `"a" -> "b"`, 0, false)
	holdsAt(t, k, `"a" -> "b"`, 2, true) // vacuous
	holdsAt(t, k, `true`, 2, true)
	holdsAt(t, k, `false`, 2, false)
}

func TestEXAX(t *testing.T) {
	// 0 -> 1, 0 -> 2; 1 has p, 2 doesn't.
	k := kripke.New(3)
	k.AddEdge(0, 1, "")
	k.AddEdge(0, 2, "")
	k.AddEdge(1, 1, "")
	k.AddEdge(2, 2, "")
	k.SetProp(1, "p")
	holdsAt(t, k, `EX "p"`, 0, true)
	holdsAt(t, k, `AX "p"`, 0, false)
	holdsAt(t, k, `AX "p"`, 1, true)
	holdsAt(t, k, `EX "p"`, 2, false)
}

func TestEFAFAGEG(t *testing.T) {
	k := chain(4, map[int][]string{3: {"goal"}, 0: {"inv"}, 1: {"inv"}, 2: {"inv"}})
	holdsAt(t, k, `EF "goal"`, 0, true)
	holdsAt(t, k, `AF "goal"`, 0, true) // single path chain
	holdsAt(t, k, `AG "inv"`, 0, false) // state 3 lacks inv
	holdsAt(t, k, `EG "inv"`, 0, false)
	holdsAt(t, k, `AG ("inv" | "goal")`, 0, true)
}

func TestAFWithBranch(t *testing.T) {
	// 0 -> 1 (p, loops), 0 -> 2 (no p, loops): EF p yes, AF p no.
	k := kripke.New(3)
	k.AddEdge(0, 1, "")
	k.AddEdge(0, 2, "")
	k.AddEdge(1, 1, "")
	k.AddEdge(2, 2, "")
	k.SetProp(1, "p")
	holdsAt(t, k, `EF "p"`, 0, true)
	holdsAt(t, k, `AF "p"`, 0, false)
	holdsAt(t, k, `EG !"p"`, 0, true)
}

func TestUntil(t *testing.T) {
	// 0(a) -> 1(a) -> 2(b) -> 2.
	k := chain(3, map[int][]string{0: {"a"}, 1: {"a"}, 2: {"b"}})
	holdsAt(t, k, `E["a" U "b"]`, 0, true)
	holdsAt(t, k, `A["a" U "b"]`, 0, true)
	// Break the until: a gap at state 1.
	k2 := chain(3, map[int][]string{0: {"a"}, 2: {"b"}})
	holdsAt(t, k2, `E["a" U "b"]`, 0, false)
	holdsAt(t, k2, `E["a" U "b"]`, 1, false)
	holdsAt(t, k2, `E["a" U "b"]`, 2, true) // b holds immediately
}

func TestAUvsEU(t *testing.T) {
	// 0 -> 1 -> goal; 0 -> 2 (trap, no a no goal).
	k := kripke.New(4)
	k.AddEdge(0, 1, "")
	k.AddEdge(0, 2, "")
	k.AddEdge(1, 3, "")
	k.AddEdge(2, 2, "")
	k.AddEdge(3, 3, "")
	k.SetProp(0, "a")
	k.SetProp(1, "a")
	k.SetProp(3, "goal")
	holdsAt(t, k, `E["a" U "goal"]`, 0, true)
	holdsAt(t, k, `A["a" U "goal"]`, 0, false) // the 0->2 path fails
}

func TestHoldsOverInitialStates(t *testing.T) {
	k := chain(2, map[int][]string{0: {"p"}, 1: {"p"}})
	r := Check(k, ctl.MustParse(`AG "p"`))
	if !r.Holds || len(r.FailingStates) != 0 {
		t.Errorf("result = %+v", r)
	}
	k = chain(2, map[int][]string{0: {"p"}})
	r = Check(k, ctl.MustParse(`AG "p"`))
	if r.Holds {
		t.Error("AG p should fail")
	}
}

func TestCounterexamplePathAG(t *testing.T) {
	k := chain(4, map[int][]string{0: {"p"}, 1: {"p"}, 2: {"p"}})
	r := Check(k, ctl.MustParse(`AG "p"`))
	if r.Holds {
		t.Fatal("should fail")
	}
	// Counterexample from state 0 must be the path 0,1,2,3.
	if len(r.Counterexample) != 4 || r.Counterexample[3] != 3 {
		t.Errorf("counterexample = %v", r.Counterexample)
	}
}

func TestCounterexampleLassoAF(t *testing.T) {
	// 0 -> 1 -> 0 loop, p never holds: AF p fails with a lasso.
	k := kripke.New(2)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 0, "")
	r := Check(k, ctl.MustParse(`AF "p"`))
	if r.Holds {
		t.Fatal("AF p should fail")
	}
	if len(r.Counterexample) < 2 || r.CounterexampleLoop < 0 {
		t.Errorf("lasso = %v loop=%d", r.Counterexample, r.CounterexampleLoop)
	}
}

func TestCounterexampleImplication(t *testing.T) {
	// AG (p -> AX q): state 0 has p but successor lacks q.
	k := kripke.New(2)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 1, "")
	k.SetProp(0, "p")
	r := Check(k, ctl.MustParse(`AG ("p" -> AX "q")`))
	if r.Holds {
		t.Fatal("should fail")
	}
	if len(r.Counterexample) == 0 {
		t.Error("no counterexample")
	}
}

// --- Integration with the paper's running examples ----------------------

func modelOf(t *testing.T, name, src string) *statemodel.Model {
	t.Helper()
	app, err := ir.BuildSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := statemodel.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFig9WaterLeakProperty reproduces the paper's Fig. 9 check:
// "water.wet -> (AX valve closed)" — after a water-wet event the
// valve must be closed.
func TestFig9WaterLeakProperty(t *testing.T) {
	m := modelOf(t, "water-leak", paperapps.WaterLeakDetector)
	k := kripke.FromModel(m)
	r := Check(k, ctl.MustParse(`AG ("ev:waterSensor.water.wet" -> "valve.valve=closed")`))
	if !r.Holds {
		t.Errorf("water-leak property should hold; failing states: %v", r.FailingStates)
	}
}

// TestP10SmokeAlarm reproduces P.10: the alarm must sound when there
// is smoke. It holds for the correct Smoke-Alarm app and fails for
// the §3/Fig. 2(1b) buggy variant, with a counterexample.
func TestP10SmokeAlarm(t *testing.T) {
	good := modelOf(t, "smoke-alarm", paperapps.SmokeAlarm)
	kg := kripke.FromModel(good)
	prop := `AG ("ev:smokeDetector.smoke.detected" -> "alarm.alarm=siren")`
	if r := Check(kg, ctl.MustParse(prop)); !r.Holds {
		t.Errorf("P.10 should hold for the correct app; failing: %v", r.FailingStates)
	}

	bad := modelOf(t, "buggy", paperapps.BuggySmokeAlarm)
	kb := kripke.FromModel(bad)
	r := Check(kb, ctl.MustParse(prop))
	if r.Holds {
		t.Error("P.10 should fail for the buggy app")
	}
	if len(r.Counterexample) == 0 {
		t.Error("expected a counterexample")
	}
}

// TestSprinklerInteraction reproduces the §3 multi-app violation: with
// Smoke-Alarm and Water-Leak-Detector installed together, the water
// valve (fire sprinkler) opened on smoke can be immediately shut by
// the leak detector. The property "once smoke is detected the valve
// stays open until smoke clears" fails only in the joint model.
func TestSprinklerInteraction(t *testing.T) {
	appSmoke, err := ir.BuildSource("smoke-alarm", paperapps.SmokeAlarm)
	if err != nil {
		t.Fatal(err)
	}
	appLeak, err := ir.BuildSource("water-leak", paperapps.WaterLeakDetector)
	if err != nil {
		t.Fatal(err)
	}
	// After a smoke-detected event, no next step may close the valve
	// while smoke is still detected.
	prop := `AG (("ev:smokeDetector.smoke.detected" & "smokeDetector.smoke=detected") -> AX ("smokeDetector.smoke=detected" -> "valve.valve=open"))`

	single, err := statemodel.Build(appSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if r := Check(kripke.FromModel(single), ctl.MustParse(prop)); !r.Holds {
		t.Errorf("property should hold for Smoke-Alarm alone; failing: %d states", len(r.FailingStates))
	}

	joint, err := statemodel.Build(appSmoke, appLeak)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(kripke.FromModel(joint), ctl.MustParse(prop))
	if r.Holds {
		t.Error("property should fail in the multi-app environment (sprinkler shut off)")
	}
}

func TestRenderCounterexample(t *testing.T) {
	bad := modelOf(t, "buggy", paperapps.BuggySmokeAlarm)
	k := kripke.FromModel(bad)
	r := Check(k, ctl.MustParse(`AG ("ev:smokeDetector.smoke.detected" -> "alarm.alarm=siren")`))
	if r.Holds {
		t.Fatal("expected failure")
	}
	out := k.RenderPath(r.Counterexample)
	if out == "" {
		t.Error("empty rendering")
	}
}
