package bmc

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

func TestFindsShortestCounterexample(t *testing.T) {
	// Chain 0 -> 1 -> 2(bad); only state 0 initial.
	k := kripke.New(3)
	k.Init = []int{0}
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	r := CheckAGProp(k, func(s int) bool { return s != 2 }, 10)
	if !r.Violated {
		t.Fatal("should find violation")
	}
	if r.Depth != 2 || len(r.Path) != 3 || r.Path[2] != 2 {
		t.Errorf("result = %+v", r)
	}
	// The path must be a real path.
	for i := 0; i < len(r.Path)-1; i++ {
		found := false
		for _, t2 := range k.Succs[r.Path[i]] {
			if t2 == r.Path[i+1] {
				found = true
			}
		}
		if !found {
			t.Errorf("path step %d invalid", i)
		}
	}
}

func TestNoViolationWithinBound(t *testing.T) {
	k := kripke.New(3)
	k.Init = []int{0}
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 0, "")
	k.AddEdge(2, 2, "") // bad state unreachable
	r := CheckAGProp(k, func(s int) bool { return s != 2 }, 8)
	if r.Violated {
		t.Errorf("unexpected violation: %+v", r)
	}
}

func TestUnreachableBadState(t *testing.T) {
	// Bad state exists but no edge leads to it from the initial state.
	k := kripke.New(4)
	k.Init = []int{0}
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 1, "")
	k.AddEdge(2, 3, "")
	k.AddEdge(3, 3, "")
	r := CheckAGProp(k, func(s int) bool { return s != 3 }, 10)
	if r.Violated {
		t.Error("state 3 is unreachable from 0")
	}
}

func TestCompletenessThreshold(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3 entered at 0; state 4 is unreachable.
	k := kripke.New(5)
	k.Init = []int{0}
	for s := 0; s < 3; s++ {
		k.AddEdge(s, s+1, "")
	}
	k.AddEdge(3, 0, "")
	k.AddEdge(4, 3, "")
	if got := CompletenessThreshold(k); got != 3 {
		t.Errorf("chain threshold = %d, want 3", got)
	}
	k.Init = []int{0, 2}
	if got := CompletenessThreshold(k); got != 1 {
		t.Errorf("threshold with two entry states = %d, want 1", got)
	}
	// kripke.New makes every state initial.
	if got := CompletenessThreshold(kripke.New(7)); got != 0 {
		t.Errorf("all-initial threshold = %d, want 0", got)
	}
}

func TestCheckAGFormula(t *testing.T) {
	k := kripke.New(2)
	k.Init = []int{0}
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 1, "")
	k.SetProp(0, "p")
	r, ok := CheckAG(k, ctl.MustParse(`AG "p"`), k.N)
	if !ok {
		t.Fatal("CheckAG should handle AG prop")
	}
	if !r.Violated {
		t.Error("state 1 violates p")
	}
	// Non-AG or nested temporal formulas are rejected.
	if _, ok := CheckAG(k, ctl.MustParse(`EF "p"`), k.N); ok {
		t.Error("EF should not be handled")
	}
	if _, ok := CheckAG(k, ctl.MustParse(`AG (EF "p")`), k.N); ok {
		t.Error("nested temporal body should not be handled")
	}
}

// TestAgreesWithExplicitEngine: BMC must agree with the explicit CTL
// checker on AG properties of a real app model (bound = |S| is
// complete for reachability).
func TestAgreesWithExplicitEngine(t *testing.T) {
	app, err := ir.BuildSource("buggy", paperapps.BuggySmokeAlarm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := statemodel.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	k := kripke.FromModel(m)
	f := ctl.MustParse(`AG ("ev:smokeDetector.smoke.detected" -> "alarm.alarm=siren")`)
	exp := modelcheck.Check(k, f)
	r, ok := CheckAG(k, f, k.N)
	if !ok {
		t.Fatal("CheckAG rejected formula")
	}
	if exp.Holds != !r.Violated {
		t.Errorf("explicit Holds=%t, BMC Violated=%t", exp.Holds, r.Violated)
	}
}

func TestBooleanCombinationBody(t *testing.T) {
	k := kripke.New(3)
	k.Init = []int{0}
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	k.SetProp(0, "a")
	k.SetProp(0, "b")
	k.SetProp(1, "a")
	k.SetProp(1, "b")
	k.SetProp(2, "b")
	r, ok := CheckAG(k, ctl.MustParse(`AG ("a" | "b")`), k.N)
	if !ok || r.Violated {
		t.Errorf("AG (a|b) holds; r=%+v ok=%t", r, ok)
	}
	r, ok = CheckAG(k, ctl.MustParse(`AG ("a" -> "b")`), k.N)
	if !ok || r.Violated {
		t.Errorf("AG (a->b) holds; r=%+v", r)
	}
	r, ok = CheckAG(k, ctl.MustParse(`AG "a"`), k.N)
	if !ok || !r.Violated {
		t.Errorf("AG a fails at state 2; r=%+v", r)
	}
}
