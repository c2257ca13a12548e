package conformance

import (
	"slices"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/bmc"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/ltl"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/symbolic"
)

// replayStructure builds the fixture used by the replay tests:
//
//	0[p] -> 1[] -> 2[p] -> 2
//	0    -> 2
func replayStructure() *kripke.Structure {
	k := kripke.New(3)
	k.SetProp(0, "p")
	k.SetProp(2, "p")
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	k.AddEdge(0, 2, "")
	return k
}

// TestAbsentPropHoldsNowhere checks every engine on a proposition no
// state carries: with every state initial, "never ghost" holds, so
// ghost is false in every state.
func TestAbsentPropHoldsNowhere(t *testing.T) {
	k := kripke.New(3) // every state is initial
	k.SetProp(1, "p")
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	ghost := ctl.Prop{Name: "ghost"}
	never := ctl.AG{X: ctl.Not{X: ghost}}

	if r := modelcheck.Check(k, ghost); r.Holds || len(r.FailingStates) != k.N {
		t.Errorf("explicit: %q failing states = %v, want all %d", ghost, r.FailingStates, k.N)
	}
	if r := modelcheck.Check(k, never); !r.Holds {
		t.Errorf("explicit: %s fails", never)
	}
	e := symbolic.New(k)
	if r := e.Check(ghost); r.Holds || slices.Contains(r.Sat, true) {
		t.Errorf("symbolic: %q sat = %v, want none", ghost, r.Sat)
	}
	if r := e.Check(never); !r.Holds {
		t.Errorf("symbolic: %s fails", never)
	}
	if r := ltl.Check(k, ltl.MustParse(`G !"ghost"`)); !r.Holds {
		t.Errorf("ltl: G !ghost fails via %v", r.Counterexample)
	}
	if r, ok := bmc.CheckAG(k, ctl.AG{X: ghost}, 0); !ok || !r.Violated {
		t.Errorf("bmc: AG %q not violated at depth 0: %+v", ghost, r)
	}
	if r, ok := bmc.CheckAG(k, never, k.N-1); !ok || r.Violated {
		t.Errorf("bmc: %s violated: %+v", never, r)
	}
}

func TestValidatePath(t *testing.T) {
	k := replayStructure()
	if err := ValidatePath(k, []int{0, 1, 2, 2}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	for name, path := range map[string][]int{
		"empty":        {},
		"out-of-range": {0, 7},
		"negative":     {-1},
		"non-edge":     {1, 0},
		"skips-state":  {0, 1, 1},
	} {
		if err := ValidatePath(k, path); err == nil {
			t.Errorf("%s path %v accepted", name, path)
		}
	}
}

func TestValidateCounterexampleAccepts(t *testing.T) {
	k := replayStructure()
	for _, f := range []ctl.Formula{
		ctl.AG{X: ctl.Prop{Name: "p"}},
		ctl.AX{X: ctl.Prop{Name: "p"}},
		ctl.AF{X: ctl.Not{X: ctl.Prop{Name: "p"}}}, // fails at 2: p forever
		ctl.Implies{L: ctl.Prop{Name: "p"}, R: ctl.AX{X: ctl.Prop{Name: "p"}}},
	} {
		r := modelcheck.Check(k, f)
		if r.Holds {
			t.Fatalf("%s unexpectedly holds; fixture broken", f)
		}
		if err := ValidateCounterexample(k, f, r); err != nil {
			t.Errorf("genuine counterexample for %s rejected: %v", f, err)
		}
	}
}

func TestValidateCounterexampleRejectsForgeries(t *testing.T) {
	k := replayStructure()
	f := ctl.AG{X: ctl.Prop{Name: "p"}}
	fresh := func() *modelcheck.Result { return modelcheck.Check(k, f) }

	r := fresh()
	r.Holds = true
	if err := ValidateCounterexample(k, f, r); err == nil {
		t.Error("accepted counterexample on a holding result")
	}

	r = fresh()
	r.Counterexample = nil
	if err := ValidateCounterexample(k, f, r); err == nil {
		t.Error("accepted missing counterexample")
	}

	r = fresh()
	r.Counterexample = []int{2, 2} // real path, but ends where p holds
	r.FailingStates = []int{2}
	if err := ValidateCounterexample(k, f, r); err == nil {
		t.Error("accepted AG counterexample ending in a satisfying state")
	} else if !strings.Contains(err.Error(), "body still holds") {
		t.Errorf("wrong rejection: %v", err)
	}

	r = fresh()
	r.Counterexample = append([]int{}, r.Counterexample...)
	if len(r.Counterexample) >= 2 {
		r.Counterexample[1] = 0 // break an edge (no 0->0 or duplicate-first edge in fixture)
		if ValidatePath(k, r.Counterexample) == nil {
			t.Skip("mutation did not break the path; fixture changed")
		}
		if err := ValidateCounterexample(k, f, r); err == nil {
			t.Error("accepted counterexample with a fake edge")
		}
	}
}

func TestValidateWitness(t *testing.T) {
	k := replayStructure()
	notP := ctl.Not{X: ctl.Prop{Name: "p"}}
	for _, f := range []ctl.Formula{
		ctl.EX{X: notP},
		ctl.EF{X: notP},
		ctl.EG{X: ctl.Prop{Name: "p"}},
		ctl.EU{A: ctl.Prop{Name: "p"}, B: notP},
	} {
		sat := modelcheck.Check(k, f).Sat
		for s := 0; s < k.N; s++ {
			path, loop, ok := modelcheck.Witness(k, f, s)
			if ok != sat[s] {
				t.Fatalf("Witness(%s, %d) ok=%v but Sat=%v", f, s, ok, sat[s])
			}
			if ok {
				if err := ValidateWitness(k, f, s, path, loop); err != nil {
					t.Errorf("genuine witness for %s at %d rejected: %v", f, s, err)
				}
			}
		}
	}

	// Forgeries.
	if err := ValidateWitness(k, ctl.EX{X: notP}, 0, []int{0, 2}, -1); err == nil {
		t.Error("accepted EX witness whose successor satisfies p")
	}
	if err := ValidateWitness(k, ctl.EF{X: notP}, 0, []int{0, 2}, -1); err == nil {
		t.Error("accepted EF witness ending outside the body set")
	}
	if err := ValidateWitness(k, ctl.EG{X: ctl.Prop{Name: "p"}}, 2, []int{2}, 5); err == nil {
		t.Error("accepted EG witness with out-of-range loop index")
	}
	if err := ValidateWitness(k, ctl.EU{A: ctl.Prop{Name: "p"}, B: notP}, 0, []int{0, 1, 2, 2}, -1); err == nil {
		t.Error("accepted EU witness ending outside B")
	}
	if err := ValidateWitness(k, ctl.AG{X: notP}, 0, []int{0}, -1); err == nil {
		t.Error("accepted witness for a universal formula")
	}
	if err := ValidateWitness(k, ctl.EF{X: notP}, 2, []int{0, 1}, -1); err == nil {
		t.Error("accepted witness starting at the wrong state")
	}
}

func TestValidateBMCTrace(t *testing.T) {
	k := replayStructure()
	f := ctl.AG{X: ctl.Prop{Name: "p"}}
	r, ok := bmc.CheckAG(k, f, k.N)
	if !ok {
		t.Fatal("BMC did not handle AG(p)")
	}
	if !r.Violated {
		t.Fatal("AG(p) unexpectedly unviolated under BMC; fixture broken")
	}
	if err := ValidateBMCTrace(k, f.X, r); err != nil {
		t.Errorf("genuine BMC trace rejected: %v", err)
	}

	forged := *r
	forged.Violated = false
	if err := ValidateBMCTrace(k, f.X, &forged); err == nil {
		t.Error("accepted trace on an unviolated result")
	}

	forged = *r
	forged.Path = []int{0, 2} // ends where p holds
	forged.Depth = 1
	if err := ValidateBMCTrace(k, f.X, &forged); err == nil {
		t.Error("accepted BMC trace ending in a satisfying state")
	}

	forged = *r
	forged.Depth = r.Depth + 3
	if err := ValidateBMCTrace(k, f.X, &forged); err == nil {
		t.Error("accepted BMC trace with inconsistent depth")
	}
}
