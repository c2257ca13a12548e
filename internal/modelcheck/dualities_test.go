package modelcheck

import (
	"math/rand"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/symbolic"
)

// randomStructure builds a total Kripke structure with random edges
// and labels.
func randomStructure(rng *rand.Rand, n int) *kripke.Structure {
	k := kripke.New(n)
	for s := 0; s < n; s++ {
		m := 1 + rng.Intn(3)
		for j := 0; j < m; j++ {
			k.AddEdge(s, rng.Intn(n), "")
		}
		if rng.Intn(2) == 0 {
			k.SetProp(s, "p")
		}
		if rng.Intn(3) == 0 {
			k.SetProp(s, "q")
		}
	}
	return k
}

// TestCTLDualities checks the standard CTL dualities hold state-by-
// state on random structures — a strong internal-consistency property
// of the fixpoint implementation:
//
//	AG p  ≡ ¬EF ¬p
//	AF p  ≡ ¬EG ¬p
//	AX p  ≡ ¬EX ¬p
//	EF p  ≡ E[true U p]
//	A[p U q] ≡ ¬(E[¬q U (¬p ∧ ¬q)] ∨ EG ¬q)
func TestCTLDualities(t *testing.T) {
	pairs := [][2]string{
		{`AG "p"`, `!EF !"p"`},
		{`AF "p"`, `!EG !"p"`},
		{`AX "p"`, `!EX !"p"`},
		{`EF "p"`, `E[true U "p"]`},
		{`A["p" U "q"]`, `!(E[!"q" U (!"p" & !"q")] | EG !"q")`},
		{`EG "p"`, `!AF !"p"`},
		{`"p" -> "q"`, `!"p" | "q"`},
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		k := randomStructure(rng, 2+rng.Intn(12))
		for _, pair := range pairs {
			a := Check(k, ctl.MustParse(pair[0]))
			b := Check(k, ctl.MustParse(pair[1]))
			for s := 0; s < k.N; s++ {
				if a.Sat[s] != b.Sat[s] {
					t.Fatalf("trial %d: %s and %s disagree at state %d", trial, pair[0], pair[1], s)
				}
			}
		}
	}
}

// TestCTLDualitiesBDD pins the same dualities on the BDD-symbolic
// engine, and cross-checks its satisfaction sets against the explicit
// engine's state by state. The conformance oracle covers this ground
// with random formulas; these fixed pairs keep the invariant pinned
// here as a regression test next to the fixpoint code it guards.
func TestCTLDualitiesBDD(t *testing.T) {
	pairs := [][2]string{
		{`AG "p"`, `!EF !"p"`},
		{`AF "p"`, `!EG !"p"`},
		{`AX "p"`, `!EX !"p"`},
		{`EF "p"`, `E[true U "p"]`},
		{`A["p" U "q"]`, `!(E[!"q" U (!"p" & !"q")] | EG !"q")`},
		{`EG "p"`, `!AF !"p"`},
		{`"p" -> "q"`, `!"p" | "q"`},
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		k := randomStructure(rng, 2+rng.Intn(12))
		eng := symbolic.New(k)
		for _, pair := range pairs {
			fa, fb := ctl.MustParse(pair[0]), ctl.MustParse(pair[1])
			a := eng.Check(fa)
			b := eng.Check(fb)
			ref := Check(k, fa)
			for s := 0; s < k.N; s++ {
				if a.Sat[s] != b.Sat[s] {
					t.Fatalf("trial %d: BDD engine: %s and %s disagree at state %d", trial, pair[0], pair[1], s)
				}
				if a.Sat[s] != ref.Sat[s] {
					t.Fatalf("trial %d: %s: BDD and explicit engines disagree at state %d", trial, pair[0], s)
				}
			}
		}
	}
}

// TestMonotonicity: strengthening the proposition set can only shrink
// AG's satisfaction set and EF's.
func TestMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		k := randomStructure(rng, 2+rng.Intn(10))
		agPQ := Check(k, ctl.MustParse(`AG ("p" & "q")`))
		agP := Check(k, ctl.MustParse(`AG "p"`))
		efPQ := Check(k, ctl.MustParse(`EF ("p" & "q")`))
		efP := Check(k, ctl.MustParse(`EF "p"`))
		for s := 0; s < k.N; s++ {
			if agPQ.Sat[s] && !agP.Sat[s] {
				t.Fatalf("AG not monotone at %d", s)
			}
			if efPQ.Sat[s] && !efP.Sat[s] {
				t.Fatalf("EF not monotone at %d", s)
			}
		}
	}
}

// TestEGOnCycleOnly: EG p holds exactly on states that can reach a
// p-cycle through p-states; on a DAG-with-self-loops structure this is
// easy to verify directly.
func TestEGSemantics(t *testing.T) {
	// 0 -> 1 -> 2(self), all p except 2.
	k := kripke.New(3)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	k.SetProp(0, "p")
	k.SetProp(1, "p")
	r := Check(k, ctl.MustParse(`EG "p"`))
	for s, want := range []bool{false, false, false} {
		if r.Sat[s] != want {
			t.Errorf("EG p at %d = %t", s, r.Sat[s])
		}
	}
	// Add a p self-loop at 0: now EG p holds at 0.
	k2 := kripke.New(3)
	k2.AddEdge(0, 0, "")
	k2.AddEdge(0, 1, "")
	k2.AddEdge(1, 2, "")
	k2.AddEdge(2, 2, "")
	k2.SetProp(0, "p")
	k2.SetProp(1, "p")
	r2 := Check(k2, ctl.MustParse(`EG "p"`))
	if !r2.Sat[0] || r2.Sat[1] || r2.Sat[2] {
		t.Errorf("EG p = %v", r2.Sat)
	}
}

// TestCounterexampleIsRealPath: every counterexample returned for a
// failing AG property must be a genuine path in the structure ending
// in a violating state.
func TestCounterexampleIsRealPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		k := randomStructure(rng, 2+rng.Intn(10))
		f := ctl.MustParse(`AG "p"`)
		r := Check(k, f)
		if r.Holds || len(r.Counterexample) == 0 {
			continue
		}
		path := r.Counterexample
		last := path[len(path)-1]
		if k.HasProp(last, "p") {
			t.Fatalf("trial %d: counterexample ends in a p-state", trial)
		}
		for i := 0; i+1 < len(path); i++ {
			ok := false
			for _, succ := range k.Succs[path[i]] {
				if succ == path[i+1] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("trial %d: counterexample step %d not an edge", trial, i)
			}
		}
	}
}
