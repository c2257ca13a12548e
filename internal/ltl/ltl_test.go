package ltl

import (
	"math/rand"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
)

func TestParseAndPrint(t *testing.T) {
	cases := []string{
		`G "p"`, `F "q"`, `X "p"`, `"p" U "q"`, `"p" R "q"`,
		`G ("p" -> F "q")`, `!(F "p")`, `true`, `false`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	for _, bad := range []string{``, `(`, `"unterminated`, `U "p"`, `G`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestNotNNF(t *testing.T) {
	// ¬G p = F ¬p = true U ¬p.
	f := Not(G(Prop{Name: "p"}))
	u, ok := f.(Until)
	if !ok {
		t.Fatalf("¬G p = %T", f)
	}
	if _, ok := u.R.(NProp); !ok {
		t.Errorf("¬G p = %s", f)
	}
	// Double negation restores the proposition.
	p := Prop{Name: "p"}
	if Not(Not(p)).String() != p.String() {
		t.Error("double negation")
	}
}

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

func TestGloballyOnChain(t *testing.T) {
	k := chain(3, map[int][]string{0: {"p"}, 1: {"p"}, 2: {"p"}})
	k.Init = []int{0}
	if r := Check(k, MustParse(`G "p"`)); !r.Holds {
		t.Errorf("G p should hold; cex = %v", r.Counterexample)
	}
	k2 := chain(3, map[int][]string{0: {"p"}, 2: {"p"}})
	k2.Init = []int{0}
	r := Check(k2, MustParse(`G "p"`))
	if r.Holds {
		t.Error("G p should fail")
	}
	if len(r.Counterexample) == 0 || r.Loop < 0 {
		t.Errorf("cex = %v loop=%d", r.Counterexample, r.Loop)
	}
}

func TestEventually(t *testing.T) {
	k := chain(3, map[int][]string{2: {"goal"}})
	k.Init = []int{0}
	if r := Check(k, MustParse(`F "goal"`)); !r.Holds {
		t.Error("F goal should hold on the chain")
	}
	// Branch to a goal-free loop: F goal fails.
	k2 := kripke.New(3)
	k2.Init = []int{0}
	k2.AddEdge(0, 1, "")
	k2.AddEdge(0, 2, "")
	k2.AddEdge(1, 1, "")
	k2.AddEdge(2, 2, "")
	k2.SetProp(1, "goal")
	r := Check(k2, MustParse(`F "goal"`))
	if r.Holds {
		t.Error("F goal should fail via the 0->2 path")
	}
	// The lasso must avoid goal forever.
	for _, s := range r.Counterexample {
		if k2.HasProp(s, "goal") {
			t.Errorf("counterexample visits goal: %v", r.Counterexample)
		}
	}
}

func TestNextSemantics(t *testing.T) {
	k := kripke.New(3)
	k.Init = []int{0}
	k.AddEdge(0, 1, "")
	k.AddEdge(0, 2, "")
	k.AddEdge(1, 1, "")
	k.AddEdge(2, 2, "")
	k.SetProp(1, "p")
	r := Check(k, MustParse(`X "p"`))
	if r.Holds {
		t.Error("X p should fail via successor 2")
	}
	k.SetProp(2, "p")
	if r := Check(k, MustParse(`X "p"`)); !r.Holds {
		t.Error("X p should hold when all successors satisfy p")
	}
}

func TestResponseProperty(t *testing.T) {
	// 0(req) -> 1 -> 2(ack) -> 0 : every request is eventually acked.
	k := kripke.New(3)
	k.Init = []int{0}
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 0, "")
	k.SetProp(0, "req")
	k.SetProp(2, "ack")
	if r := Check(k, MustParse(`G ("req" -> F "ack")`)); !r.Holds {
		t.Errorf("response property should hold; cex=%v", r.Counterexample)
	}
	// Add an escape to an ack-free loop after a request.
	k.AddEdge(0, 0, "")
	r := Check(k, MustParse(`G ("req" -> F "ack")`))
	if r.Holds {
		t.Error("self-looping on req forever violates the response property")
	}
}

func TestUntilRelease(t *testing.T) {
	k := chain(3, map[int][]string{0: {"a"}, 1: {"a"}, 2: {"b"}})
	k.Init = []int{0}
	if r := Check(k, MustParse(`"a" U "b"`)); !r.Holds {
		t.Error("a U b should hold")
	}
	// Release: b R a means a holds up to and including the first b.
	k2 := chain(3, map[int][]string{0: {"a"}, 1: {"a", "b"}, 2: {"a"}})
	k2.Init = []int{0}
	if r := Check(k2, MustParse(`"b" R "a"`)); !r.Holds {
		t.Errorf("b R a should hold; cex=%v", r.Counterexample)
	}
}

// TestAgreesWithCTLOnCommonFragment cross-checks the LTL engine
// against the explicit CTL engine on the fragment where the logics
// coincide for universal path quantification.
func TestAgreesWithCTLOnCommonFragment(t *testing.T) {
	pairs := []struct {
		ltl string
		ctl string
	}{
		{`G "p"`, `AG "p"`},
		{`F "p"`, `AF "p"`},
		{`X "p"`, `AX "p"`},
		{`"p" U "q"`, `A["p" U "q"]`},
		{`G ("p" -> F "q")`, `AG ("p" -> AF "q")`},
		{`G (F "q")`, `AG (AF "q")`},
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		k := kripke.New(n)
		for s := 0; s < n; s++ {
			m := 1 + rng.Intn(2)
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
		// Restrict to a single initial state to keep the comparison
		// crisp.
		k.Init = []int{rng.Intn(n)}
		for _, pair := range pairs {
			lr := Check(k, MustParse(pair.ltl))
			cr := modelcheck.Check(k, ctl.MustParse(pair.ctl))
			if lr.Holds != cr.Holds {
				t.Fatalf("trial %d: %s=%t but %s=%t", trial, pair.ltl, lr.Holds, pair.ctl, cr.Holds)
			}
		}
	}
}

// TestCounterexampleLassoValid: counterexample paths must be real
// paths with a valid loop-back edge.
func TestCounterexampleLassoValid(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		k := kripke.New(n)
		for s := 0; s < n; s++ {
			k.AddEdge(s, rng.Intn(n), "")
			if rng.Intn(2) == 0 {
				k.SetProp(s, "p")
			}
		}
		k.Init = []int{0}
		r := Check(k, MustParse(`G "p"`))
		if r.Holds {
			continue
		}
		path, loop := r.Counterexample, r.Loop
		if len(path) == 0 || loop < 0 || loop >= len(path) {
			t.Fatalf("trial %d: bad lasso %v loop=%d", trial, path, loop)
		}
		for i := 0; i+1 < len(path); i++ {
			if !hasEdge(k, path[i], path[i+1]) {
				t.Fatalf("trial %d: invalid step %d in %v", trial, i, path)
			}
		}
		if !hasEdge(k, path[len(path)-1], path[loop]) {
			t.Fatalf("trial %d: loop-back edge missing in %v loop=%d", trial, path, loop)
		}
	}
}

func hasEdge(k *kripke.Structure, a, b int) bool {
	for _, t := range k.Succs[a] {
		if t == b {
			return true
		}
	}
	return false
}

// TestLTLDistinguishesFG: A(FG p) is strictly weaker than AF AG p; on
// the classic example the LTL property holds while the CTL one fails.
func TestLTLDistinguishesFG(t *testing.T) {
	// s0 -> s0 (p), s0 -> s1 (¬p), s1 -> s2 (p), s2 -> s2 (p).
	k := kripke.New(3)
	k.Init = []int{0}
	k.AddEdge(0, 0, "")
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	k.SetProp(0, "p")
	k.SetProp(2, "p")
	lr := Check(k, MustParse(`F (G "p")`))
	if !lr.Holds {
		t.Errorf("FG p should hold on every path; cex=%v", lr.Counterexample)
	}
	cr := modelcheck.Check(k, ctl.MustParse(`AF (AG "p")`))
	if cr.Holds {
		t.Error("AF AG p should fail (branching-time is stronger here)")
	}
}
