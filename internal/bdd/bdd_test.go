package bdd

import (
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New(2)
	if m.Not(True) != False || m.Not(False) != True {
		t.Error("Not on terminals")
	}
	if m.And(True, False) != False || m.Or(False, True) != True {
		t.Error("And/Or on terminals")
	}
}

func TestVarSemantics(t *testing.T) {
	m := New(3)
	x := m.Var(0)
	if !m.Eval(x, []bool{true, false, false}) || m.Eval(x, []bool{false, true, true}) {
		t.Error("Var eval wrong")
	}
	nx := m.NVar(0)
	if m.Eval(nx, []bool{true, false, false}) {
		t.Error("NVar eval wrong")
	}
	if m.Not(x) != nx {
		t.Error("Not(Var) should be canonical with NVar")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(3)
	x, y := m.Var(0), m.Var(1)
	a := m.And(x, y)
	b := m.Not(m.Or(m.Not(x), m.Not(y))) // De Morgan
	if a != b {
		t.Error("equivalent formulas must share a node")
	}
	if m.And(x, m.Not(x)) != False {
		t.Error("x ∧ ¬x must be False")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Error("x ∨ ¬x must be True")
	}
}

// Property: And/Or/Xor agree with boolean evaluation on random
// assignments of 4 variables.
func TestOpsAgainstEval(t *testing.T) {
	m := New(4)
	x := []Ref{m.Var(0), m.Var(1), m.Var(2), m.Var(3)}
	f := m.Or(m.And(x[0], x[1]), m.Xor(x[2], x[3]))
	check := func(a, b, c, d bool) bool {
		got := m.Eval(f, []bool{a, b, c, d})
		expect := (a && b) || (c != d)
		return got == expect
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestImplies(t *testing.T) {
	m := New(2)
	x, y := m.Var(0), m.Var(1)
	f := m.Implies(x, y)
	cases := []struct {
		a, b bool
		want bool
	}{
		{false, false, true}, {false, true, true}, {true, false, false}, {true, true, true},
	}
	for _, c := range cases {
		if got := m.Eval(f, []bool{c.a, c.b}); got != c.want {
			t.Errorf("(%t -> %t) = %t", c.a, c.b, got)
		}
	}
}

func TestExists(t *testing.T) {
	m := New(2)
	x, y := m.Var(0), m.Var(1)
	f := m.And(x, y)
	g := m.Exists(f, map[int]bool{0: true})
	if g != y {
		t.Error("∃x. x∧y should be y")
	}
	h := m.Exists(f, map[int]bool{0: true, 1: true})
	if h != True {
		t.Error("∃x,y. x∧y should be true")
	}
	if m.Exists(False, map[int]bool{0: true}) != False {
		t.Error("∃x. false should be false")
	}
}

func TestAndExistsMatchesComposition(t *testing.T) {
	m := New(4)
	x0, x1, x2, x3 := m.Var(0), m.Var(1), m.Var(2), m.Var(3)
	f := m.Or(m.And(x0, x1), x2)
	g := m.Or(m.And(x1, x3), m.Not(x0))
	vars := map[int]bool{1: true, 3: true}
	direct := m.Exists(m.And(f, g), vars)
	fused := m.AndExists(f, g, vars)
	if direct != fused {
		t.Error("AndExists disagrees with Exists∘And")
	}
}

func TestRename(t *testing.T) {
	m := New(4)
	x0 := m.Var(0)
	f := m.And(x0, m.Var(2))
	g := m.Rename(f, map[int]int{0: 1, 2: 3})
	want := m.And(m.Var(1), m.Var(3))
	if g != want {
		t.Error("rename failed")
	}
}

func TestSatCount(t *testing.T) {
	m := New(3)
	x, y := m.Var(0), m.Var(1)
	if n := m.SatCount(True); n != 8 {
		t.Errorf("SatCount(true) = %g", n)
	}
	if n := m.SatCount(x); n != 4 {
		t.Errorf("SatCount(x) = %g", n)
	}
	if n := m.SatCount(m.And(x, y)); n != 2 {
		t.Errorf("SatCount(x∧y) = %g", n)
	}
	if n := m.SatCount(False); n != 0 {
		t.Errorf("SatCount(false) = %g", n)
	}
}

func TestSharingKeepsSizeSmall(t *testing.T) {
	// n-bit parity has linear BDD size; a naive representation is
	// exponential.
	m := New(16)
	f := False
	for i := 0; i < 16; i++ {
		f = m.Xor(f, m.Var(i))
	}
	// Size counts every allocated node, including intermediates of the
	// left-to-right fold; it must stay far below the 2^16 worst case.
	if m.Size() > 600 {
		t.Errorf("parity BDD size = %d, expected linear", m.Size())
	}
	if n := m.SatCount(f); n != 32768 { // half of 2^16
		t.Errorf("parity SatCount = %g", n)
	}
}

// Property: double negation is the identity on refs.
func TestDoubleNegation(t *testing.T) {
	m := New(5)
	f := m.Or(m.And(m.Var(0), m.Var(3)), m.Xor(m.Var(1), m.Var(4)))
	if m.Not(m.Not(f)) != f {
		t.Error("¬¬f != f")
	}
}
