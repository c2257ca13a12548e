package bdd

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Rename monotonicity (regression: an earlier map-based kernel silently
// produced a non-canonical BDD on crossing shift maps).

func TestRenameCrossingMappedLevelsPanics(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("crossing rename {0:3, 2:1} did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "not monotone") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	// 0→3 and 2→1 swap the order of the two mapped levels: the result
	// could not be reduced and ordered. InternShift must reject it.
	m.Rename(f, map[int]int{0: 3, 2: 1})
}

func TestRenameCrossingUnmappedLevelPanics(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(1))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("crossing rename {0:2} over x0∧x1 did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "not monotone") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	// The map {0:2} is monotone in isolation (one entry), but over a
	// BDD that also uses the unmapped level 1 it pushes level 0 past
	// level 1 — the per-node check in renameRec must catch it.
	m.Rename(f, map[int]int{0: 2})
}

func TestRenameOutOfRangePanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("rename image outside [0, nvars) did not panic")
		}
	}()
	m.Rename(m.Var(0), map[int]int{0: 5})
}

func TestRenameMonotoneStillWorks(t *testing.T) {
	m := New(6)
	f := m.Or(m.And(m.Var(0), m.Var(2)), m.NVar(4))
	g := m.Rename(f, map[int]int{0: 1, 2: 3, 4: 5})
	want := m.Or(m.And(m.Var(1), m.Var(3)), m.NVar(5))
	if g != want {
		t.Error("monotone rename produced a non-canonical result")
	}
}

// ---------------------------------------------------------------------------
// SatCount saturation (regression: the naive 2^n loop at high variable
// counts; pow2 must saturate to +Inf, not hang or overflow garbage).

func TestSatCountSaturatesAtHighVarCounts(t *testing.T) {
	const nvars = 1100
	m := New(nvars)
	if n := m.SatCount(True); !math.IsInf(n, 1) {
		t.Errorf("SatCount(true) over %d vars = %g, want +Inf", nvars, n)
	}
	if n := m.SatCount(m.Var(0)); !math.IsInf(n, 1) {
		t.Errorf("SatCount(x0) over %d vars = %g, want +Inf", nvars, n)
	}
	if n := m.SatCount(False); n != 0 {
		t.Errorf("SatCount(false) = %g, want 0", n)
	}
	// Constraining enough variables brings the count back into float64
	// range: 2^(1100-100) = 2^1000 is finite.
	f := True
	for v := 0; v < 100; v++ {
		f = m.And(f, m.Var(v))
	}
	if n := m.SatCount(f); n != math.Ldexp(1, 1000) {
		t.Errorf("SatCount(100-var conjunction) = %g, want 2^1000", n)
	}
}

// ---------------------------------------------------------------------------
// Unique-table rehash under adversarial load.

func TestRehashKeepsRefsCanonical(t *testing.T) {
	const bits = 14
	m := New(bits)
	minterm := func(i int) Ref {
		r := True
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r = m.And(r, m.Var(b))
			} else {
				r = m.And(r, m.NVar(b))
			}
		}
		return r
	}
	// Intern a few functions before any serious growth...
	early := []Ref{minterm(0), minterm(1), m.Xor(m.Var(0), m.Var(13))}
	// ...then force thousands of fresh nodes through mk so the unique
	// table rehashes several times over.
	refs := make([]Ref, 0, 2048)
	for i := 0; i < 2048; i++ {
		refs = append(refs, minterm(i))
	}
	st := m.Stats()
	if st.Rehashes < 3 {
		t.Fatalf("expected several rehashes under %d nodes, got %d", st.Nodes, st.Rehashes)
	}
	if st.UniqueLoad > 0.75 {
		t.Errorf("unique table above the 3/4 growth threshold: load %.2f", st.UniqueLoad)
	}
	if st.UniqueCapacity&(st.UniqueCapacity-1) != 0 {
		t.Errorf("unique capacity %d is not a power of two", st.UniqueCapacity)
	}
	// Canonicity must survive every rehash: rebuilding a function
	// interned before the growth returns the identical Ref.
	if minterm(0) != early[0] || minterm(1) != early[1] {
		t.Error("pre-rehash minterm refs no longer canonical")
	}
	if m.Xor(m.Var(0), m.Var(13)) != early[2] {
		t.Error("pre-rehash xor ref no longer canonical")
	}
	for i, r := range refs {
		if minterm(i) != r {
			t.Fatalf("minterm %d re-interned to a different ref after rehash", i)
		}
	}
	// And the functions still mean what they meant.
	assign := make([]bool, bits)
	for b := 0; b < bits; b++ {
		assign[b] = 5&(1<<b) != 0
	}
	if !m.Eval(minterm(5), assign) || m.Eval(minterm(6), assign) {
		t.Error("minterm semantics wrong after rehash")
	}
}

// TestComputedTableEviction drives the lossy direct-mapped tables
// through heavy collision traffic: results must stay correct when
// entries are overwritten, and re-running the same workload must
// reproduce identical canonical refs.
func TestComputedTableEviction(t *testing.T) {
	const bits = 10
	m := New(bits)
	rng := rand.New(rand.NewSource(42))
	build := func() []Ref {
		rng = rand.New(rand.NewSource(42))
		out := make([]Ref, 0, 512)
		pool := []Ref{True, False}
		for v := 0; v < bits; v++ {
			pool = append(pool, m.Var(v))
		}
		for i := 0; i < 512; i++ {
			f := pool[rng.Intn(len(pool))]
			g := pool[rng.Intn(len(pool))]
			h := pool[rng.Intn(len(pool))]
			r := m.Ite(f, g, h)
			pool = append(pool, r)
			out = append(out, r)
		}
		return out
	}
	first := build()
	st := m.Stats()
	if st.ITELookups == 0 {
		t.Fatal("no ITE computed-table traffic")
	}
	if st.ITEHits >= st.ITELookups {
		t.Fatalf("hit count %d not below lookup count %d", st.ITEHits, st.ITELookups)
	}
	second := build()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d: lossy computed table broke canonicity (%d vs %d)", i, first[i], second[i])
		}
	}
	// Spot-check semantics against Eval on full random assignments.
	for trial := 0; trial < 64; trial++ {
		assign := make([]bool, bits)
		for b := range assign {
			assign[b] = rng.Intn(2) == 1
		}
		r := first[rng.Intn(len(first))]
		got := m.Eval(r, assign)
		// Recompute through fresh operations (cache state now differs).
		if m.Eval(r, assign) != got {
			t.Fatal("Eval not deterministic")
		}
	}
}

// ---------------------------------------------------------------------------
// Reference semantics: every kernel operation against brute-force truth
// tables over all 2^8 assignments.

const ttBits = 8

// truthTable holds a function's value under every assignment; index
// bit b is variable b's value.
type truthTable [1 << ttBits]bool

// tt tabulates f over every assignment.
func tt(f func(a int) bool) (t truthTable) {
	for a := range t {
		t[a] = f(a)
	}
	return t
}

// ttExists quantifies the variables in mask out of x.
func ttExists(x truthTable, mask int) (t truthTable) {
	for a := range t {
		base := a &^ mask
		// Enumerate every assignment to the masked variables.
		for sub := mask; ; sub = (sub - 1) & mask {
			if x[base|sub] {
				t[a] = true
				break
			}
			if sub == 0 {
				break
			}
		}
	}
	return t
}

// ttShiftUp renames each variable in mask to the next level up: the
// result reads variable v+1 where x read variable v. x must not depend
// on the target levels.
func ttShiftUp(x truthTable, mask int) (t truthTable) {
	for a := range t {
		src := 0
		for v := 0; v < ttBits; v++ {
			if mask&(1<<v) != 0 && a&(1<<(v+1)) != 0 {
				src |= 1 << v
			}
		}
		t[a] = x[src]
	}
	return t
}

func (t *truthTable) count() float64 {
	n := 0
	for _, b := range t {
		if b {
			n++
		}
	}
	return float64(n)
}

// checkAgainstTable requires r to evaluate to the table under every
// assignment and SatCount(r) to equal the table's popcount.
func checkAgainstTable(t *testing.T, m *Manager, what string, r Ref, want *truthTable) {
	t.Helper()
	assign := make([]bool, ttBits)
	for a := range want {
		for b := 0; b < ttBits; b++ {
			assign[b] = a&(1<<b) != 0
		}
		if m.Eval(r, assign) != want[a] {
			t.Fatalf("%s: Eval = %v under assignment %0*b, want %v", what, !want[a], ttBits, a, want[a])
		}
	}
	if got := m.SatCount(r); got != want.count() {
		t.Fatalf("%s: SatCount = %g, want %g", what, got, want.count())
	}
}

func TestManagerMatchesTruthTables(t *testing.T) {
	m := New(ttBits)
	rng := rand.New(rand.NewSource(7))

	type entry struct {
		r  Ref
		tt truthTable
	}
	pool := []entry{
		{True, tt(func(int) bool { return true })},
		{False, tt(func(int) bool { return false })},
	}
	for v := 0; v < ttBits; v++ {
		pool = append(pool, entry{m.Var(v), tt(func(a int) bool { return a&(1<<v) != 0 })})
	}
	pick := func() entry { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 400; i++ {
		a, b := pick(), pick()
		var e entry
		switch rng.Intn(6) {
		case 0:
			e = entry{m.And(a.r, b.r), tt(func(i int) bool { return a.tt[i] && b.tt[i] })}
		case 1:
			e = entry{m.Or(a.r, b.r), tt(func(i int) bool { return a.tt[i] || b.tt[i] })}
		case 2:
			e = entry{m.Xor(a.r, b.r), tt(func(i int) bool { return a.tt[i] != b.tt[i] })}
		case 3:
			e = entry{m.Not(a.r), tt(func(i int) bool { return !a.tt[i] })}
		case 4:
			e = entry{m.Implies(a.r, b.r), tt(func(i int) bool { return !a.tt[i] || b.tt[i] })}
		case 5:
			c := pick()
			e = entry{m.Ite(a.r, b.r, c.r), tt(func(i int) bool {
				if a.tt[i] {
					return b.tt[i]
				}
				return c.tt[i]
			})}
		}
		pool = append(pool, e)
	}
	for i, e := range pool {
		checkAgainstTable(t, m, fmt.Sprintf("pool[%d]", i), e.r, &e.tt)
	}

	// Quantification and (monotone) renaming on a sample of the pool.
	evens := map[int]bool{}
	odds := map[int]bool{}
	shift := map[int]int{}
	evenMask, oddMask := 0, 0
	for v := 0; v < ttBits; v += 2 {
		evens[v], odds[v+1] = true, true
		shift[v] = v + 1
		evenMask |= 1 << v
		oddMask |= 1 << (v + 1)
	}
	for i := 0; i < 50; i++ {
		p := pick()
		ex := ttExists(p.tt, evenMask)
		checkAgainstTable(t, m, fmt.Sprintf("sample %d: Exists", i), m.Exists(p.r, evens), &ex)

		q := pick()
		aex := ttExists(tt(func(i int) bool { return p.tt[i] && q.tt[i] }), evenMask)
		checkAgainstTable(t, m, fmt.Sprintf("sample %d: AndExists", i), m.AndExists(p.r, q.r, evens), &aex)

		// Renaming evens up by one is monotone only for BDDs not using
		// the odd levels; project them away first.
		proj := ttExists(p.tt, oddMask)
		checkAgainstTable(t, m, fmt.Sprintf("sample %d: Exists odds", i), m.Exists(p.r, odds), &proj)
		ren := ttShiftUp(proj, evenMask)
		checkAgainstTable(t, m, fmt.Sprintf("sample %d: Rename", i), m.Rename(m.Exists(p.r, odds), shift), &ren)
	}
}

// ---------------------------------------------------------------------------
// Interning and stats.

func TestInternHandlesAreContentBased(t *testing.T) {
	m := New(6)
	a := m.InternVarSet(map[int]bool{1: true, 3: true})
	b := m.InternVarSet(map[int]bool{3: true, 1: true, 5: false})
	if a != b {
		t.Error("equal variable sets interned to different handles")
	}
	c := m.InternVarSet(map[int]bool{1: true})
	if a == c {
		t.Error("distinct variable sets share a handle")
	}
	s1 := m.InternShift(map[int]int{0: 1, 2: 3})
	s2 := m.InternShift(map[int]int{2: 3, 0: 1})
	if s1 != s2 {
		t.Error("equal shift maps interned to different handles")
	}
}

func TestStatsCountersMoveAndOpCacheHits(t *testing.T) {
	m := New(8)
	f := m.Xor(m.Var(0), m.Var(2))
	vs := m.InternVarSet(map[int]bool{0: true})
	r1 := m.ExistsSet(f, vs)
	before := m.Stats()
	r2 := m.ExistsSet(f, vs)
	after := m.Stats()
	if r1 != r2 {
		t.Fatal("ExistsSet not deterministic")
	}
	if after.OpHits <= before.OpHits {
		t.Error("repeated ExistsSet on an interned cube did not hit the op cache")
	}
	if after.ITEHitRate < 0 || after.ITEHitRate > 1 || after.OpHitRate < 0 || after.OpHitRate > 1 {
		t.Error("hit rates out of [0,1]")
	}
	if after.Nodes != m.Size() {
		t.Error("Stats.Nodes disagrees with Size()")
	}
}
