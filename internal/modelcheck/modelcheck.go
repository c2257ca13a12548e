// Package modelcheck is Soteria's explicit-state CTL model checker —
// the reference engine of the NuSMV-replacement substrate. It decides
// CTL formulas by the standard fixpoint labeling algorithm (Clarke,
// Grumberg, Peled: Model Checking) and produces counterexamples for
// failed universal properties and witnesses for satisfied existential
// ones.
package modelcheck

import (
	"fmt"
	"sync"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/kripke"
)

// Result is the outcome of checking one formula.
type Result struct {
	Formula ctl.Formula
	// Sat[s] reports whether the formula holds in state s.
	Sat []bool
	// Holds is true when the formula holds in every initial state.
	Holds bool
	// FailingStates lists the initial states violating the formula.
	FailingStates []int
	// Counterexample, when non-nil, is a path demonstrating the
	// violation (for AG/AF/AX-shaped properties) or a witness for the
	// negation; the last element is the offending state. The
	// CounterexampleLoop index, when ≥ 0, marks where the path's
	// lasso loops back to.
	Counterexample     []int
	CounterexampleLoop int
}

// Check evaluates f over k.
func Check(k *kripke.Structure, f ctl.Formula) *Result {
	return CheckBudget(k, f, nil)
}

// CheckBudget is Check under a resource budget: the fixpoint loops
// cooperatively check the wall-clock deadline and panic with a
// *guard.BudgetError on exhaustion (converted to an error by the
// enclosing recovery boundary). A nil budget disables all checks.
func CheckBudget(k *kripke.Structure, f ctl.Formula, b *guard.Budget) *Result {
	return CheckMemoBudget(k, f, b, nil)
}

// Memo caches subformula satisfaction sets across Check calls on one
// Kripke structure. The property catalogue's 35 formulas share many
// subterms (the S.1–S.5 bodies especially), so a sweep passing one
// Memo to every CheckMemoBudget call computes each distinct subformula
// once. Entries are keyed by the formula's rendered hash (String()),
// so a Memo is bound to the structure it was first used with — never
// share one across different Kripke structures. Safe for concurrent
// use; the cached []bool sets are shared and must be treated as
// read-only.
type Memo struct {
	mu      sync.Mutex
	sat     map[string][]bool
	lookups uint64
	hits    uint64
}

// NewMemo creates an empty cross-formula memo.
func NewMemo() *Memo {
	return &Memo{sat: map[string][]bool{}}
}

// get is nil-safe: a nil Memo never hits.
func (mm *Memo) get(key string) ([]bool, bool) {
	if mm == nil {
		return nil, false
	}
	mm.mu.Lock()
	v, ok := mm.sat[key]
	mm.lookups++
	if ok {
		mm.hits++
	}
	mm.mu.Unlock()
	return v, ok
}

// put is nil-safe: a nil Memo drops the entry.
func (mm *Memo) put(key string, v []bool) {
	if mm == nil {
		return
	}
	mm.mu.Lock()
	mm.sat[key] = v
	mm.mu.Unlock()
}

// Size reports the number of memoized subformulas.
func (mm *Memo) Size() int {
	if mm == nil {
		return 0
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.sat)
}

// MemoStats are a Memo's cumulative lookup counters.
type MemoStats struct {
	// Lookups counts cross-call probes (one per subformula evaluation
	// that missed the checker's per-call cache).
	Lookups uint64
	// Hits counts probes answered from the memo.
	Hits uint64
	// Entries is the number of memoized subformula sets.
	Entries int
}

// HitRate is Hits/Lookups (0 when no lookups happened).
func (s MemoStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Stats snapshots the memo's counters (zero for nil). The daemon
// aggregates these onto /metrics and the tracer attaches them to each
// sweep's span.
func (mm *Memo) Stats() MemoStats {
	if mm == nil {
		return MemoStats{}
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return MemoStats{Lookups: mm.lookups, Hits: mm.hits, Entries: len(mm.sat)}
}

// CheckMemoBudget is CheckBudget with a cross-call subformula memo
// (nil memo = no cross-call sharing). The returned Result's Sat slices
// may alias memo entries; treat them as read-only.
func CheckMemoBudget(k *kripke.Structure, f ctl.Formula, b *guard.Budget, memo *Memo) *Result {
	c := &checker{k: k, cache: map[string][]bool{}, b: b, memo: memo}
	sat := c.eval(f)
	res := &Result{Formula: f, Sat: sat, Holds: true, CounterexampleLoop: -1}
	for _, s := range k.Init {
		if !sat[s] {
			res.Holds = false
			res.FailingStates = append(res.FailingStates, s)
		}
	}
	if !res.Holds {
		res.Counterexample, res.CounterexampleLoop = c.counterexample(f, res.FailingStates[0])
	}
	return res
}

type checker struct {
	k     *kripke.Structure
	cache map[string][]bool
	b     *guard.Budget
	// memo, when non-nil, shares subformula results across Check calls
	// (one sweep's worth of formulas over the same structure).
	memo *Memo
}

func (c *checker) eval(f ctl.Formula) []bool {
	key := f.String()
	if v, ok := c.cache[key]; ok {
		return v
	}
	if v, ok := c.memo.get(key); ok {
		c.cache[key] = v
		return v
	}
	c.b.Check("modelcheck")
	var out []bool
	switch x := f.(type) {
	case ctl.TrueF:
		out = c.constSet(true)
	case ctl.FalseF:
		out = c.constSet(false)
	case ctl.Prop:
		states := c.k.PropStates(x.Name)
		out = make([]bool, c.k.N)
		for s := 0; s < c.k.N; s++ {
			out[s] = states.Has(s)
		}
	case ctl.Not:
		in := c.eval(x.X)
		out = make([]bool, c.k.N)
		for s := range in {
			out[s] = !in[s]
		}
	case ctl.And:
		l, r := c.eval(x.L), c.eval(x.R)
		out = make([]bool, c.k.N)
		for s := range l {
			out[s] = l[s] && r[s]
		}
	case ctl.Or:
		l, r := c.eval(x.L), c.eval(x.R)
		out = make([]bool, c.k.N)
		for s := range l {
			out[s] = l[s] || r[s]
		}
	case ctl.Implies:
		l, r := c.eval(x.L), c.eval(x.R)
		out = make([]bool, c.k.N)
		for s := range l {
			out[s] = !l[s] || r[s]
		}
	case ctl.EX:
		out = c.ex(c.eval(x.X))
	case ctl.AX:
		// AX f = !EX !f
		in := c.eval(x.X)
		neg := negate(in)
		exn := c.ex(neg)
		out = negate(exn)
	case ctl.EF:
		// EF f = E[true U f]
		out = c.eu(c.constSet(true), c.eval(x.X))
	case ctl.AF:
		// AF f = !EG !f
		out = negate(c.eg(negate(c.eval(x.X))))
	case ctl.EG:
		out = c.eg(c.eval(x.X))
	case ctl.AG:
		// AG f = !EF !f
		out = negate(c.eu(c.constSet(true), negate(c.eval(x.X))))
	case ctl.EU:
		out = c.eu(c.eval(x.A), c.eval(x.B))
	case ctl.AU:
		// A[a U b] = !(E[!b U (!a & !b)] | EG !b)
		na, nb := negate(c.eval(x.A)), negate(c.eval(x.B))
		both := make([]bool, c.k.N)
		for s := range na {
			both[s] = na[s] && nb[s]
		}
		eu := c.eu(nb, both)
		eg := c.eg(nb)
		out = make([]bool, c.k.N)
		for s := range eu {
			out[s] = !(eu[s] || eg[s])
		}
	default:
		panic(fmt.Sprintf("modelcheck: unknown formula %T", f))
	}
	c.cache[key] = out
	c.memo.put(key, out)
	return out
}

func (c *checker) constSet(v bool) []bool {
	out := make([]bool, c.k.N)
	for s := range out {
		out[s] = v
	}
	return out
}

func negate(in []bool) []bool {
	out := make([]bool, len(in))
	for i, v := range in {
		out[i] = !v
	}
	return out
}

// ex computes the preimage: states with a successor in sat.
func (c *checker) ex(sat []bool) []bool {
	out := make([]bool, c.k.N)
	for s := 0; s < c.k.N; s++ {
		c.b.Tick("modelcheck")
		for _, t := range c.k.Succs[s] {
			if sat[t] {
				out[s] = true
				break
			}
		}
	}
	return out
}

// eu computes E[a U b] by least fixpoint (backward reachability).
func (c *checker) eu(a, b []bool) []bool {
	out := make([]bool, c.k.N)
	var queue []int
	for s := range b {
		if b[s] {
			out[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		c.b.Tick("modelcheck")
		t := queue[0]
		queue = queue[1:]
		for _, s := range c.k.Preds[t] {
			if !out[s] && a[s] {
				out[s] = true
				queue = append(queue, s)
			}
		}
	}
	return out
}

// eg computes EG a by greatest fixpoint: restrict to a-states, keep
// those with a successor still in the set.
func (c *checker) eg(a []bool) []bool {
	out := make([]bool, c.k.N)
	copy(out, a)
	for {
		changed := false
		for s := 0; s < c.k.N; s++ {
			c.b.Tick("modelcheck")
			if !out[s] {
				continue
			}
			ok := false
			for _, t := range c.k.Succs[s] {
				if out[t] {
					ok = true
					break
				}
			}
			if !ok {
				out[s] = false
				changed = true
			}
		}
		if !changed {
			return out
		}
	}
}

// ---------------------------------------------------------------------------
// Counterexamples

// counterexample produces an explanatory path for a failed formula at
// state s. It handles the universal shapes Soteria's properties use:
//
//	AG p   — path from s to a ¬p state,
//	AF p   — lasso from s staying in ¬p (EG ¬p witness),
//	AX p   — s plus a ¬p successor,
//	p -> q — counterexample of q at s (when p holds),
//
// and falls back to the single offending state otherwise. The second
// return is the lasso loop-back index, or -1.
func (c *checker) counterexample(f ctl.Formula, s int) ([]int, int) {
	switch x := f.(type) {
	case ctl.AG:
		bad := negate(c.eval(x.X))
		return c.shortestPathTo(s, bad), -1
	case ctl.AF:
		return c.egWitness(negate(c.eval(x.X)), s)
	case ctl.AX:
		bad := negate(c.eval(x.X))
		for _, t := range c.k.Succs[s] {
			if bad[t] {
				return []int{s, t}, -1
			}
		}
	case ctl.Implies:
		if c.eval(x.L)[s] {
			return c.counterexample(x.R, s)
		}
	case ctl.And:
		if !c.eval(x.L)[s] {
			return c.counterexample(x.L, s)
		}
		return c.counterexample(x.R, s)
	}
	return []int{s}, -1
}

// shortestPathTo finds a BFS path from s to any state in target.
func (c *checker) shortestPathTo(s int, target []bool) []int {
	if target[s] {
		return []int{s}
	}
	prev := make([]int, c.k.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[s] = s
	queue := []int{s}
	for len(queue) > 0 {
		c.b.Tick("modelcheck")
		u := queue[0]
		queue = queue[1:]
		for _, v := range c.k.Succs[u] {
			if prev[v] != -1 {
				continue
			}
			prev[v] = u
			if target[v] {
				var rev []int
				for x := v; x != s; x = prev[x] {
					rev = append(rev, x)
				}
				rev = append(rev, s)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, v)
		}
	}
	return []int{s}
}

// egWitness builds a lasso inside the EG set starting at s: a path
// leading to a cycle all of whose states satisfy the (negated)
// property.
func (c *checker) egWitness(a []bool, s int) ([]int, int) {
	set := c.eg(a)
	if !set[s] {
		return []int{s}, -1
	}
	var path []int
	pos := map[int]int{}
	cur := s
	for {
		c.b.Tick("modelcheck")
		if at, seen := pos[cur]; seen {
			return path, at
		}
		pos[cur] = len(path)
		path = append(path, cur)
		next := -1
		for _, t := range c.k.Succs[cur] {
			if set[t] {
				next = t
				break
			}
		}
		if next < 0 {
			return path, -1
		}
		cur = next
	}
}
