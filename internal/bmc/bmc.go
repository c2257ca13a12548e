// Package bmc implements SAT-based bounded model checking of safety
// properties over Kripke structures: the analogue of NuSMV's
// BMC engine that the paper enables alongside BDDs for large models
// (§5, citing Biere et al.'s "Symbolic model checking without BDDs").
//
// The encoding is one-hot: boolean variable x(i,s) means "the system
// is in state s at step i". Exactly-one constraints per step, an
// initial-state clause, transition clauses x(i,s) → ∨_t x(i+1,t), and
// a target clause at the final step. Unrolling k from 0 upward finds a
// shortest counterexample to AG p, exactly like classical BMC.
package bmc

import (
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/sat"
)

// Result of a bounded check.
type Result struct {
	// Violated is true when a counterexample was found within the
	// bound.
	Violated bool
	// Path is the counterexample trace (when Violated).
	Path []int
	// Depth is the unrolling depth at which it was found, or the
	// bound when none was.
	Depth int
}

// CheckAGProp bounded-checks AG p where p is the set of states
// satisfying the property: it searches for a path of length ≤ bound
// from an initial state to a ¬p state.
func CheckAGProp(k *kripke.Structure, good func(s int) bool, bound int) *Result {
	return CheckAGPropBudget(k, good, bound, nil)
}

// CheckAGPropBudget is CheckAGProp under a resource budget: the
// deadline is checked before each unrolling depth and the underlying
// SAT solver charges conflicts against the budget. A nil budget
// disables all checks.
func CheckAGPropBudget(k *kripke.Structure, good func(s int) bool, bound int, b *guard.Budget) *Result {
	for depth := 0; depth <= bound; depth++ {
		b.Check("bmc")
		if path, found := pathToBad(k, good, depth, b); found {
			return &Result{Violated: true, Path: path, Depth: depth}
		}
	}
	return &Result{Depth: bound}
}

// CheckAG bounded-checks a CTL AG formula whose body is a boolean
// combination of propositions (no nested temporal operators) up to
// the given unrolling bound. As with any BMC, absence of a
// counterexample within the bound is not a proof; use the unbounded
// engines for that. A bound of k.N-1 is complete for reachability but
// costly on large models.
func CheckAG(k *kripke.Structure, f ctl.Formula, bound int) (*Result, bool) {
	return CheckAGBudget(k, f, bound, nil)
}

// CheckAGBudget is CheckAG under a resource budget.
func CheckAGBudget(k *kripke.Structure, f ctl.Formula, bound int, b *guard.Budget) (*Result, bool) {
	ag, ok := f.(ctl.AG)
	if !ok {
		return nil, false
	}
	good, ok := boolEval(k, ag.X)
	if !ok {
		return nil, false
	}
	return CheckAGPropBudget(k, good, bound, b), true
}

// CompletenessThreshold is the smallest bound at which a bounded AG
// check on k is complete: the largest shortest-path distance from an
// initial state to any reachable state. Every reachable bad state lies
// within that many steps of an initial state, so a search to this
// depth that finds no counterexample proves the property. It is at
// most k.N-1, and 0 when every state is initial.
func CompletenessThreshold(k *kripke.Structure) int {
	dist := make([]int, k.N)
	for s := range dist {
		dist[s] = -1
	}
	queue := make([]int, 0, k.N)
	for _, s := range k.Init {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	depth := 0
	for i := 0; i < len(queue); i++ {
		s := queue[i]
		depth = dist[s]
		for _, t := range k.Succs[s] {
			if dist[t] < 0 {
				dist[t] = dist[s] + 1
				queue = append(queue, t)
			}
		}
	}
	return depth
}

// boolEval compiles a propositional (non-temporal) formula into a
// per-state evaluator over k, looking each proposition up once.
func boolEval(k *kripke.Structure, f ctl.Formula) (func(int) bool, bool) {
	switch x := f.(type) {
	case ctl.Prop:
		return k.PropStates(x.Name).Has, true
	case ctl.TrueF:
		return func(int) bool { return true }, true
	case ctl.FalseF:
		return func(int) bool { return false }, true
	case ctl.Not:
		in, ok := boolEval(k, x.X)
		if !ok {
			return nil, false
		}
		return func(s int) bool { return !in(s) }, true
	case ctl.And:
		l, ok1 := boolEval(k, x.L)
		r, ok2 := boolEval(k, x.R)
		if !ok1 || !ok2 {
			return nil, false
		}
		return func(s int) bool { return l(s) && r(s) }, true
	case ctl.Or:
		l, ok1 := boolEval(k, x.L)
		r, ok2 := boolEval(k, x.R)
		if !ok1 || !ok2 {
			return nil, false
		}
		return func(s int) bool { return l(s) || r(s) }, true
	case ctl.Implies:
		l, ok1 := boolEval(k, x.L)
		r, ok2 := boolEval(k, x.R)
		if !ok1 || !ok2 {
			return nil, false
		}
		return func(s int) bool { return !l(s) || r(s) }, true
	}
	return nil, false
}

// pathToBad encodes "∃ path s_0..s_depth with s_0 initial, each step a
// transition, s_depth bad" into CNF and solves it.
func pathToBad(k *kripke.Structure, good func(int) bool, depth int, b *guard.Budget) ([]int, bool) {
	n := k.N
	// Variable x(i,s) = i*n + s + 1.
	v := func(i, s int) sat.Lit { return sat.Lit(i*n + s + 1) }
	f := sat.NewFormula((depth + 1) * n)

	for i := 0; i <= depth; i++ {
		// At least one state per step.
		var all []sat.Lit
		for s := 0; s < n; s++ {
			all = append(all, v(i, s))
		}
		f.Add(all...)
		// At most one state per step.
		for s1 := 0; s1 < n; s1++ {
			b.Tick("bmc")
			for s2 := s1 + 1; s2 < n; s2++ {
				f.Add(-v(i, s1), -v(i, s2))
			}
		}
	}
	// Initial states.
	var init []sat.Lit
	for _, s := range k.Init {
		init = append(init, v(0, s))
	}
	f.Add(init...)
	// Transitions.
	for i := 0; i < depth; i++ {
		for s := 0; s < n; s++ {
			lits := []sat.Lit{-v(i, s)}
			for _, t := range k.Succs[s] {
				lits = append(lits, v(i+1, t))
			}
			f.Add(lits...)
		}
	}
	// Bad state at the last step.
	var bad []sat.Lit
	for s := 0; s < n; s++ {
		if !good(s) {
			bad = append(bad, v(depth, s))
		}
	}
	if len(bad) == 0 {
		return nil, false
	}
	f.Add(bad...)

	model, ok := sat.SolveBudget(f, b)
	if !ok {
		return nil, false
	}
	path := make([]int, depth+1)
	for i := 0; i <= depth; i++ {
		for s := 0; s < n; s++ {
			if model.Value(v(i, s)) {
				path[i] = s
				break
			}
		}
	}
	return path, true
}
