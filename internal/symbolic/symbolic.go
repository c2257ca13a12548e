// Package symbolic is the BDD-based CTL model-checking engine — the
// analogue of NuSMV's BDD engine (paper §5). States are binary-encoded
// with interleaved current/next variables; the transition relation and
// proposition sets are BDDs; CTL operators are symbolic fixpoints
// using the relational product for preimages.
//
// The variable-set cube for next-state quantification and the
// current→next shift map are interned once at construction, so the
// preimage loop performs no per-iteration map allocation.
package symbolic

import (
	"github.com/soteria-analysis/soteria/internal/bdd"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/kripke"
)

// Engine holds the symbolic encoding of a Kripke structure.
type Engine struct {
	K     *kripke.Structure
	m     *bdd.Manager
	bits  int
	trans bdd.Ref
	init  bdd.Ref
	// curToNext / nextVars are the interned renaming and
	// quantification handles used by the preimage loop.
	curToNext bdd.Shift
	nextVars  bdd.VarSet
	// stateEnc caches the current-variable encoding of each state.
	stateEnc []bdd.Ref
	props    map[string]bdd.Ref
	// dom caches the BDD of valid state encodings (lazily built): the
	// formula evaluator consults it once per operator.
	dom    bdd.Ref
	hasDom bool
	b      *guard.Budget
}

// New encodes k symbolically. Current-state bit i is BDD variable 2i,
// next-state bit i is 2i+1 (interleaved ordering keeps the transition
// relation small).
func New(k *kripke.Structure) *Engine {
	return NewBudget(k, nil)
}

// NewBudget is New under a resource budget: BDD node allocation is
// charged against MaxBDDNodes and the encoding and fixpoint loops
// cooperatively check the wall-clock deadline. A nil budget disables
// all checks.
func NewBudget(k *kripke.Structure, b *guard.Budget) *Engine {
	bits := 1
	for (1 << bits) < k.N {
		bits++
	}
	e := &Engine{
		K: k, bits: bits, m: bdd.New(2 * bits),
		props: map[string]bdd.Ref{},
		b:     b,
	}
	e.m.SetBudget(b)
	curToNext := make(map[int]int, bits)
	nextVars := make(map[int]bool, bits)
	for i := 0; i < bits; i++ {
		curToNext[2*i] = 2*i + 1
		nextVars[2*i+1] = true
	}
	e.curToNext = e.m.InternShift(curToNext)
	e.nextVars = e.m.InternVarSet(nextVars)
	e.stateEnc = make([]bdd.Ref, k.N)
	for s := 0; s < k.N; s++ {
		e.stateEnc[s] = e.encode(s, false)
	}
	// Transition relation: OR over edges of cur(s) ∧ next(t).
	e.trans = bdd.False
	for s := 0; s < k.N; s++ {
		for _, t := range k.Succs[s] {
			e.trans = e.m.Or(e.trans, e.m.And(e.stateEnc[s], e.encode(t, true)))
		}
	}
	e.init = bdd.False
	for _, s := range k.Init {
		e.init = e.m.Or(e.init, e.stateEnc[s])
	}
	return e
}

// encode returns the minterm of state s over current (next=false) or
// next (next=true) variables.
func (e *Engine) encode(s int, next bool) bdd.Ref {
	r := bdd.True
	for i := 0; i < e.bits; i++ {
		v := 2 * i
		if next {
			v++
		}
		if s&(1<<i) != 0 {
			r = e.m.And(r, e.m.Var(v))
		} else {
			r = e.m.And(r, e.m.NVar(v))
		}
	}
	return r
}

// propSet returns the BDD of states labeled with p.
func (e *Engine) propSet(p string) bdd.Ref {
	if r, ok := e.props[p]; ok {
		return r
	}
	states := e.K.PropStates(p)
	r := bdd.False
	for s := 0; s < e.K.N; s++ {
		if states.Has(s) {
			r = e.m.Or(r, e.stateEnc[s])
		}
	}
	e.props[p] = r
	return r
}

// domain is the BDD of valid state encodings (indices < N), built once
// per engine.
func (e *Engine) domain() bdd.Ref {
	if e.hasDom {
		return e.dom
	}
	r := bdd.False
	for s := 0; s < e.K.N; s++ {
		r = e.m.Or(r, e.stateEnc[s])
	}
	e.dom, e.hasDom = r, true
	return r
}

// preimage computes EX(set): states with a successor in set.
func (e *Engine) preimage(set bdd.Ref) bdd.Ref {
	next := e.m.RenameShift(set, e.curToNext)
	return e.m.AndExistsSet(e.trans, next, e.nextVars)
}

// Result mirrors modelcheck.Result for the symbolic engine.
type Result struct {
	Formula ctl.Formula
	Holds   bool
	// Sat reports per-state satisfaction, decoded from the BDD.
	Sat []bool
}

// Check evaluates a CTL formula symbolically.
func (e *Engine) Check(f ctl.Formula) *Result {
	set := e.eval(f)
	res := &Result{Formula: f, Sat: make([]bool, e.K.N)}
	holds := e.m.Implies(e.init, set) == bdd.True
	res.Holds = holds
	for s := 0; s < e.K.N; s++ {
		res.Sat[s] = e.m.And(e.stateEnc[s], set) != bdd.False
	}
	return res
}

func (e *Engine) eval(f ctl.Formula) bdd.Ref {
	dom := e.domain()
	switch x := f.(type) {
	case ctl.TrueF:
		return dom
	case ctl.FalseF:
		return bdd.False
	case ctl.Prop:
		return e.propSet(x.Name)
	case ctl.Not:
		return e.m.And(dom, e.m.Not(e.eval(x.X)))
	case ctl.And:
		return e.m.And(e.eval(x.L), e.eval(x.R))
	case ctl.Or:
		return e.m.Or(e.eval(x.L), e.eval(x.R))
	case ctl.Implies:
		return e.m.And(dom, e.m.Implies(e.eval(x.L), e.eval(x.R)))
	case ctl.EX:
		return e.preimage(e.eval(x.X))
	case ctl.AX:
		return e.m.And(dom, e.m.Not(e.preimage(e.m.And(dom, e.m.Not(e.eval(x.X))))))
	case ctl.EF:
		return e.lfpEU(dom, e.eval(x.X))
	case ctl.AF:
		return e.m.And(dom, e.m.Not(e.gfpEG(e.m.And(dom, e.m.Not(e.eval(x.X))))))
	case ctl.EG:
		return e.gfpEG(e.eval(x.X))
	case ctl.AG:
		return e.m.And(dom, e.m.Not(e.lfpEU(dom, e.m.And(dom, e.m.Not(e.eval(x.X))))))
	case ctl.EU:
		return e.lfpEU(e.eval(x.A), e.eval(x.B))
	case ctl.AU:
		na := e.m.And(dom, e.m.Not(e.eval(x.A)))
		nb := e.m.And(dom, e.m.Not(e.eval(x.B)))
		eu := e.lfpEU(nb, e.m.And(na, nb))
		eg := e.gfpEG(nb)
		return e.m.And(dom, e.m.Not(e.m.Or(eu, eg)))
	}
	return bdd.False
}

// lfpEU computes E[a U b] as the least fixpoint Z = b ∨ (a ∧ EX Z).
func (e *Engine) lfpEU(a, b bdd.Ref) bdd.Ref {
	z := b
	for {
		e.b.Check("symbolic")
		nz := e.m.Or(b, e.m.And(a, e.preimage(z)))
		if nz == z {
			return z
		}
		z = nz
	}
}

// gfpEG computes EG a as the greatest fixpoint Z = a ∧ EX Z.
func (e *Engine) gfpEG(a bdd.Ref) bdd.Ref {
	z := a
	for {
		e.b.Check("symbolic")
		nz := e.m.And(a, e.preimage(z))
		if nz == z {
			return z
		}
		z = nz
	}
}

// NodeCount exposes the BDD manager size for benchmarks.
func (e *Engine) NodeCount() int { return e.m.Size() }

// KernelStats exposes the kernel's table counters (unique-table load,
// computed-table hit rates) for the -bdd-bench sweep.
func (e *Engine) KernelStats() bdd.Stats { return e.m.Stats() }
