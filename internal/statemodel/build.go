package statemodel

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/soteria-analysis/soteria/internal/capability"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/symexec"
)

// Options tune model extraction; the zero value is the paper's full
// algorithm.
type Options struct {
	// EventOnlyLabels reproduces the paper's earlier, imprecise
	// design (§4.2): transition labels carry only events, dropping the
	// predicates that guard state changes. Used by the ablation
	// benchmark to measure the spurious nondeterminism and false
	// positives predicate labels eliminate.
	EventOnlyLabels bool
}

// Build extracts the state model of one or more apps. For a single
// app this is §4.2's per-app extraction; for several it produces the
// union model of the multi-app environment directly over the merged
// variable set (equivalent to Algorithm 2's union of the individual
// models; see Union for the structural algorithm itself).
func Build(apps ...*ir.App) (*Model, error) {
	return BuildOpt(Options{}, apps...)
}

// BuildOpt is Build with explicit options.
func BuildOpt(opt Options, apps ...*ir.App) (*Model, error) {
	return BuildBudget(nil, opt, apps...)
}

// BuildBudget is BuildOpt under a resource budget: state enumeration
// is charged against MaxStates and the extraction loops cooperatively
// check the wall-clock deadline. Exhaustion panics with a
// *guard.BudgetError for the enclosing recovery boundary; a nil
// budget disables all checks.
func BuildBudget(b *guard.Budget, opt Options, apps ...*ir.App) (*Model, error) {
	m := &Model{
		varIdx: map[string]int{},
		opt:    opt,
		budget: b,
	}
	for _, app := range apps {
		am := &AppModel{App: app, HandleCap: map[string]string{}}
		for _, p := range app.Devices() {
			if p.Cap != nil {
				am.HandleCap[p.Handle] = p.Cap.Name
			}
		}
		am.Results = symexec.ExecuteAll(app)
		m.Apps = append(m.Apps, am)
	}

	m.collectVars()
	if err := m.enumerateStates(); err != nil {
		return m, err
	}
	m.deriveTransitions()
	m.detectNondeterminism()
	return m, nil
}

// ---------------------------------------------------------------------------
// Variable collection and property abstraction

// varSpec accumulates information about a prospective model variable.
type varSpec struct {
	cap        *capability.Capability
	attr       *capability.Attribute
	handles    map[string]bool
	extraVals  map[string]bool          // enum values written beyond the capability domain
	predAtoms  []pathcond.Atom          // abstraction predicates (canonical var names)
	writtenEqs map[string]pathcond.Atom // equality atoms for written numeric values
}

func (m *Model) collectVars() {
	specs := map[string]*varSpec{}
	spec := func(capName, attrName string) *varSpec {
		key := varKeyFor(capName, attrName)
		if s, ok := specs[key]; ok {
			return s
		}
		c, ok := capability.Lookup(capName)
		if !ok {
			return nil
		}
		a, ok := c.Attribute(attrName)
		if !ok {
			return nil
		}
		s := &varSpec{
			cap: c, attr: a,
			handles:    map[string]bool{},
			extraVals:  map[string]bool{},
			writtenEqs: map[string]pathcond.Atom{},
		}
		specs[key] = s
		return s
	}

	for _, am := range m.Apps {
		app := am.App
		// Every attribute of every granted device is part of the state
		// (the paper's state space is the product of the devices'
		// attributes).
		for _, p := range app.Devices() {
			if p.Cap == nil {
				continue
			}
			for _, a := range p.Cap.Attributes {
				if a.Kind == capability.Text {
					continue
				}
				if s := spec(p.Cap.Name, a.Name); s != nil {
					s.handles[p.Handle] = true
				}
			}
		}
		// The abstract location mode becomes a variable when the app
		// subscribes to mode events or changes the mode.
		usesMode := app.SubscribesToMode()
		for _, r := range am.Results {
			for _, path := range r.Paths {
				for _, act := range path.Actions {
					if act.Cap == "location" {
						usesMode = true
					}
				}
			}
		}
		if usesMode {
			spec("location", "mode")
		}

		// Collect abstraction predicates and written values.
		for _, r := range am.Results {
			trigKey := m.triggerKey(app, r.Entry.Sub)
			for _, path := range r.Paths {
				for _, atom := range path.Guard.Atoms {
					key, ok := canonicalAtomVar(app, atom.Var)
					if !ok {
						// evt.value atoms constrain the triggering
						// attribute.
						if atom.Var == "evt.value" && trigKey != "" {
							key = trigKey
						} else {
							continue
						}
					}
					s := specs[key]
					if s == nil || s.attr.Kind != capability.Numeric {
						continue
					}
					na := atom
					na.Var = key
					s.predAtoms = append(s.predAtoms, na)
				}
				for _, act := range path.Actions {
					key := varKeyFor(act.Cap, act.Attr)
					s := specs[key]
					if s == nil {
						s = spec(act.Cap, act.Attr)
						if s == nil {
							continue
						}
					}
					if act.Handle != "location" {
						s.handles[act.Handle] = true
					}
					if s.attr.Kind == capability.Numeric {
						eq := pathcond.Atom{Var: key, Op: pathcond.EQ}
						if n, err := strconv.ParseFloat(act.Value, 64); err == nil {
							eq.IsNum = true
							eq.Num = n
						} else {
							eq.RHSVar = act.Value
						}
						s.writtenEqs[eq.String()] = eq
					} else if !s.attr.HasValue(act.Value) && !act.Symbolic {
						s.extraVals[act.Value] = true
					}
				}
			}
			// Subscription values ("mode.away") extend enum domains.
			if sub := r.Entry.Sub; sub.Value != "" && trigKey != "" {
				if s := specs[trigKey]; s != nil && s.attr.Kind == capability.Enum && !s.attr.HasValue(sub.Value) {
					s.extraVals[sub.Value] = true
				}
			}
		}
	}

	// Materialise variables in deterministic order.
	before := 1
	for _, key := range sortedKeys(specs) {
		s := specs[key]
		v := &Var{
			Key: key, Cap: s.cap.Name, Attr: s.attr.Name,
			Handles: sortedKeys(s.handles),
		}
		switch s.attr.Kind {
		case capability.Enum:
			v.Values = append(v.Values, s.attr.Values...)
			for _, ev := range sortedKeys(s.extraVals) {
				v.Values = append(v.Values, ev)
			}
			before *= len(v.Values)
		case capability.Numeric:
			v.Numeric = true
			atoms := append([]pathcond.Atom{}, s.predAtoms...)
			for _, k := range sortedKeys(s.writtenEqs) {
				atoms = append(atoms, s.writtenEqs[k])
			}
			v.Values, v.ValueConds = abstractDomain(key, atoms)
			if before < maxStates {
				before *= numericLevels
			}
		}
		m.varIdx[v.Key] = len(m.Vars)
		m.Vars = append(m.Vars, v)
	}
	m.StatesBeforeReduction = before
}

// triggerKey returns the model variable key of a subscription's
// triggering attribute ("" for label-only events).
func (m *Model) triggerKey(app *ir.App, sub ir.Subscription) string {
	switch sub.Kind {
	case ir.ModeEvent:
		return "location.mode"
	case ir.AppTouchEvent, ir.TimerEvent:
		return ""
	}
	p, ok := app.PermissionByHandle(sub.Handle)
	if !ok || p.Cap == nil {
		return ""
	}
	attr := sub.Attr
	if attr == "" || func() bool { _, has := p.Cap.Attribute(attr); return !has }() {
		if pa := p.Cap.PrimaryAttribute(); pa != nil {
			attr = pa.Name
		}
	}
	return varKeyFor(p.Cap.Name, attr)
}

// ---------------------------------------------------------------------------
// State enumeration

func (m *Model) enumerateStates() error {
	total := 1
	for _, v := range m.Vars {
		total *= len(v.Values)
		if total > maxStates {
			return fmt.Errorf("state space exceeds %d states", maxStates)
		}
	}
	// Charge the whole product against the budget before materialising
	// it, so a too-large model aborts in O(vars) rather than O(states).
	m.budget.States(total, "statemodel.enumerate")
	if err := m.initPacking(total); err != nil {
		return err
	}
	// Packed keys run through the product in lexicographic order (last
	// variable fastest), so state k is the one with packed key k. All
	// index vectors share one backing array.
	n := len(m.Vars)
	backing := make([]int, total*n)
	m.States = make([]State, 0, total)
	m.stateKeys = make([]uint64, 0, total)
	for k := 0; k < total; k++ {
		m.budget.Tick("statemodel.enumerate")
		idx := backing[k*n : (k+1)*n : (k+1)*n]
		m.unpack(uint64(k), idx)
		m.addState(uint64(k), idx)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Transition derivation
//
// Work that does not depend on the source state is done once: per path
// (guard atom tables, action targets, the actions signature) and per
// (path, event) (evt.value atoms, the trigger's value, residual guards
// and their labels). The per-state loop only indexes tables and adds
// packed-key offsets.

func (m *Model) deriveTransitions() {
	es := newEdgeSet()
	for ai, am := range m.Apps {
		for _, r := range am.Results {
			trigKey := m.triggerKey(am.App, r.Entry.Sub)
			for _, path := range r.Paths {
				m.derivePathTransitions(ai, am, r.Entry, trigKey, path, es)
			}
		}
	}
	m.Transitions = es.transitions(len(m.States))
}

// edgeSet collects the transitions of a model as compact
// (from, to, prototype) records. A prototype carries everything but
// the endpoints, so derived transitions share one Event, Guard and
// label per prototype. Recording is a plain append; transitions drops
// repeated (from, to, label, app) records when it materialises them.
type edgeSet struct {
	classes map[labelApp]int32
	protos  []Transition
	class   []int32 // per prototype: the number of its (label, app) pair
	edges   []edge
}

type labelApp struct {
	label string
	app   int
}

type edge struct {
	from, to, proto int32
}

func newEdgeSet() *edgeSet {
	return &edgeSet{classes: map[labelApp]int32{}}
}

// proto registers a transition prototype, stamping its rendered label.
func (es *edgeSet) proto(t Transition) int32 {
	t.label = t.Label()
	la := labelApp{t.label, t.App}
	c, ok := es.classes[la]
	if !ok {
		c = int32(len(es.classes))
		es.classes[la] = c
	}
	es.protos = append(es.protos, t)
	es.class = append(es.class, c)
	return int32(len(es.protos) - 1)
}

// add records the transition from → to of prototype p.
func (es *edgeSet) add(from, to int, p int32) {
	es.edges = append(es.edges, edge{from: int32(from), to: int32(to), proto: p})
}

// transitions materialises the recorded transitions of a model with n
// states in insertion order, keeping the first of each set of equal
// ones (same endpoints, label and app). Duplicates are found without a
// map: a counting sort buckets the records by source, insertion order
// preserved, and within a bucket each target chains the records kept
// so far (one per distinct label and app on that edge), reset by a
// per-target stamp when the bucket changes.
func (es *edgeSet) transitions(n int) []Transition {
	start := make([]int32, n+1)
	for _, e := range es.edges {
		start[e.from+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	bySource := make([]int32, len(es.edges))
	for i, e := range es.edges {
		bySource[start[e.from]] = int32(i)
		start[e.from]++
	}

	// head[to] is the last kept record into to from the current
	// source (valid while stamp[to] is that source + 1); next links a
	// kept record to the one kept before it.
	stamp := make([]int32, n)
	head := make([]int32, n)
	next := make([]int32, len(es.edges))
	keep := make([]bool, len(es.edges))
	kept := 0
	for _, i := range bySource {
		e := es.edges[i]
		if stamp[e.to] != e.from+1 {
			stamp[e.to], head[e.to] = e.from+1, -1
		}
		dup := false
		for j := head[e.to]; j >= 0; j = next[j] {
			if es.class[es.edges[j].proto] == es.class[e.proto] {
				dup = true
				break
			}
		}
		if !dup {
			next[i], head[e.to] = head[e.to], i
			keep[i] = true
			kept++
		}
	}

	out := make([]Transition, 0, kept)
	for i, e := range es.edges {
		if keep[i] {
			t := es.protos[e.proto]
			t.From, t.To = int(e.from), int(e.to)
			out = append(out, t)
		}
	}
	return out
}

func (m *Model) derivePathTransitions(ai int, am *AppModel, ep *ir.EntryPoint, trigKey string, path symexec.Path, es *edgeSet) {
	sub := ep.Sub
	// Determine the event values this path can fire on.
	var events []Event
	switch sub.Kind {
	case ir.AppTouchEvent:
		// Touch events are per-app: tapping one app's icon does not
		// trigger another app.
		events = []Event{{VarKey: "app.touch", Value: am.App.Name, Kind: sub.Kind}}
	case ir.TimerEvent:
		// Timer events are per-schedule (the subscription's Value is
		// the scheduled handler).
		v := sub.Value
		if v == "" {
			v = "fired"
		}
		events = []Event{{VarKey: "timer.time", Value: v, Kind: sub.Kind}}
	default:
		v, _, ok := m.VarByKey(trigKey)
		if !ok {
			return
		}
		for i, val := range v.Values {
			if sub.Value != "" && val != sub.Value {
				continue
			}
			if !m.eventConsistent(v, i, path.Guard) {
				continue
			}
			events = append(events, Event{VarKey: trigKey, Value: val, Kind: sub.Kind})
		}
	}
	if len(events) == 0 {
		return
	}

	cp := m.compilePath(am.App, path)
	for _, ev := range events {
		m.deriveEventTransitions(ai, sub.Handler, cp, ev, es)
	}
}

// eventConsistent checks the path's evt.value atoms against a
// candidate event value of the trigger variable.
func (m *Model) eventConsistent(v *Var, valIdx int, guard pathcond.Cond) bool {
	for _, atom := range guard.Atoms {
		if atom.Var != "evt.value" {
			continue
		}
		if v.Numeric {
			na := atom
			na.Var = v.Key
			vc := v.ValueConds[valIdx]
			if pathcond.Implies(vc, na.Negated()) {
				return false
			}
			continue
		}
		val := v.Values[valIdx]
		switch atom.Op {
		case pathcond.EQ:
			if !atom.IsNum && !atom.IsSym() && atom.Str != val {
				return false
			}
		case pathcond.NE:
			if !atom.IsNum && !atom.IsSym() && atom.Str == val {
				return false
			}
		}
	}
	return true
}

// verdict is a guard atom's outcome in one post-event state.
type verdict byte

const (
	holds verdict = iota
	fails
	residual // undecided: the atom stays in the transition's guard
)

// guardAtom is one path guard atom resolved against the model.
type guardAtom struct {
	atom pathcond.Atom // as it appears in a residual guard
	// vi is the model variable the atom is decided by, with table
	// giving the verdict per value of that variable; -1 for atoms the
	// state cannot decide.
	vi    int
	table []verdict
	evt   bool // evt.value atom, decided per event
}

// compiledPath is a symbolic path resolved against the model's
// variables, independent of the source state and event.
type compiledPath struct {
	atoms  []guardAtom // guard atoms in path order; none under EventOnlyLabels
	opaque []string    // the guard's opaque terms, carried into residuals
	// writes lists the variables the actions assign; branches holds,
	// per fork of the action sequence in fork order, the packed sum of
	// the values finally written to them.
	writes   []int
	branches []uint64
	sig      string
}

func (m *Model) compilePath(app *ir.App, path symexec.Path) *compiledPath {
	cp := &compiledPath{sig: path.ActionsSignature()}
	if !m.opt.EventOnlyLabels {
		cp.opaque = path.Guard.Opaque
		for _, atom := range path.Guard.Atoms {
			cp.atoms = append(cp.atoms, m.compileAtom(app, atom))
		}
	}

	// Apply actions in order; unknown writes fork. Each fork is the
	// vector of values written, indexed like writes.
	forks := [][]int{nil}
	for _, act := range path.Actions {
		vi, targets := m.actionTargets(act)
		if len(targets) == 0 {
			continue
		}
		p := slices.Index(cp.writes, vi)
		if p < 0 {
			p = len(cp.writes)
			cp.writes = append(cp.writes, vi)
		}
		var out [][]int
		for _, f := range forks {
			for _, tv := range targets {
				nf := make([]int, len(cp.writes))
				copy(nf, f)
				nf[p] = tv
				out = append(out, nf)
			}
		}
		forks = out
	}
	cp.branches = make([]uint64, len(forks))
	for b, f := range forks {
		for p, vi := range cp.writes {
			cp.branches[b] += uint64(f[p]) * m.stride[vi]
		}
	}
	return cp
}

// compileAtom resolves one guard atom: against the variable it reads
// when the state decides it, otherwise as an atom that is always
// residual (or, for evt.value, decided per event).
func (m *Model) compileAtom(app *ir.App, atom pathcond.Atom) guardAtom {
	ga := guardAtom{atom: atom, vi: -1}
	key, ok := canonicalAtomVar(app, atom.Var)
	if !ok {
		ga.evt = atom.Var == "evt.value"
		return ga
	}
	v, vi, found := m.VarByKey(key)
	if !found {
		return ga
	}
	if v.Numeric {
		na := atom
		na.Var = key
		ga.atom, ga.vi = na, vi
		ga.table = make([]verdict, len(v.Values))
		for i, vc := range v.ValueConds {
			switch {
			case pathcond.Implies(vc, na):
				ga.table[i] = holds
			case pathcond.Implies(vc, na.Negated()):
				ga.table[i] = fails
			default:
				ga.table[i] = residual
			}
		}
		return ga
	}
	if atom.IsNum || atom.IsSym() || (atom.Op != pathcond.EQ && atom.Op != pathcond.NE) {
		return ga
	}
	ga.vi = vi
	ga.table = make([]verdict, len(v.Values))
	for i, val := range v.Values {
		if (val == atom.Str) != (atom.Op == pathcond.EQ) {
			ga.table[i] = fails
		}
	}
	return ga
}

// actionTargets returns the variable a device action writes and the
// domain indices it may write (several when an unknown value forks).
func (m *Model) actionTargets(act symexec.Action) (int, []int) {
	key := varKeyFor(act.Cap, act.Attr)
	v, vi, ok := m.VarByKey(key)
	if !ok {
		return -1, nil
	}
	var targets []int
	if v.Numeric {
		eq := pathcond.Atom{Var: key, Op: pathcond.EQ}
		if n, err := strconv.ParseFloat(act.Value, 64); err == nil {
			eq.IsNum = true
			eq.Num = n
		} else {
			eq.RHSVar = act.Value
		}
		for i, vc := range v.ValueConds {
			if pathcond.Feasible(vc.WithAtom(eq)) {
				targets = append(targets, i)
			}
		}
	} else if i, found := v.ValueIndex(act.Value); found {
		targets = []int{i}
	} else if act.Symbolic {
		// Unknown written value: fork to every domain value.
		for i := range v.Values {
			targets = append(targets, i)
		}
	}
	return vi, targets
}

// deriveEventTransitions derives the transitions of one compiled path
// on event ev from every state.
func (m *Model) deriveEventTransitions(ai int, handler string, cp *compiledPath, ev Event, es *edgeSet) {
	// Post-event state: the trigger variable takes the event value.
	tvi, tval := -1, 0
	if ev.VarKey != "app.touch" && ev.VarKey != "timer.time" {
		v, vi, ok := m.VarByKey(ev.VarKey)
		if !ok {
			return
		}
		evi, ok := v.ValueIndex(ev.Value)
		if !ok {
			return
		}
		tvi, tval = vi, evi
	}

	// verdicts holds one verdict per atom; atoms the state cannot
	// decide are settled here, once per event.
	verdicts := make([]byte, len(cp.atoms))
	for i, a := range cp.atoms {
		if a.vi >= 0 {
			continue
		}
		verdicts[i] = byte(residual)
		if a.evt {
			if ok, decided := m.decideEvtAtom(a.atom, ev); decided {
				if !ok {
					m.budget.TickN(uint64(len(m.States)), "statemodel.transitions")
					return
				}
				verdicts[i] = byte(holds)
			}
		}
	}

	// Transition prototypes keyed by the verdict vector.
	protos := map[string]int32{}
	for s := range m.States {
		m.budget.Tick("statemodel.transitions")
		st := m.States[s].Idx
		feasible := true
		for i := range cp.atoms {
			a := &cp.atoms[i]
			if a.vi < 0 {
				continue
			}
			x := st[a.vi]
			if a.vi == tvi {
				x = tval
			}
			v := a.table[x]
			if v == fails {
				feasible = false
				break
			}
			verdicts[i] = byte(v)
		}
		if !feasible {
			continue
		}
		p, ok := protos[string(verdicts)]
		if !ok {
			p = es.proto(Transition{
				Event: ev, Guard: cp.residual(verdicts),
				App: ai, Handler: handler, ActionsSig: cp.sig,
			})
			protos[string(verdicts)] = p
		}

		// Packed key of the post-event state with the written
		// variables cleared; each fork adds its written values.
		key := m.stateKeys[s]
		if tvi >= 0 {
			key += uint64(tval)*m.stride[tvi] - uint64(st[tvi])*m.stride[tvi]
		}
		for _, vi := range cp.writes {
			x := st[vi]
			if vi == tvi {
				x = tval
			}
			key -= uint64(x) * m.stride[vi]
		}
		for _, b := range cp.branches {
			es.add(s, m.stateOf(key+b), p)
		}
	}
}

// residual builds the residual guard for one verdict vector: the
// undecided atoms in path order plus the guard's opaque terms.
func (cp *compiledPath) residual(verdicts []byte) pathcond.Cond {
	g := pathcond.Cond{Opaque: cp.opaque}
	for i, a := range cp.atoms {
		if verdict(verdicts[i]) == residual {
			g.Atoms = append(g.Atoms, a.atom)
		}
	}
	g.Atoms = slices.Clip(g.Atoms)
	return g
}

// decideEvtAtom decides an evt.value atom against a concrete event.
func (m *Model) decideEvtAtom(atom pathcond.Atom, ev Event) (holds, decided bool) {
	if atom.IsNum || atom.IsSym() {
		// Numeric event values are resolved through the trigger
		// variable's abstract value in eventConsistent.
		v, _, ok := m.VarByKey(ev.VarKey)
		if ok && v.Numeric {
			if i, found := v.ValueIndex(ev.Value); found {
				na := atom
				na.Var = v.Key
				vc := v.ValueConds[i]
				if pathcond.Implies(vc, na) {
					return true, true
				}
				if pathcond.Implies(vc, na.Negated()) {
					return false, true
				}
			}
		}
		return false, false
	}
	switch atom.Op {
	case pathcond.EQ:
		return ev.Value == atom.Str, true
	case pathcond.NE:
		return ev.Value != atom.Str, true
	}
	return false, false
}

// ---------------------------------------------------------------------------
// Nondeterminism

// detectNondeterminism flags states with two feasible same-event
// transitions to different successors (§4.2: "SOTERIA reports
// nondeterministic state models as a safety violation").
func (m *Model) detectNondeterminism() {
	const maxReports = 64
	for _, ts := range m.eventGroups() {
		for i := 0; i < len(ts) && len(m.Nondet) < maxReports; i++ {
			m.budget.Tick("statemodel.nondet")
			for j := i + 1; j < len(ts); j++ {
				a, b := m.Transitions[ts[i]], m.Transitions[ts[j]]
				if a.To == b.To {
					continue
				}
				if pathcond.Feasible(a.Guard.And(b.Guard)) {
					m.Nondet = append(m.Nondet, NondetReport{
						State: a.From, Event: a.Event,
						ToA: a.To, ToB: b.To,
						GuardA: a.Guard, GuardB: b.Guard,
						AppA: a.App, AppB: b.App,
					})
					break
				}
			}
		}
	}
}

// eventGroups groups transition indices by source state and rendered
// event, transitions in index order, and returns the groups in the
// order of their "from|event" strings. Events that render alike share
// a group. Those strings are not built: groups are ordered by the rank
// of the "from|" prefix, then of the event string. This is the same
// order, since no "from|" prefix is a prefix of another.
func (m *Model) eventGroups() [][]int {
	n := len(m.Transitions)
	// Rank the distinct rendered events and source states.
	evID := map[Event]int{}
	nameID := map[string]int{}
	var names []string
	tev := make([]int, n)
	fromID := make([]int, len(m.States))
	var froms []string
	id := -1
	for i, t := range m.Transitions {
		// Runs of transitions share an event; look up only changes.
		if id < 0 || t.Event != m.Transitions[i-1].Event {
			var ok bool
			if id, ok = evID[t.Event]; !ok {
				name := t.Event.String()
				if id, ok = nameID[name]; !ok {
					id = len(names)
					nameID[name] = id
					names = append(names, name)
				}
				evID[t.Event] = id
			}
		}
		tev[i] = id
		if fromID[t.From] == 0 {
			froms = append(froms, strconv.Itoa(t.From)+"|")
			fromID[t.From] = len(froms)
		}
	}
	evRank := ranks(names)
	fromRank := ranks(froms)

	// Radix sort: by event rank, then stably by source rank.
	byEv := countingSort(identity(n), len(names), func(i int) int { return evRank[tev[i]] })
	order := countingSort(byEv, len(froms), func(i int) int { return fromRank[fromID[m.Transitions[i].From]-1] })

	var groups [][]int
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && m.Transitions[order[hi]].From == m.Transitions[order[lo]].From && tev[order[hi]] == tev[order[lo]] {
			hi++
		}
		groups = append(groups, order[lo:hi:hi])
		lo = hi
	}
	return groups
}

// ranks returns each string's position in sorted order.
func ranks(ss []string) []int {
	order := identity(len(ss))
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(ss[a], ss[b]) })
	r := make([]int, len(ss))
	for pos, i := range order {
		r[i] = pos
	}
	return r
}

func identity(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// countingSort stably orders xs by key, which must lie in [0, buckets).
func countingSort(xs []int, buckets int, key func(int) int) []int {
	start := make([]int, buckets+1)
	for _, x := range xs {
		start[key(x)+1]++
	}
	for b := 1; b <= buckets; b++ {
		start[b] += start[b-1]
	}
	out := make([]int, len(xs))
	for _, x := range xs {
		k := key(x)
		out[start[k]] = x
		start[k]++
	}
	return out
}

// ---------------------------------------------------------------------------
// Graphviz output

// Dot renders the model in Graphviz format, in the paper's Fig. 9
// style: states labeled with their attribute values, edges with
// event and residual predicate.
func (m *Model) Dot() string {
	var sb strings.Builder
	name := "model"
	if len(m.Apps) == 1 {
		name = m.Apps[0].App.Name
	}
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=box];\n", name)
	// Only states that participate in transitions are drawn, keeping
	// the output readable for large products.
	used := map[int]bool{}
	for _, t := range m.Transitions {
		used[t.From] = true
		used[t.To] = true
	}
	for s := range m.States {
		if !used[s] && len(m.Transitions) > 0 {
			continue
		}
		fmt.Fprintf(&sb, "  s%d [label=%q];\n", s, m.StateLabel(s))
	}
	for _, t := range m.Transitions {
		fmt.Fprintf(&sb, "  s%d -> s%d [label=%q];\n", t.From, t.To, t.Label())
	}
	sb.WriteString("}\n")
	return sb.String()
}
