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
	if err := m.initPacking(); err != nil {
		return err
	}
	// Packed keys run through the product in lexicographic order (last
	// variable fastest), so state k is the one with packed key k. All
	// index vectors share one backing array.
	n := len(m.Vars)
	backing := make([]int, total*n)
	m.States = make([]State, total)
	for k := range m.States {
		m.budget.Tick("statemodel.enumerate")
		idx := backing[k*n : (k+1)*n : (k+1)*n]
		m.unpack(uint64(k), idx)
		m.States[k].Idx = idx
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
	// Compile every path and list its events first: a path derives at
	// most one transition per event, source state and action fork, a
	// bound that sizes the edge set (on the market corpus it is within
	// 3% of the count derived).
	type pathJob struct {
		ai      int
		handler string
		cp      *compiledPath
		events  []Event
	}
	var jobs []pathJob
	bound := 0
	for ai, am := range m.Apps {
		for _, r := range am.Results {
			trigKey := m.triggerKey(am.App, r.Entry.Sub)
			for _, path := range r.Paths {
				events := m.pathEvents(am.App, r.Entry.Sub, trigKey, path)
				if len(events) == 0 {
					continue
				}
				cp := m.compilePath(am.App, path)
				jobs = append(jobs, pathJob{ai, r.Entry.Sub.Handler, cp, events})
				bound = min(bound+len(events)*len(m.States)*len(cp.branches), maxPresize)
			}
		}
	}
	es := newEdgeSet(bound)
	for _, j := range jobs {
		for _, ev := range j.events {
			m.deriveEventTransitions(j.ai, j.handler, j.cp, ev, es)
		}
	}
	es.finish(m)
}

// maxPresize caps the records an edge set reserves up front, so a
// bound that guards make loose cannot reserve more than 3 MB; past it
// the records grow by append.
const maxPresize = 1 << 18

// edgeSet collects the transitions of a model as (from, to, prototype)
// records. A prototype carries everything but the endpoints, so
// derived transitions share one Event, Guard and label per prototype.
// Recording is a plain append; finish drops repeated (from, to, label,
// app) records and hands the columns to the model.
type edgeSet struct {
	classes map[labelApp]int32
	class   []int32 // per prototype: the number of its (label, app) pair
	// evIDs and names number the rendered events as prototypes
	// register them; finish renumbers them in order of first use.
	evIDs  map[Event]int32
	names  map[string]int32
	protos []prototype
	edges  []edge
}

type labelApp struct {
	label string
	app   int
}

// newEdgeSet returns an empty edge set with room for size records.
func newEdgeSet(size int) *edgeSet {
	return &edgeSet{
		classes: map[labelApp]int32{},
		evIDs:   map[Event]int32{},
		names:   map[string]int32{},
		edges:   make([]edge, 0, size),
	}
}

// proto registers a transition prototype, stamping its rendered label
// and numbering its rendered event.
func (es *edgeSet) proto(t Transition) int32 {
	t.label = t.Label()
	la := labelApp{t.label, t.App}
	c, ok := es.classes[la]
	if !ok {
		c = int32(len(es.classes))
		es.classes[la] = c
	}
	ev, ok := es.evIDs[t.Event]
	if !ok {
		name := t.Event.String()
		if ev, ok = es.names[name]; !ok {
			ev = int32(len(es.names))
			es.names[name] = ev
		}
		es.evIDs[t.Event] = ev
	}
	es.protos = append(es.protos, prototype{Transition: t, event: ev})
	es.class = append(es.class, c)
	return int32(len(es.protos) - 1)
}

// add records the transition from → to of prototype p.
func (es *edgeSet) add(from, to int, p int32) {
	es.edges = append(es.edges, edge{from: int32(from), to: int32(to), proto: p})
}

// finish installs the recorded transitions as m's relation, in
// insertion order, keeping the first of each set of equal ones (same
// endpoints, label and app), indexes them by source and numbers the
// events in order of first use by a kept transition. Duplicates are
// dropped without a map, in place: dropRunRepeats proves most records
// unique in one linear pass, and dropRepeats checks the rest.
func (es *edgeSet) finish(m *Model) {
	n := len(m.States)
	if slow := es.dropRunRepeats(n); slow != nil {
		es.dropRepeats(n, slow)
	}
	kept := es.edges[:0]
	for _, e := range es.edges {
		if e.proto >= 0 {
			kept = append(kept, e)
		}
	}
	m.edges, m.protos = kept, es.protos
	m.indexSources()

	names := make([]string, len(es.names))
	for name, id := range es.names {
		names[id] = name
	}
	renum := make([]int32, len(names))
	for i := range renum {
		renum[i] = -1
	}
	for _, e := range kept {
		if id := es.protos[e.proto].event; renum[id] < 0 {
			renum[id] = int32(len(m.events))
			m.events = append(m.events, names[id])
		}
	}
	for i := range es.protos {
		es.protos[i].event = renum[es.protos[i].event]
	}
}

// dropRunRepeats is the linear pass of the dedup. A run is a maximal
// stretch of consecutive records with one source and one prototype.
// A record whose target already occurred in its run repeats an earlier
// record and is dropped (its prototype becomes -1). When each of a
// prototype's sources forms a single run and the runs come in
// increasing source order, every repeat of one of its records lies in
// the record's run, so a (label, app) class holding only that
// prototype is then free of duplicates. The other classes — those
// with several prototypes or with a prototype out of source order —
// are returned as the set dropRepeats must check, or nil when there
// are none. Build derives each prototype in one pass over the states
// in order, so a class fails here only when several of its paths share
// a label and app (or under EventOnlyLabels); Union's prototypes,
// shared by many input transitions, come out of source order.
func (es *edgeSet) dropRunRepeats(n int) []bool {
	var slow []bool
	mark := func(c int32) {
		if slow == nil {
			slow = make([]bool, len(es.classes))
		}
		slow[c] = true
	}
	protos := make([]int32, len(es.classes)) // per class: its prototype count
	for _, c := range es.class {
		if protos[c]++; protos[c] == 2 {
			mark(c)
		}
	}
	// last[p] is the source of prototype p's latest run + 1; stamp[t]
	// is the number of the latest run reaching target t.
	last := make([]int32, len(es.protos))
	stamp := make([]int32, n)
	run := int32(0)
	from, proto := int32(-1), int32(-1)
	for i := range es.edges {
		e := &es.edges[i]
		if e.from != from || e.proto != proto {
			from, proto = e.from, e.proto
			run++
			if last[proto] > from {
				mark(es.class[proto])
			}
			last[proto] = from + 1
		}
		if stamp[e.to] == run {
			e.proto = -1
			continue
		}
		stamp[e.to] = run
	}
	return slow
}

// dropRepeats drops the remaining duplicates among the records of the
// slow classes. A counting sort buckets those records by source,
// insertion order preserved, and within a bucket each target chains
// the records kept so far (one per distinct label and app on that
// edge), reset by a per-target stamp when the bucket changes.
func (es *edgeSet) dropRepeats(n int, slow []bool) {
	checked := func(e edge) bool { return e.proto >= 0 && slow[es.class[e.proto]] }
	start := make([]int32, n)
	count := 0
	for _, e := range es.edges {
		if checked(e) {
			start[e.from]++
			count++
		}
	}
	prefixSums(start)
	bySource := make([]int32, count)
	for i := len(es.edges) - 1; i >= 0; i-- {
		if e := es.edges[i]; checked(e) {
			start[e.from]--
			bySource[start[e.from]] = int32(i)
		}
	}

	// head[to] is the position in bySource of the last kept record into
	// to from the current source (valid while stamp[to] is that source
	// + 1); next links a kept record to the one kept before it.
	stamp := make([]int32, n)
	head := make([]int32, n)
	next := make([]int32, count)
	for j, i := range bySource {
		e := &es.edges[i]
		if stamp[e.to] != e.from+1 {
			stamp[e.to], head[e.to] = e.from+1, -1
		}
		dup := false
		for k := head[e.to]; k >= 0; k = next[k] {
			if es.class[es.edges[bySource[k]].proto] == es.class[e.proto] {
				dup = true
				break
			}
		}
		if dup {
			e.proto = -1
		} else {
			next[j], head[e.to] = head[e.to], int32(j)
		}
	}
}

// pathEvents returns the events a path of the handler subscribed
// with sub can fire on.
func (m *Model) pathEvents(app *ir.App, sub ir.Subscription, trigKey string, path symexec.Path) []Event {
	switch sub.Kind {
	case ir.AppTouchEvent:
		// Touch events are per-app: tapping one app's icon does not
		// trigger another app.
		return []Event{{VarKey: "app.touch", Value: app.Name, Kind: sub.Kind}}
	case ir.TimerEvent:
		// Timer events are per-schedule (the subscription's Value is
		// the scheduled handler).
		v := sub.Value
		if v == "" {
			v = "fired"
		}
		return []Event{{VarKey: "timer.time", Value: v, Kind: sub.Kind}}
	}
	v, _, ok := m.VarByKey(trigKey)
	if !ok {
		return nil
	}
	var events []Event
	for i, val := range v.Values {
		if sub.Value != "" && val != sub.Value {
			continue
		}
		if !m.eventConsistent(v, i, path.Guard) {
			continue
		}
		events = append(events, Event{VarKey: trigKey, Value: val, Kind: sub.Kind})
	}
	return events
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
	// bit is the atom's bit in the residual mask that keys the
	// transition prototypes; 0 when its table holds no residual
	// verdict, or when the path has more such atoms than a mask has
	// bits (see compiledPath.keyVars).
	bit uint64
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
	// keyVars, set when more than maskBits atoms can be residual, lists the
	// variables those atoms read: prototypes are then keyed by the
	// packed values of these variables instead of a residual mask.
	keyVars []int
}

func (m *Model) compilePath(app *ir.App, path symexec.Path) *compiledPath {
	cp := &compiledPath{sig: path.ActionsSignature()}
	if !m.opt.EventOnlyLabels {
		cp.opaque = path.Guard.Opaque
		for _, atom := range path.Guard.Atoms {
			cp.atoms = append(cp.atoms, m.compileAtom(app, atom))
		}
		cp.keyResiduals()
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

// maskBits is the number of atoms a residual mask can key; a variable
// so that tests can force the fallback key.
var maskBits = 64

// keyResiduals numbers the atoms whose verdict can be residual: a
// state's residual guard, and so its prototype, is fixed by which of
// them are residual there, since every other verdict is holds or the
// state is skipped. Up to 64 such atoms each get a bit of the mask
// that keys the prototypes; past that the key is the values of the
// variables they read.
func (cp *compiledPath) keyResiduals() {
	var resid []int
	for i := range cp.atoms {
		if slices.Contains(cp.atoms[i].table, residual) {
			resid = append(resid, i)
		}
	}
	if len(resid) > maskBits {
		for _, i := range resid {
			if vi := cp.atoms[i].vi; !slices.Contains(cp.keyVars, vi) {
				cp.keyVars = append(cp.keyVars, vi)
			}
		}
		return
	}
	for b, i := range resid {
		cp.atoms[i].bit = 1 << b
	}
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

	// The loop below visits every state once: charge them all now.
	m.budget.TickN(uint64(len(m.States)), "statemodel.transitions")

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
					return
				}
				verdicts[i] = byte(holds)
			}
		}
	}

	// Transition prototypes keyed by the residual mask (keyResiduals);
	// consecutive states mostly share one, so the last is kept at hand.
	protos := map[uint64]int32{}
	var last uint64
	p := int32(-1)
	for s := range m.States {
		st := m.States[s].Idx
		feasible := true
		var pkey uint64
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
			if v == residual {
				pkey |= a.bit
			}
		}
		if !feasible {
			continue
		}
		for _, vi := range cp.keyVars {
			x := st[vi]
			if vi == tvi {
				x = tval
			}
			pkey += uint64(x) * m.stride[vi]
		}
		if p < 0 || pkey != last {
			var ok bool
			if p, ok = protos[pkey]; !ok {
				p = es.proto(Transition{
					Event: ev, Guard: cp.residual(verdicts),
					App: ai, Handler: handler, ActionsSig: cp.sig,
				})
				protos[pkey] = p
			}
			last = pkey
		}

		// Packed key of the post-event state (state s has key s)
		// with the written variables cleared; each fork adds its
		// written values.
		key := uint64(s)
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
			es.add(s, int(key+b), p)
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
// nondeterministic state models as a safety violation"), stopping at
// the 64th report.
//
// Transitions are grouped by source state and event ID (events that
// render alike share an ID), transitions in index order, and the
// groups are visited in the order of their "from|event" strings
// without building them: sources in the order of their "from|"
// prefixes (sourceOrder), then events by rank of the rendered event.
// This is the same order, since no "from|" prefix is a prefix of
// another. Each source's bucket (Outgoing) is copied and stably sorted
// by event rank when its turn comes, so the search sorts only the
// sources it reaches.
func (m *Model) detectNondeterminism() {
	const maxReports = 64
	evRank := ranks(m.events)
	rank := make([]int, len(m.protos)) // per prototype: its event's rank
	for p := range m.protos {
		if id := m.protos[p].event; id >= 0 {
			rank[p] = evRank[id]
		}
	}
	byRank := func(a, b int32) int { return rank[m.edges[a].proto] - rank[m.edges[b].proto] }
	var ts []int32
	for _, s := range sourceOrder(len(m.States)) {
		ts = append(ts[:0], m.Outgoing(int(s))...)
		slices.SortStableFunc(ts, byRank)
		for lo := 0; lo < len(ts); {
			ev := m.EventID(int(ts[lo]))
			hi := lo + 1
			for hi < len(ts) && m.EventID(int(ts[hi])) == ev {
				hi++
			}
			for i := lo; i < hi; i++ {
				if len(m.Nondet) == maxReports {
					return
				}
				m.budget.Tick("statemodel.nondet")
				a := m.edges[ts[i]]
				for j := i + 1; j < hi; j++ {
					b := m.edges[ts[j]]
					if a.to == b.to {
						continue
					}
					pa, pb := &m.protos[a.proto], &m.protos[b.proto]
					if pathcond.Feasible(pa.Guard.And(pb.Guard)) {
						m.Nondet = append(m.Nondet, NondetReport{
							State: int(a.from), Event: pa.Event,
							ToA: int(a.to), ToB: int(b.to),
							GuardA: pa.Guard, GuardB: pb.Guard,
							AppA: pa.App, AppB: pb.App,
						})
						break
					}
				}
			}
			lo = hi
		}
	}
}

// prefixSums turns counts into running totals in place.
func prefixSums(xs []int32) {
	for i := 1; i < len(xs); i++ {
		xs[i] += xs[i-1]
	}
}

// sourceOrder returns the states 0..n-1 in the order of their "s|"
// strings. '|' sorts after every digit, so a number's decimal
// extensions come before it: the order is a post-order walk of the
// digit trie, children in digit order ("100|" < "10|" < "11|" < "1|").
func sourceOrder(n int) []int32 {
	out := make([]int32, 0, n)
	var walk func(s int)
	walk = func(s int) {
		for c := s * 10; c < s*10+10 && c < n; c++ {
			walk(c)
		}
		out = append(out, int32(s))
	}
	if n > 0 {
		out = append(out, 0)
	}
	for s := 1; s < 10 && s < n; s++ {
		walk(s)
	}
	return out
}

// ranks returns each string's position in sorted order.
func ranks(ss []string) []int {
	order := make([]int, len(ss))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(ss[a], ss[b]) })
	r := make([]int, len(ss))
	for pos, i := range order {
		r[i] = pos
	}
	return r
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
	for _, e := range m.edges {
		used[int(e.from)] = true
		used[int(e.to)] = true
	}
	for s := range m.States {
		if !used[s] && len(m.edges) > 0 {
			continue
		}
		fmt.Fprintf(&sb, "  s%d [label=%q];\n", s, m.StateLabel(s))
	}
	for i, e := range m.edges {
		fmt.Fprintf(&sb, "  s%d -> s%d [label=%q];\n", e.from, e.to, m.TransitionLabel(i))
	}
	sb.WriteString("}\n")
	return sb.String()
}
