// Package statemodel extracts Soteria's finite state model (Q, Σ, δ)
// from the symbolic-execution paths of one or more IoT apps
// (paper §4.2).
//
// States are the Cartesian product of device attribute values; numeric
// attributes are collapsed by property abstraction (§4.2.1): the atoms
// appearing in transition guards and in written setpoint values become
// abstraction predicates, and the attribute's abstract domain is the
// set of feasible truth assignments to them (the paper's thermostat
// goes from 45 values to {==68, ≠68}). Transitions are labeled with
// the triggering event and the residual (unresolvable) predicate
// (§4.2.2). Nondeterministic models are reported as safety violations.
//
// Devices are identified across apps by capability — a model variable
// is "capability.attribute" — which is how the multi-app union
// (Algorithm 2) removes the attributes of duplicate devices.
package statemodel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/symexec"
)

// Var is one state variable of the model: a device (or abstract)
// attribute with a finite value domain.
type Var struct {
	Key     string // canonical "capability.attribute"
	Cap     string
	Attr    string
	Values  []string // domain, in deterministic order
	Numeric bool     // domain produced by property abstraction
	// ValueConds, for numeric vars, gives the defining condition of
	// each abstract value (parallel to Values). The condition's
	// variable is the canonical Key.
	ValueConds []pathcond.Cond
	// Handles lists the app device handles mapped onto this variable.
	Handles []string
}

// ValueIndex returns the index of value v in the domain.
func (v *Var) ValueIndex(val string) (int, bool) {
	for i, x := range v.Values {
		if x == val {
			return i, true
		}
	}
	return -1, false
}

// State is one assignment of every model variable, stored as domain
// indices in model variable order.
type State struct {
	Idx []int
}

// Event labels a transition with its trigger.
type Event struct {
	VarKey string // triggering attribute key ("waterSensor.water", "location.mode", "app.touch", "timer.time")
	Value  string // event value
	Kind   ir.EventKind
}

func (e Event) String() string {
	switch e.Kind {
	case ir.AppTouchEvent:
		if e.Value != "" && e.Value != "touched" {
			return "app touch:" + e.Value
		}
		return "app touch"
	case ir.TimerEvent:
		if e.Value != "" && e.Value != "fired" {
			return "timer." + e.Value
		}
		return "timer"
	}
	return e.VarKey + "." + e.Value
}

// Transition is one labeled edge of the model. The model does not
// store Transitions: it keeps its transition relation as columns (see
// Model), and Model.Transition materialises one on demand.
type Transition struct {
	From, To int
	Event    Event
	// Guard is the residual path condition: the part of the path's
	// predicate that could not be resolved against the state (user
	// inputs, persistent state variables, opaque terms). True when the
	// transition is unconditional.
	Guard pathcond.Cond
	// App is the index (into Model.Apps) of the app contributing the
	// transition — Algorithm 2's edge labeling.
	App     int
	Handler string
	// ActionsSig is the contributing path's action signature, kept for
	// diagnostics and the general properties.
	ActionsSig string
	// label is Label() as rendered once per prototype by Build and
	// Union; empty (synthetic transitions) means render on demand.
	label string
}

// Label renders the paper-style transition label: event plus residual
// predicate.
func (t Transition) Label() string {
	if t.label != "" {
		return t.label
	}
	if t.Guard.IsTrue() {
		return t.Event.String()
	}
	return t.Event.String() + " [" + t.Guard.String() + "]"
}

// edge is one transition of the relation: its endpoints and the index
// of its prototype.
type edge struct {
	from, to, proto int32
}

// prototype is everything about a transition but its endpoints (From
// and To are unused), shared by the transitions one path derives on
// one event under one residual guard.
type prototype struct {
	Transition
	event int32 // the ID of the rendered event in Model.events
}

// NondetReport describes a nondeterminism violation: one state and
// event with two feasible transitions to different successors.
type NondetReport struct {
	State  int
	Event  Event
	ToA    int
	ToB    int
	GuardA pathcond.Cond
	GuardB pathcond.Cond
	AppA   int
	AppB   int
}

// AppModel retains an app's analysis artifacts inside a model.
type AppModel struct {
	App     *ir.App
	Results []*symexec.Result
	// HandleCap maps device handles to capability names.
	HandleCap map[string]string
}

// Model is the extracted state model.
//
// The transition relation is kept as columns: one 12-byte
// (from, to, prototype) record per transition, in the order derived
// or added, and a table of prototypes holding the rest (event, residual guard,
// app, handler, actions signature, rendered label and event ID).
// Event IDs number the distinct rendered events in order of first
// use, so events that render alike share one. NumTransitions and
// Transition read the relation one transition at a time; Endpoints,
// EventID, TransitionLabel and Events are the column reads the Kripke
// translation and the property catalogue need.
//
// The relation is indexed by source once, when it is finished: CSR
// offsets plus each source's transition indices in index order, read
// through Outgoing. Nondeterminism detection, the Kripke translation
// and its edge labels read these buckets instead of sorting the
// relation again.
type Model struct {
	Apps   []*AppModel
	Vars   []*Var
	varIdx map[string]int
	States []State
	stride []uint64 // place value of each variable in packed state keys (initPacking)
	// stateID maps packed keys to state IDs in models whose states are
	// added one at a time (AddState). It is nil when the states are the
	// full product (Build, Union), where state k has packed key k.
	stateID map[uint64]int
	edges   []edge
	protos  []prototype
	// outTrans[outStart[s]:outStart[s+1]] are the indices of the
	// transitions leaving state s, in index order (indexSources). nil
	// until a synthetic model's first read after AddState or
	// AddTransition.
	outStart []int32
	outTrans []int32
	events   []string         // rendered events by event ID
	eventIDs map[string]int32 // events' IDs, built by AddTransition
	Nondet   []NondetReport
	Warnings []string
	opt      Options
	budget   *guard.Budget
	// StatesBeforeReduction is the would-be state count without
	// property abstraction, using the standard discretisation (100
	// levels per numeric attribute) — the Fig. 11 baseline.
	StatesBeforeReduction int
}

// NumTransitions returns the number of transitions.
func (m *Model) NumTransitions() int { return len(m.edges) }

// Transition materialises transition i.
func (m *Model) Transition(i int) Transition {
	e := m.edges[i]
	t := m.protos[e.proto].Transition
	t.From, t.To = int(e.from), int(e.to)
	return t
}

// Endpoints returns the source and target states of transition i.
func (m *Model) Endpoints(i int) (from, to int) {
	e := &m.edges[i]
	return int(e.from), int(e.to)
}

// EventID returns the ID of transition i's rendered event: its index
// in Events.
func (m *Model) EventID(i int) int { return int(m.protos[m.edges[i].proto].event) }

// TransitionLabel returns transition i's Label.
func (m *Model) TransitionLabel(i int) string {
	p := &m.protos[m.edges[i].proto]
	if p.label != "" {
		return p.label
	}
	return p.Label()
}

// Outgoing returns the indices of the transitions leaving state s, in
// index order. The slice belongs to the model and must not be
// modified. A synthetic model builds the index on the first call after
// AddState or AddTransition, so make that call before sharing the
// model between goroutines.
func (m *Model) Outgoing(s int) []int32 {
	if m.outStart == nil {
		m.indexSources()
	}
	return m.outTrans[m.outStart[s]:m.outStart[s+1]]
}

// indexSources buckets the transitions by source: a counting sort of
// the transition indices, each bucket in index order.
func (m *Model) indexSources() {
	// Count into outStart[s] and sum to bucket ends, then fill each
	// bucket back to front, leaving outStart[s] at its start.
	n := len(m.States)
	m.outStart = make([]int32, n+1)
	for _, e := range m.edges {
		m.outStart[e.from]++
	}
	prefixSums(m.outStart)
	m.outTrans = make([]int32, len(m.edges))
	for i := len(m.edges) - 1; i >= 0; i-- {
		s := m.edges[i].from
		m.outStart[s]--
		m.outTrans[m.outStart[s]] = int32(i)
	}
}

// Events returns the distinct rendered events of the transitions,
// indexed by event ID (in order of first use). The slice belongs to
// the model and must not be modified.
func (m *Model) Events() []string { return m.events }

// VarByKey returns the model variable with the given key.
func (m *Model) VarByKey(key string) (*Var, int, bool) {
	i, ok := m.varIdx[key]
	if !ok {
		return nil, -1, false
	}
	return m.Vars[i], i, true
}

// StateValue returns the value of variable key in state s.
func (m *Model) StateValue(s int, key string) (string, bool) {
	v, i, ok := m.VarByKey(key)
	if !ok {
		return "", false
	}
	return v.Values[m.States[s].Idx[i]], true
}

// StateLabel renders a state as "[cap.attr=value, ...]", into one
// string sized up front.
func (m *Model) StateLabel(s int) string {
	idx := m.States[s].Idx
	size := 2 * max(len(m.Vars), 1) // the brackets and the ", " separators
	for i, v := range m.Vars {
		size += len(v.Key) + 1 + len(v.Values[idx[i]])
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteByte('[')
	for i, v := range m.Vars {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.Key)
		sb.WriteByte('=')
		sb.WriteString(v.Values[idx[i]])
	}
	sb.WriteByte(']')
	return sb.String()
}

// FindStates returns the states satisfying all the given key=value
// requirements.
func (m *Model) FindStates(req map[string]string) []int {
	var out []int
	for s := range m.States {
		okAll := true
		for k, want := range req {
			got, ok := m.StateValue(s, k)
			if !ok || got != want {
				okAll = false
				break
			}
		}
		if okAll {
			out = append(out, s)
		}
	}
	return out
}

// initPacking sets the place values of the packed state keys, the
// last variable varying fastest. It fails when the domain product
// overflows a uint64.
func (m *Model) initPacking() error {
	m.stride = make([]uint64, len(m.Vars))
	place := uint64(1)
	for i := len(m.Vars) - 1; i >= 0; i-- {
		m.stride[i] = place
		n := uint64(len(m.Vars[i].Values))
		if n != 0 && place > math.MaxUint64/n {
			return errors.New("statemodel: state space exceeds 2^64 packed keys")
		}
		place *= n
	}
	return nil
}

// pack returns the packed key of a state's domain indices.
func (m *Model) pack(idx []int) uint64 {
	var k uint64
	for i, x := range idx {
		k += uint64(x) * m.stride[i]
	}
	return k
}

// unpack writes the domain indices of packed key k into idx.
func (m *Model) unpack(k uint64, idx []int) {
	for i, v := range m.Vars {
		idx[i] = int(k / m.stride[i] % uint64(len(v.Values)))
	}
}

// internState returns the state's ID, creating it if new.
func (m *Model) internState(idx []int) int {
	k := m.pack(idx)
	if m.stateID == nil {
		return int(k) // the full product holds every state
	}
	if id, ok := m.stateID[k]; ok {
		return id
	}
	id := len(m.States)
	m.States = append(m.States, State{Idx: slices.Clone(idx)})
	m.stateID[k] = id
	return id
}

// maxStates bounds state enumeration; the paper's apps stay under 200
// states after reduction.
const maxStates = 1 << 17

// numericLevels is the discretisation used for the before-reduction
// count (batteries and power meters report ~100 levels, the paper's
// §4.2.1 example).
const numericLevels = 100

// varKeyFor maps an app device handle and attribute to the canonical
// model variable key.
func varKeyFor(capName, attr string) string { return capName + "." + attr }

// canonicalAtomVar rewrites a guard atom variable of the form
// "handle.attr" into "capability.attr" for the given app; returns
// ok=false for non-device variables (evt.*, state.*, user inputs,
// opaque symbols).
func canonicalAtomVar(app *ir.App, v string) (string, bool) {
	i := strings.Index(v, ".")
	if i < 0 {
		return "", false
	}
	handle, attr := v[:i], v[i+1:]
	if handle == "location" {
		return varKeyFor("location", attr), true
	}
	p, ok := app.PermissionByHandle(handle)
	if !ok || p.Kind != ir.Device || p.Cap == nil {
		return "", false
	}
	if _, has := p.Cap.Attribute(attr); !has {
		return "", false
	}
	return varKeyFor(p.Cap.Name, attr), true
}

// sortedKeys returns map keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// abstractDomain builds the abstract value domain of a numeric
// variable from its abstraction predicates (guard atoms over the
// variable plus equality atoms for written values). It returns the
// value labels and their defining conditions.
func abstractDomain(key string, atoms []pathcond.Atom) ([]string, []pathcond.Cond) {
	// Normalise polarity (x >= c and x < c are the same abstraction
	// predicate) and deduplicate.
	seen := map[string]bool{}
	var uniq []pathcond.Atom
	for _, a := range atoms {
		switch a.Op {
		case pathcond.GE, pathcond.GT, pathcond.NE:
			a = a.Negated()
		}
		if !seen[a.String()] {
			seen[a.String()] = true
			uniq = append(uniq, a)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].String() < uniq[j].String() })
	if len(uniq) == 0 {
		return []string{"any"}, []pathcond.Cond{pathcond.True()}
	}
	// Cap the predicate count to keep 2^n tractable.
	if len(uniq) > 8 {
		uniq = uniq[:8]
	}
	var values []string
	var conds []pathcond.Cond
	n := len(uniq)
	for mask := 0; mask < 1<<n; mask++ {
		c := pathcond.True()
		var label []string
		for i := 0; i < n; i++ {
			a := uniq[i]
			if mask&(1<<i) == 0 {
				a = a.Negated()
			}
			c = c.WithAtom(a)
			label = append(label, shortAtom(a))
		}
		if !pathcond.Feasible(c) {
			continue
		}
		values = append(values, strings.Join(label, "&"))
		conds = append(conds, c)
	}
	return values, conds
}

// shortAtom renders an atom without the variable prefix for compact
// state labels ("<5", "==68", ">=thrshld").
func shortAtom(a pathcond.Atom) string {
	var rhs string
	switch {
	case a.IsSym():
		rhs = a.RHSVar
	case a.IsNum:
		rhs = fmt.Sprintf("%g", a.Num)
	default:
		rhs = a.Str
	}
	return a.Op.String() + rhs
}
