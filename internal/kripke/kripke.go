// Package kripke translates Soteria state models into Kripke
// structures (paper §5: "We translate the state model of an IoT app
// into a Kripke structure"), the input format of the model-checking
// engines (explicit, BDD-symbolic, and SAT/BMC).
//
// Atomic propositions are "variable=value" facts plus per-state event
// markers "ev:<event>" set on states entered via that event, which
// lets properties refer to triggers. The transition relation is made
// total by adding self-loops to deadlocked states (CTL semantics over
// total relations).
//
// Propositions are interned: a table maps each name to an ID, and
// each ID owns a bitset of the states it holds in, all carved from one
// arena. Engines look a proposition up once per atom with PropStates
// and then test states by bit.
//
// A structure built from a model keeps only what the engines read —
// adjacency lists and proposition bitsets — and leaves the rest to the
// model: an edge's labels are those of the model transitions between
// its endpoints, found in the source's bucket (statemodel.Model.Outgoing),
// and a state's name is rendered by Name when asked. Both are read only
// for counterexamples (RenderPath).
package kripke

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// Structure is an explicit Kripke structure: either built from a
// state model (FromModel) or by hand (New and AddEdge).
type Structure struct {
	N     int
	Init  []int
	Succs [][]int
	Preds [][]int
	// Names holds the state names of a structure made by New. It is nil
	// for one built from a model; read names through Name.
	Names []string

	// The proposition table: propNames[id] names proposition id and
	// propStates[id] holds the states it is true in.
	propID     map[string]int
	propNames  []string
	propStates []StateSet

	// model is the state model the structure was built from, if any;
	// its transitions label the edges. labels holds the labels AddEdge
	// recorded, by edge, in insertion order.
	model  *statemodel.Model
	labels map[[2]int][]string
}

// StateSet is a bitset over state IDs. The nil set is empty.
type StateSet []uint64

// Has reports whether state s is in the set.
func (b StateSet) Has(s int) bool {
	w := s >> 6
	return w < len(b) && b[w]&(1<<(uint(s)&63)) != 0
}

func (b StateSet) add(s int) { b[s>>6] |= 1 << (uint(s) & 63) }

func (b StateSet) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// words is the length of a StateSet over n states.
func words(n int) int { return (n + 63) / 64 }

// PropStates returns the set of states where proposition p holds:
// the one lookup an engine needs per atom. An unknown proposition
// holds nowhere.
func (k *Structure) PropStates(p string) StateSet {
	if id, ok := k.propID[p]; ok {
		return k.propStates[id]
	}
	return nil
}

// HasProp reports whether proposition p holds in state s.
func (k *Structure) HasProp(s int, p string) bool { return k.PropStates(p).Has(s) }

// SetProp makes proposition p hold in state s.
func (k *Structure) SetProp(s int, p string) {
	id := k.intern(p)
	for len(k.propStates) <= id {
		k.propStates = append(k.propStates, make(StateSet, words(k.N)))
	}
	k.propStates[id].add(s)
}

// intern returns p's ID, adding p to the table (without a state set)
// when it is new.
func (k *Structure) intern(p string) int {
	if id, ok := k.propID[p]; ok {
		return id
	}
	if k.propID == nil {
		k.propID = map[string]int{}
	}
	id := len(k.propNames)
	k.propID[p] = id
	k.propNames = append(k.propNames, p)
	return id
}

// PropsAt returns the sorted propositions that hold in state s.
func (k *Structure) PropsAt(s int) []string {
	var out []string
	for id, states := range k.propStates {
		if states.Has(s) {
			out = append(out, k.propNames[id])
		}
	}
	sort.Strings(out)
	return out
}

// Props returns the sorted set of all propositions that hold in at
// least one state.
func (k *Structure) Props() []string {
	out := make([]string, 0, len(k.propStates))
	for id, states := range k.propStates {
		if !states.empty() {
			out = append(out, k.propNames[id])
		}
	}
	sort.Strings(out)
	return out
}

// AddEdge inserts an edge (deduplicated), recording label on it unless
// the label is empty or already recorded.
func (k *Structure) AddEdge(from, to int, label string) {
	if !slices.Contains(k.Succs[from], to) {
		k.Succs[from] = append(k.Succs[from], to)
		k.Preds[to] = append(k.Preds[to], from)
	}
	if label == "" {
		return
	}
	e := [2]int{from, to}
	if !slices.Contains(k.labels[e], label) {
		if k.labels == nil {
			k.labels = map[[2]int][]string{}
		}
		k.labels[e] = append(k.labels[e], label)
	}
}

// EdgeLabels returns the distinct non-empty labels of the edge
// from → to in insertion order, or nil when there are none. For a
// structure built from a model these are the labels of the model
// transitions from → to in transition order, or "stutter" on the
// self-loop of a state no transition leaves.
func (k *Structure) EdgeLabels(from, to int) []string {
	if from < 0 || from >= k.N {
		return nil
	}
	var out []string
	add := func(l string) {
		if l != "" && !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	if m := k.model; m != nil {
		ts := m.Outgoing(from)
		for _, i := range ts {
			if _, t := m.Endpoints(int(i)); t == to {
				add(m.TransitionLabel(int(i)))
			}
		}
		if len(ts) == 0 && from == to {
			add("stutter")
		}
	}
	for _, l := range k.labels[[2]int{from, to}] {
		add(l)
	}
	return out
}

// Name returns state s's human-readable name: Names[s] for a structure
// made by New, and for one built from a model the state's
// "[variable=value, ...]" label (statemodel.Model.StateLabel),
// rendered on each call.
func (k *Structure) Name(s int) string {
	if k.Names == nil && k.model != nil {
		return k.model.StateLabel(s)
	}
	return k.Names[s]
}

// New creates an empty structure with n states, all initial.
func New(n int) *Structure {
	k := &Structure{
		N:     n,
		Succs: make([][]int, n),
		Preds: make([][]int, n),
		Names: make([]string, n),
	}
	for i := 0; i < n; i++ {
		k.Names[i] = fmt.Sprintf("s%d", i)
		k.Init = append(k.Init, i)
	}
	return k
}

// FromModel builds the Kripke structure of a state model. Every model
// state is initial (the environment may start anywhere); transitions
// with residual guards are included (they are possible behaviours —
// the sound over-approximation the paper accepts).
//
// The adjacency and edge labels are what New followed by one AddEdge
// per transition (and a "stutter" self-loop per deadlocked state)
// produces, built without per-edge allocation. Each source's successors are the targets of its
// bucket (statemodel.Model.Outgoing) in order of first appearance,
// repeats dropped by a per-target stamp; predecessors follow the first
// appearance of each edge in transition order. The adjacency lists are
// carved from arenas sized by the distinct edges, and the proposition
// bitsets from one arena.
func FromModel(m *statemodel.Model) *Structure {
	n, nt := len(m.States), m.NumTransitions()
	k := &Structure{
		N:     n,
		Init:  make([]int, n),
		Succs: make([][]int, n),
		Preds: make([][]int, n),
		model: m,
	}
	for s := range k.Init {
		k.Init[s] = s
	}

	// first marks the transitions that are the first of their edge;
	// stamp[t] is the source + 1 that last reached t. A deadlocked state
	// gets its stutter self-loop.
	first := make(StateSet, words(nt)) // a bitset over transitions
	stamp := make([]int32, n)
	inCount := make([]int32, n)
	edges := 0
	for s := range n {
		ts := m.Outgoing(s)
		if len(ts) == 0 {
			edges++
			inCount[s]++
			continue
		}
		for _, i := range ts {
			if _, to := m.Endpoints(int(i)); stamp[to] != int32(s)+1 {
				stamp[to] = int32(s) + 1
				first.add(int(i))
				edges++
				inCount[to]++
			}
		}
	}

	succArena := make([]int, edges)
	so := 0
	for s := range n {
		lo := so
		ts := m.Outgoing(s)
		if len(ts) == 0 {
			succArena[so] = s
			so++
		}
		for _, i := range ts {
			if first.Has(int(i)) {
				_, succArena[so] = m.Endpoints(int(i))
				so++
			}
		}
		k.Succs[s] = succArena[lo:so:so]
	}
	predArena := make([]int, edges)
	po := 0
	for s := range n {
		k.Preds[s] = predArena[po : po : po+int(inCount[s])]
		po += int(inCount[s])
	}
	for i := range nt {
		if first.Has(i) {
			from, to := m.Endpoints(i)
			k.Preds[to] = append(k.Preds[to], from)
		}
	}
	for s := range n {
		if len(m.Outgoing(s)) == 0 {
			k.Preds[s] = append(k.Preds[s], s)
		}
	}

	k.propositions(m)
	return k
}

// propositions fills the proposition table — every "variable=value",
// then the "ev:<event>" marker of each event ID — with the state
// bitsets carved from one arena.
func (k *Structure) propositions(m *statemodel.Model) {
	varProp := make([][]int, len(m.Vars))
	for vi, v := range m.Vars {
		varProp[vi] = make([]int, len(v.Values))
		for x, val := range v.Values {
			varProp[vi][x] = k.intern(v.Key + "=" + val)
		}
	}
	// Event IDs number the model's events in order of first use, the
	// order the markers are interned in.
	events := m.Events()
	evProp := make([]int32, len(events))
	for id, ev := range events {
		evProp[id] = int32(k.intern("ev:" + ev))
	}

	w := words(k.N)
	arena := make([]uint64, len(k.propNames)*w)
	k.propStates = make([]StateSet, len(k.propNames))
	for id := range k.propStates {
		k.propStates[id] = arena[id*w : (id+1)*w : (id+1)*w]
	}
	for i := range m.NumTransitions() {
		_, to := m.Endpoints(i)
		k.propStates[evProp[m.EventID(i)]].add(to)
	}
	for s, st := range m.States {
		for vi, x := range st.Idx {
			k.propStates[varProp[vi][x]].add(s)
		}
	}
}

// RenderPath formats a state path with edge labels for counterexample
// output.
func (k *Structure) RenderPath(path []int) string {
	var sb strings.Builder
	for i, s := range path {
		if i > 0 {
			sb.WriteString("\n  --[")
			sb.WriteString(strings.Join(k.EdgeLabels(path[i-1], s), " | "))
			sb.WriteString("]--> ")
		}
		sb.WriteString(k.Name(s))
	}
	return sb.String()
}
