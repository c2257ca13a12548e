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
// and then test states by bit. Edges are numbered next to Succs, and
// each edge keeps the indices of the model transitions it came from;
// their labels, held by the model's transition prototypes, are read
// only for counterexamples (RenderPath).
package kripke

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// Structure is an explicit Kripke structure.
type Structure struct {
	N     int
	Init  []int
	Succs [][]int
	Preds [][]int
	Names []string // human-readable state names

	// The proposition table: propNames[id] names proposition id and
	// propStates[id] holds the states it is true in.
	propID     map[string]int
	propNames  []string
	propStates []StateSet

	// edgeOf[s][j] is the ID of the edge s → Succs[s][j]. Edge e's
	// label references are labRefs[labStart[e]:labStart[e+1]] in
	// insertion order: reference r < nTrans is model transition r's
	// label, any other names labels[r-nTrans].
	edgeOf   [][]int32
	labStart []int32
	labRefs  []int32
	model    *statemodel.Model
	nTrans   int
	labels   []string
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
	e := k.edge(from, to)
	if e < 0 {
		e = len(k.labStart) - 1
		k.labStart = append(k.labStart, k.labStart[e])
		k.Succs[from] = append(k.Succs[from], to)
		k.edgeOf[from] = append(k.edgeOf[from], int32(e))
		k.Preds[to] = append(k.Preds[to], from)
	}
	if label == "" {
		return
	}
	i := slices.Index(k.labels, label)
	if i < 0 {
		i = len(k.labels)
		k.labels = append(k.labels, label)
	}
	r := int32(k.nTrans + i)
	end := k.labStart[e+1]
	if slices.Contains(k.labRefs[k.labStart[e]:end], r) {
		return
	}
	k.labRefs = slices.Insert(k.labRefs, int(end), r)
	for j := e + 1; j < len(k.labStart); j++ {
		k.labStart[j]++
	}
}

// edge returns the ID of the edge from → to, or -1.
func (k *Structure) edge(from, to int) int {
	if from >= len(k.edgeOf) {
		return -1
	}
	for j, t := range k.Succs[from] {
		if t == to {
			return int(k.edgeOf[from][j])
		}
	}
	return -1
}

// EdgeLabels returns the distinct non-empty labels of the edge
// from → to in insertion order, or nil when there are none.
func (k *Structure) EdgeLabels(from, to int) []string {
	e := k.edge(from, to)
	if e < 0 {
		return nil
	}
	var out []string
	for _, r := range k.labRefs[k.labStart[e]:k.labStart[e+1]] {
		var l string
		if int(r) < k.nTrans {
			l = k.model.TransitionLabel(int(r))
		} else {
			l = k.labels[int(r)-k.nTrans]
		}
		if l != "" && !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

// New creates an empty structure with n states, all initial.
func New(n int) *Structure {
	k := &Structure{
		N:        n,
		Succs:    make([][]int, n),
		Preds:    make([][]int, n),
		Names:    make([]string, n),
		edgeOf:   make([][]int32, n),
		labStart: []int32{0},
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
// The result is what New followed by one AddEdge per transition (and a
// "stutter" self-loop per deadlocked state) produces, built without
// per-edge allocation: adjacency lists, edge IDs, the per-edge
// transition lists and the proposition bitsets are carved from arenas
// sized by the model's counts.
func FromModel(m *statemodel.Model) *Structure {
	n, nt := len(m.States), m.NumTransitions()
	k := &Structure{
		N:      n,
		Init:   make([]int, n),
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		Names:  make([]string, n),
		edgeOf: make([][]int32, n),
		model:  m,
		nTrans: nt,
	}
	for s := range k.Init {
		k.Init[s] = s
	}

	// A state has at most as many successors (predecessors) as
	// transitions leaving (entering) it.
	outCount := make([]int, n)
	inCount := make([]int, n)
	for i := range nt {
		from, to := m.Endpoints(i)
		outCount[from]++
		inCount[to]++
	}
	succArena := make([]int, nt)
	predArena := make([]int, nt)
	edgeArena := make([]int32, nt)
	so, po := 0, 0
	for s := 0; s < n; s++ {
		k.Succs[s] = succArena[so : so : so+outCount[s]]
		k.edgeOf[s] = edgeArena[so : so : so+outCount[s]]
		so += outCount[s]
		k.Preds[s] = predArena[po : po : po+inCount[s]]
		po += inCount[s]
	}

	// Edges in order of first appearance, and each transition's edge.
	edges := 0
	tEdge := make([]int32, nt)
	for i := range nt {
		from, to := m.Endpoints(i)
		e := k.edge(from, to)
		if e < 0 {
			e = edges
			edges++
			k.Succs[from] = append(k.Succs[from], to)
			k.edgeOf[from] = append(k.edgeOf[from], int32(e))
			k.Preds[to] = append(k.Preds[to], from)
		}
		tEdge[i] = int32(e)
	}
	k.edgeTransitions(tEdge, edges)
	k.propositions(m)

	for s := 0; s < n; s++ {
		// Total transition relation: deadlocked states self-loop.
		if len(k.Succs[s]) == 0 {
			k.AddEdge(s, s, "stutter")
		}
		k.Succs[s] = slices.Clip(k.Succs[s])
		k.Preds[s] = slices.Clip(k.Preds[s])
	}
	return k
}

// edgeTransitions lays out, per edge, the indices of its transitions
// in transition order: a counting sort of the transitions by edge.
func (k *Structure) edgeTransitions(tEdge []int32, edges int) {
	// Count into labStart[e] and sum to bucket ends, then fill each
	// bucket back to front, leaving labStart[e] at its start.
	k.labStart = make([]int32, edges+1)
	for _, e := range tEdge {
		k.labStart[e]++
	}
	for e := 1; e <= edges; e++ {
		k.labStart[e] += k.labStart[e-1]
	}
	k.labRefs = make([]int32, len(tEdge))
	for i := len(tEdge) - 1; i >= 0; i-- {
		e := tEdge[i]
		k.labStart[e]--
		k.labRefs[k.labStart[e]] = int32(i)
	}
}

// propositions fills the proposition table — every "variable=value",
// then the "ev:<event>" marker of each event ID — with the state bitsets
// carved from one arena, and sets every state's name
// (statemodel.Model.StateLabel) from the rendered propositions.
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
	for i := range k.nTrans {
		_, to := m.Endpoints(i)
		k.propStates[evProp[m.EventID(i)]].add(to)
	}

	// Names are "[p1, p2, ...]"; size the one string they share.
	size := 0
	for _, st := range m.States {
		size += 2 + 2*len(st.Idx)
		for vi, x := range st.Idx {
			size += len(k.propNames[varProp[vi][x]])
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	ends := make([]int, len(m.States))
	for s, st := range m.States {
		sb.WriteByte('[')
		for vi, x := range st.Idx {
			if vi > 0 {
				sb.WriteString(", ")
			}
			id := varProp[vi][x]
			sb.WriteString(k.propNames[id])
			k.propStates[id].add(s)
		}
		sb.WriteByte(']')
		ends[s] = sb.Len()
	}
	names := sb.String()
	start := 0
	for s, end := range ends {
		k.Names[s] = names[start:end]
		start = end
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
		sb.WriteString(k.Names[s])
	}
	return sb.String()
}
