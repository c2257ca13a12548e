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
	N      int
	Init   []int
	Succs  [][]int
	Preds  [][]int
	Labels []map[string]bool
	Names  []string // human-readable state names
	// EdgeInfo retains, per (from, to) pair, the transition labels —
	// used for counterexample rendering.
	EdgeInfo map[[2]int][]string
}

// HasProp reports whether proposition p holds in state s.
func (k *Structure) HasProp(s int, p string) bool { return k.Labels[s][p] }

// AddEdge inserts an edge (deduplicated).
func (k *Structure) AddEdge(from, to int, label string) {
	for _, t := range k.Succs[from] {
		if t == to {
			if label != "" {
				k.EdgeInfo[[2]int{from, to}] = appendUnique(k.EdgeInfo[[2]int{from, to}], label)
			}
			return
		}
	}
	k.Succs[from] = append(k.Succs[from], to)
	k.Preds[to] = append(k.Preds[to], from)
	if label != "" {
		k.EdgeInfo[[2]int{from, to}] = appendUnique(k.EdgeInfo[[2]int{from, to}], label)
	}
}

func appendUnique(ss []string, s string) []string {
	for _, t := range ss {
		if t == s {
			return ss
		}
	}
	return append(ss, s)
}

// New creates an empty structure with n states, all initial.
func New(n int) *Structure {
	k := &Structure{
		N:        n,
		Succs:    make([][]int, n),
		Preds:    make([][]int, n),
		Labels:   make([]map[string]bool, n),
		Names:    make([]string, n),
		EdgeInfo: map[[2]int][]string{},
	}
	for i := 0; i < n; i++ {
		k.Labels[i] = map[string]bool{}
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
// per-edge allocation: adjacency lists and edge labels are carved
// from arenas sized by the transition counts.
func FromModel(m *statemodel.Model) *Structure {
	n := len(m.States)
	k := &Structure{
		N:      n,
		Init:   make([]int, n),
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		Labels: make([]map[string]bool, n),
		Names:  make([]string, n),
	}
	stateLabels(m, k)

	// A state has at most as many successors (predecessors) as
	// transitions leaving (entering) it.
	outCount := make([]int, n)
	inCount := make([]int, n)
	for _, t := range m.Transitions {
		outCount[t.From]++
		inCount[t.To]++
	}
	succArena := make([]int, len(m.Transitions))
	predArena := make([]int, len(m.Transitions))
	edgeArena := make([]int, len(m.Transitions))
	edgeOf := make([][]int, n) // edge IDs, parallel to Succs
	so, po := 0, 0
	for s := 0; s < n; s++ {
		k.Succs[s] = succArena[so : so : so+outCount[s]]
		edgeOf[s] = edgeArena[so : so : so+outCount[s]]
		so += outCount[s]
		k.Preds[s] = predArena[po : po : po+inCount[s]]
		po += inCount[s]
	}

	// Edges in order of first appearance, and each transition's edge.
	edges := make([][2]int, 0, len(m.Transitions))
	tEdge := make([]int, len(m.Transitions))
	for i := range m.Transitions {
		t := &m.Transitions[i]
		e := -1
		for j, to := range k.Succs[t.From] {
			if to == t.To {
				e = edgeOf[t.From][j]
				break
			}
		}
		if e < 0 {
			e = len(edges)
			edges = append(edges, [2]int{t.From, t.To})
			k.Succs[t.From] = append(k.Succs[t.From], t.To)
			edgeOf[t.From] = append(edgeOf[t.From], e)
			k.Preds[t.To] = append(k.Preds[t.To], t.From)
		}
		tEdge[i] = e
	}
	eventMarkers(m, k, inCount)

	k.EdgeInfo = edgeLabels(m, edges, tEdge)

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

// edgeLabels returns, per edge, the distinct labels of its
// transitions in transition order, carved from one arena.
func edgeLabels(m *statemodel.Model, edges [][2]int, tEdge []int) map[[2]int][]string {
	off := make([]int, len(edges)+1)
	for _, e := range tEdge {
		off[e+1]++
	}
	for e := range edges {
		off[e+1] += off[e]
	}
	arena := make([]string, len(m.Transitions))
	n := make([]int, len(edges))
	for i := range m.Transitions {
		e := tEdge[i]
		l := m.Transitions[i].Label()
		if l == "" || slices.Contains(arena[off[e]:off[e]+n[e]], l) {
			continue
		}
		arena[off[e]+n[e]] = l
		n[e]++
	}
	info := make(map[[2]int][]string, len(edges))
	for e, key := range edges {
		if lo, hi := off[e], off[e]+n[e]; hi > lo {
			info[key] = arena[lo:hi:hi]
		}
	}
	return info
}

// eventMarkers labels each state with "ev:<event>" for every event of
// a transition entering it. Markers are rendered once per distinct
// event, and each (state, event) pair is set once: transitions are
// visited grouped by target, with a per-event stamp.
func eventMarkers(m *statemodel.Model, k *Structure, inCount []int) {
	evID := map[statemodel.Event]int{}
	var markers []string
	tev := make([]int, len(m.Transitions))
	for i := range m.Transitions {
		ev := m.Transitions[i].Event
		// Runs of transitions share an event; look up only changes.
		if i > 0 && ev == m.Transitions[i-1].Event {
			tev[i] = tev[i-1]
			continue
		}
		id, ok := evID[ev]
		if !ok {
			id = len(markers)
			evID[ev] = id
			markers = append(markers, "ev:"+ev.String())
		}
		tev[i] = id
	}
	start := make([]int, len(inCount)+1)
	for s, c := range inCount {
		start[s+1] = start[s] + c
	}
	byTarget := make([]int, len(m.Transitions))
	for i := range m.Transitions {
		to := m.Transitions[i].To
		byTarget[start[to]] = i
		start[to]++
	}
	stamp := make([]int, len(markers)) // target+1 that last set the marker
	for _, i := range byTarget {
		to, id := m.Transitions[i].To, tev[i]
		if stamp[id] != to+1 {
			stamp[id] = to + 1
			k.Labels[to][markers[id]] = true
		}
	}
}

// stateLabels sets every state's name (statemodel.Model.StateLabel),
// its "variable=value" propositions and its initial flag, rendering
// each proposition once and all names into one string.
func stateLabels(m *statemodel.Model, k *Structure) {
	props := make([][]string, len(m.Vars))
	for vi, v := range m.Vars {
		props[vi] = make([]string, len(v.Values))
		for i, x := range v.Values {
			props[vi][i] = v.Key + "=" + x
		}
	}
	var sb strings.Builder
	ends := make([]int, len(m.States))
	for s, st := range m.States {
		labels := make(map[string]bool, len(st.Idx)+1)
		sb.WriteByte('[')
		for vi, x := range st.Idx {
			if vi > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(props[vi][x])
			labels[props[vi][x]] = true
		}
		sb.WriteByte(']')
		ends[s] = sb.Len()
		k.Labels[s] = labels
		k.Init[s] = s
	}
	names := sb.String()
	for s, end := range ends {
		start := 0
		if s > 0 {
			start = ends[s-1]
		}
		k.Names[s] = names[start:end]
	}
}

// Props returns the sorted set of all propositions used in the
// structure.
func (k *Structure) Props() []string {
	set := map[string]bool{}
	for _, l := range k.Labels {
		for p := range l {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// RenderPath formats a state path with edge labels for counterexample
// output.
func (k *Structure) RenderPath(path []int) string {
	var sb strings.Builder
	for i, s := range path {
		if i > 0 {
			labels := k.EdgeInfo[[2]int{path[i-1], s}]
			sb.WriteString("\n  --[")
			sb.WriteString(strings.Join(labels, " | "))
			sb.WriteString("]--> ")
		}
		sb.WriteString(k.Names[s])
	}
	return sb.String()
}
