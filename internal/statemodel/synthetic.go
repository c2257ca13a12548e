package statemodel

import (
	"fmt"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
)

// NewSynthetic constructs an empty model over the given variables
// without running the extraction pipeline. It exists for harnesses
// that need models with a known shape — the conformance generators
// feed synthetic models through the Kripke translation, the SMV
// emitter, and all model-checking engines — and for tests.
//
// Each variable needs a non-empty Key and a non-empty value domain;
// duplicate keys are rejected. States and transitions are added with
// AddState and AddTransition.
func NewSynthetic(vars []*Var) (*Model, error) {
	m := &Model{varIdx: map[string]int{}, stateID: map[uint64]int{}}
	for _, v := range vars {
		if v.Key == "" {
			return nil, fmt.Errorf("statemodel: synthetic variable with empty key")
		}
		if len(v.Values) == 0 {
			return nil, fmt.Errorf("statemodel: synthetic variable %s has an empty domain", v.Key)
		}
		if _, dup := m.varIdx[v.Key]; dup {
			return nil, fmt.Errorf("statemodel: duplicate synthetic variable %s", v.Key)
		}
		m.varIdx[v.Key] = len(m.Vars)
		m.Vars = append(m.Vars, v)
	}
	if err := m.initPacking(); err != nil {
		return nil, err
	}
	return m, nil
}

// AddState interns the state with the given domain indices (one per
// model variable, in variable order) and returns its ID. Re-adding an
// existing assignment returns the original ID.
func (m *Model) AddState(idx []int) (int, error) {
	if len(idx) != len(m.Vars) {
		return -1, fmt.Errorf("statemodel: state has %d indices for %d variables", len(idx), len(m.Vars))
	}
	for vi, i := range idx {
		if i < 0 || i >= len(m.Vars[vi].Values) {
			return -1, fmt.Errorf("statemodel: index %d out of domain for %s", i, m.Vars[vi].Key)
		}
	}
	m.outStart = nil
	return m.internState(idx), nil
}

// AddTransition appends a labeled edge between two interned states.
// The event's VarKey/Value become the transition label; a zero guard
// means the transition is unconditional.
func (m *Model) AddTransition(from, to int, ev Event, g pathcond.Cond) error {
	if from < 0 || from >= len(m.States) || to < 0 || to >= len(m.States) {
		return fmt.Errorf("statemodel: transition %d->%d out of range (%d states)", from, to, len(m.States))
	}
	if m.eventIDs == nil {
		m.eventIDs = make(map[string]int32, len(m.events))
		for id, name := range m.events {
			m.eventIDs[name] = int32(id)
		}
	}
	name := ev.String()
	id, ok := m.eventIDs[name]
	if !ok {
		id = int32(len(m.events))
		m.eventIDs[name] = id
		m.events = append(m.events, name)
	}
	m.protos = append(m.protos, prototype{Transition: Transition{Event: ev, Guard: g}, event: id})
	m.edges = append(m.edges, edge{from: int32(from), to: int32(to), proto: int32(len(m.protos) - 1)})
	m.outStart = nil
	return nil
}

// DeviceEvent builds a device-attribute event label for synthetic
// transitions ("capability.attribute" changing to value).
func DeviceEvent(varKey, value string) Event {
	return Event{VarKey: varKey, Value: value, Kind: ir.DeviceEvent}
}

// NewSyntheticCollapse builds the d²-state scaling-benchmark model
// used by `soteria-bench -bdd-bench`: two variables with d values
// each, every product state present, and a "collapse" transition
// s → ⌊s/2⌋ from every non-zero state (state s is the assignment
// (s/d, s%d)). Every state reaches state 0, and backward-reachability
// fixpoints converge in ~log₂(d²) iterations — so the symbolic engine
// is exercised at 10³–10⁶ states without the fixpoint's iteration
// count growing linearly in the state count. State 0 deadlocks and
// picks up the Kripke translation's stutter self-loop.
func NewSyntheticCollapse(d int) (*Model, error) {
	if d < 2 {
		return nil, fmt.Errorf("statemodel: collapse model needs a domain of at least 2, got %d", d)
	}
	vals := make([]string, d)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	vars := []*Var{
		{Key: "dev0.attr", Cap: "dev0", Attr: "attr", Values: vals},
		{Key: "dev1.attr", Cap: "dev1", Attr: "attr", Values: vals},
	}
	m, err := NewSynthetic(vars)
	if err != nil {
		return nil, err
	}
	n := d * d
	for s := 0; s < n; s++ {
		if _, err := m.AddState([]int{s / d, s % d}); err != nil {
			return nil, err
		}
	}
	for s := 1; s < n; s++ {
		t := s / 2
		ev := DeviceEvent("dev1.attr", vals[t%d])
		if err := m.AddTransition(s, t, ev, pathcond.True()); err != nil {
			return nil, err
		}
	}
	return m, nil
}
