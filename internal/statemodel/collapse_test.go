package statemodel

import "testing"

func TestNewSyntheticCollapseShape(t *testing.T) {
	const d = 7
	m, err := NewSyntheticCollapse(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.States); got != d*d {
		t.Fatalf("states = %d, want %d", got, d*d)
	}
	// Every non-zero state has exactly one outgoing edge, to ⌊s/2⌋;
	// state 0 has none (the Kripke translation adds its stutter loop).
	if got := m.NumTransitions(); got != d*d-1 {
		t.Fatalf("transitions = %d, want %d", got, d*d-1)
	}
	seen := make([]bool, d*d)
	for _, tr := range transitionsOf(m) {
		if seen[tr.From] {
			t.Fatalf("state %d has two outgoing transitions", tr.From)
		}
		seen[tr.From] = true
		if tr.To != tr.From/2 {
			t.Fatalf("transition %d -> %d, want -> %d", tr.From, tr.To, tr.From/2)
		}
	}
	if seen[0] {
		t.Fatal("state 0 should deadlock")
	}
	// State s is the assignment (s/d, s%d).
	for s, st := range m.States {
		if st.Idx[0] != s/d || st.Idx[1] != s%d {
			t.Fatalf("state %d decodes to (%d,%d), want (%d,%d)",
				s, st.Idx[0], st.Idx[1], s/d, s%d)
		}
	}
}

func TestNewSyntheticCollapseRejectsTinyDomains(t *testing.T) {
	if _, err := NewSyntheticCollapse(1); err == nil {
		t.Fatal("d=1 should be rejected")
	}
}
