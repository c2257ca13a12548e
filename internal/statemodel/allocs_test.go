//go:build !race

package statemodel_test

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// TestBuildG3Allocs guards the per-path compilation of transition
// derivation and the map-free edge set: extracting G.3 must not fall
// back to per-state or per-edge allocation. The bound is twice the
// 5,803 allocations measured with go1.24.
func TestBuildG3Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	apps := groupApps(t, "G.3")
	const limit = 11_606
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := statemodel.BuildBudget(nil, statemodel.Options{}, apps...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Fatalf("G.3 BuildBudget: %.0f allocs/op, want <= %d", allocs, limit)
	}
	t.Logf("G.3 BuildBudget: %.0f allocs/op", allocs)
}

// TestKripkeG3Allocs guards the arena layout of the Kripke
// translation: propositions as bitsets and edge labels as transition
// indices keep G.3 (66,816 transitions) to a few dozen allocations,
// against 9,441 with per-state label maps and an edge-label map.
func TestKripkeG3Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	m, err := statemodel.Build(groupApps(t, "G.3")...)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1_000
	allocs := testing.AllocsPerRun(3, func() { kripke.FromModel(m) })
	if allocs > limit {
		t.Fatalf("G.3 FromModel: %.0f allocs/op, want <= %d", allocs, limit)
	}
	t.Logf("G.3 FromModel: %.0f allocs/op", allocs)
}
