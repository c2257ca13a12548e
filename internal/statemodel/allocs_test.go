//go:build !race

package statemodel_test

import (
	"runtime"
	"testing"

	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// TestBuildG3Allocs guards the per-path compilation of transition
// derivation, the map-free edge set and the in-place nondeterminism
// grouping: extracting G.3 must not fall back to per-state, per-edge
// or per-group allocation. The bound is twice the 1,233 allocations
// measured with go1.24.
func TestBuildG3Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	apps := groupApps(t, "G.3")
	const limit = 2_466
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
// against 9,441 with per-state label maps and an edge-label map. The
// bound is twice the 73 allocations measured with go1.24.
func TestKripkeG3Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	m, err := statemodel.Build(groupApps(t, "G.3")...)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 146
	allocs := testing.AllocsPerRun(3, func() { kripke.FromModel(m) })
	if allocs > limit {
		t.Fatalf("G.3 FromModel: %.0f allocs/op, want <= %d", allocs, limit)
	}
	t.Logf("G.3 FromModel: %.0f allocs/op", allocs)
}

// TestBuildG3Bytes guards the columnar transition relation: G.3's
// 66,816 transitions are 12-byte records in one pre-sized slice, not
// 160-byte Transitions (19.8 MB per BuildBudget before). The bound is
// 1.5 times the 2.29 MB measured with go1.24.
func TestBuildG3Bytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	apps := groupApps(t, "G.3")
	build := func() {
		if _, err := statemodel.BuildBudget(nil, statemodel.Options{}, apps...); err != nil {
			t.Fatal(err)
		}
	}
	const runs, limit = 3, 3_440_000
	build() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > limit {
		t.Fatalf("G.3 BuildBudget: %d B/op, want <= %d", bytes, limit)
	}
	t.Logf("G.3 BuildBudget: %d B/op", bytes)
}
