//go:build !race

package statemodel_test

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// TestBuildG3Allocs guards the per-path compilation of transition
// derivation: extracting G.3 must not fall back to per-state
// allocation. The bound is 10x below the per-state builder's 2.1M
// allocations.
func TestBuildG3Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	apps := groupApps(t, "G.3")
	const limit = 210_000
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
