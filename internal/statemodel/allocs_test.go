//go:build !race

package statemodel_test

import (
	"context"
	"runtime"
	"testing"

	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// TestBuildG3Allocs guards the per-path compilation of transition
// derivation, the map-free edge set, the source index and the
// per-source nondeterminism search: extracting G.3 under a budget, as
// core runs it, must not fall back to per-state, per-edge or per-group
// allocation. The bound is twice the 1,229 allocations measured with
// go1.24.
func TestBuildG3Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	apps := groupApps(t, "G.3")
	const limit = 2_458
	allocs := testing.AllocsPerRun(3, func() { buildG3(t, apps) })
	if allocs > limit {
		t.Fatalf("G.3 BuildBudget: %.0f allocs/op, want <= %d", allocs, limit)
	}
	t.Logf("G.3 BuildBudget: %.0f allocs/op", allocs)
}

// buildG3 extracts G.3 the way core does: under a fresh budget.
func buildG3(t *testing.T, apps []*ir.App) {
	b := guard.New(context.Background(), guard.Limits{})
	if _, err := statemodel.BuildBudget(b, statemodel.Options{}, apps...); err != nil {
		t.Fatal(err)
	}
}

// bytesPerRun returns the bytes f allocates per call, averaged over
// runs after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestKripkeG3Allocs guards the arena layout of the Kripke
// translation: propositions as bitsets, adjacency from the model's
// source buckets, edge labels and state names left to the model keep
// G.3 (66,816 transitions) to a few dozen allocations, against 9,441
// with per-state label maps and an edge-label map. The bound is twice
// the 66 allocations measured with go1.24.
func TestKripkeG3Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	m, err := statemodel.Build(groupApps(t, "G.3")...)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 132
	allocs := testing.AllocsPerRun(3, func() { kripke.FromModel(m) })
	if allocs > limit {
		t.Fatalf("G.3 FromModel: %.0f allocs/op, want <= %d", allocs, limit)
	}
	t.Logf("G.3 FromModel: %.0f allocs/op", allocs)
}

// TestKripkeG3Bytes guards the size of the Kripke translation: G.3's
// adjacency arenas hold its 41,760 distinct edges rather than one slot
// per transition, and no edge-label index or state-name string is
// built (3.0 MB per FromModel before). The bound is 1.5 times the
// 0.85 MB measured with go1.24.
func TestKripkeG3Bytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	m, err := statemodel.Build(groupApps(t, "G.3")...)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1_275_000
	bytes := bytesPerRun(3, func() { kripke.FromModel(m) })
	if bytes > limit {
		t.Fatalf("G.3 FromModel: %d B/op, want <= %d", bytes, limit)
	}
	t.Logf("G.3 FromModel: %d B/op", bytes)
}

// TestBuildG3Bytes guards the columnar transition relation: G.3's
// 66,816 transitions are 12-byte records in one pre-sized slice, not
// 160-byte Transitions (19.8 MB per BuildBudget before), and the
// source index adds one 4-byte entry per transition while the dedup
// and nondeterminism search stopped sorting the relation (2.29 MB
// before). The bound is 1.5 times the 1.46 MB measured with go1.24.
func TestBuildG3Bytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2,304-state G.3 model")
	}
	apps := groupApps(t, "G.3")
	const limit = 2_200_000
	bytes := bytesPerRun(3, func() { buildG3(t, apps) })
	if bytes > limit {
		t.Fatalf("G.3 BuildBudget: %d B/op, want <= %d", bytes, limit)
	}
	t.Logf("G.3 BuildBudget: %d B/op", bytes)
}
