//go:build !race

package market

import "testing"

// TestParseCorpusAllocs guards the front end's allocation profile:
// one pre-sized token slice per source, identifier, number, operator
// and escape-free literal text sliced from the source, and no
// per-rune string building. The bound is twice the 15,104 allocations
// measured with go1.24 (30,711 with a growing 80-byte token slice and
// rune-by-rune text).
func TestParseCorpusAllocs(t *testing.T) {
	apps := All()
	const limit = 30_208
	allocs := testing.AllocsPerRun(3, func() { parseCorpus(t, apps) })
	if allocs > limit {
		t.Fatalf("market corpus parse: %.0f allocs/op, want <= %d", allocs, limit)
	}
	t.Logf("market corpus parse: %.0f allocs/op", allocs)
}
