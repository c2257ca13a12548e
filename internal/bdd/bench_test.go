package bdd

import "testing"

// benchWorkload is a relational-product-shaped exercise over the
// kernel: build an interleaved transition relation for an n-bit
// "halve" machine (next = cur/2), then iterate symbolic preimages from
// a seed set to a fixpoint — the same shape the symbolic CTL engine
// drives, scaled down to benchmark size.
func benchWorkload(m *Manager, bits int) Ref {
	cur := func(i int) int { return 2 * i }
	nxt := func(i int) int { return 2*i + 1 }

	eq := func(v int, w int) Ref { // var v ↔ var w
		return m.Or(m.And(m.Var(v), m.Var(w)), m.And(m.NVar(v), m.NVar(w)))
	}
	// next_i = cur_{i+1} (shift right by one), top next bit = 0.
	trans := m.NVar(nxt(bits - 1))
	for i := 0; i < bits-1; i++ {
		trans = m.And(trans, eq(nxt(i), cur(i+1)))
	}

	nextVars := map[int]bool{}
	curToNext := map[int]int{}
	for i := 0; i < bits; i++ {
		nextVars[nxt(i)] = true
		curToNext[cur(i)] = nxt(i)
	}
	vs := m.InternVarSet(nextVars)
	sh := m.InternShift(curToNext)

	// Seed: cur == 0. Fixpoint: backward reachability of the seed.
	seed := True
	for i := 0; i < bits; i++ {
		seed = m.And(seed, m.NVar(cur(i)))
	}
	z := seed
	for {
		next := m.RenameShift(z, sh)
		nz := m.Or(z, m.AndExistsSet(trans, next, vs))
		if nz == z {
			return z
		}
		z = nz
	}
}

const benchBits = 12

// BenchmarkBDDKernel runs the preimage-fixpoint workload on the
// Manager.
func BenchmarkBDDKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New(2 * benchBits)
		if benchWorkload(m, benchBits) == False {
			b.Fatal("fixpoint collapsed to false")
		}
	}
}

// TestBenchWorkloadFixpoint pins the benchmark workload's result, so a
// faster benchmark run cannot come from computing a different function.
func TestBenchWorkloadFixpoint(t *testing.T) {
	m := New(2 * benchBits)
	r := benchWorkload(m, benchBits)
	// Every state reaches 0 by repeated halving, so backward
	// reachability of {0} over current variables is the full cur-space:
	// 2^bits assignments × 2^bits free next-variable assignments.
	if got, want := m.SatCount(r), pow2(2*benchBits); got != want {
		t.Fatalf("fixpoint SatCount = %g, want %g", got, want)
	}
}
