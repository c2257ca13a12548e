package modelcheck

import (
	"sync"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/kripke"
)

func memoTestStructure(t *testing.T) *kripke.Structure {
	t.Helper()
	// 0 → 1 → 2 → 0 ring; p on 1, q on 2.
	k := &kripke.Structure{
		N:     3,
		Init:  []int{0},
		Succs: [][]int{{1}, {2}, {0}},
		Preds: [][]int{{2}, {0}, {1}},
	}
	k.SetProp(1, "p")
	k.SetProp(2, "q")
	return k
}

// TestMemoSharesSubformulasAcrossChecks pins the cross-formula memo:
// checking two formulas that share a subterm through one Memo caches
// the shared subterm once, and memoized runs return the same results
// as fresh ones.
func TestMemoSharesSubformulasAcrossChecks(t *testing.T) {
	k := memoTestStructure(t)
	shared := ctl.EF{X: ctl.Prop{Name: "p"}}
	f1 := ctl.AG{X: shared}
	f2 := ctl.Or{L: shared, R: ctl.Prop{Name: "q"}}

	memo := NewMemo()
	r1 := CheckMemoBudget(k, f1, nil, memo)
	sizeAfterFirst := memo.Size()
	if sizeAfterFirst == 0 {
		t.Fatal("memo empty after first check")
	}
	r2 := CheckMemoBudget(k, f2, nil, memo)

	// The shared EF subterm (and its leaves) must not be recomputed:
	// only f2's genuinely new subterms add entries.
	if grew := memo.Size() - sizeAfterFirst; grew >= 4 {
		t.Errorf("second check added %d memo entries; shared subterms not reused", grew)
	}

	// Memoized results must equal fresh unmemoized ones.
	for i, tc := range []struct {
		f   ctl.Formula
		got *Result
	}{{f1, r1}, {f2, r2}} {
		fresh := Check(k, tc.f)
		if fresh.Holds != tc.got.Holds {
			t.Errorf("formula %d: memoized Holds=%v, fresh=%v", i, tc.got.Holds, fresh.Holds)
		}
		for s := range fresh.Sat {
			if fresh.Sat[s] != tc.got.Sat[s] {
				t.Errorf("formula %d: Sat[%d] memoized=%v fresh=%v", i, s, tc.got.Sat[s], fresh.Sat[s])
			}
		}
	}
}

func TestMemoNilSafe(t *testing.T) {
	var mm *Memo
	if _, ok := mm.get("x"); ok {
		t.Error("nil memo hit")
	}
	mm.put("x", []bool{true}) // must not panic
	if mm.Size() != 0 {
		t.Error("nil memo has size")
	}
	k := memoTestStructure(t)
	r := CheckMemoBudget(k, ctl.Prop{Name: "p"}, nil, nil)
	if r.Holds {
		t.Error("p should not hold initially")
	}
}

// TestMemoConcurrentSweep runs parallel checks through one shared memo
// (the shape of the 35-property sweep) and verifies agreement with the
// sequential engine. Run with -race to exercise the locking.
func TestMemoConcurrentSweep(t *testing.T) {
	k := memoTestStructure(t)
	formulas := []ctl.Formula{
		ctl.AG{X: ctl.EF{X: ctl.Prop{Name: "p"}}},
		ctl.EF{X: ctl.Prop{Name: "p"}},
		ctl.EF{X: ctl.Prop{Name: "q"}},
		ctl.AG{X: ctl.Implies{L: ctl.Prop{Name: "p"}, R: ctl.EF{X: ctl.Prop{Name: "q"}}}},
		ctl.AF{X: ctl.Prop{Name: "p"}},
	}
	memo := NewMemo()
	got := make([]*Result, len(formulas))
	var wg sync.WaitGroup
	for i, f := range formulas {
		wg.Add(1)
		go func(i int, f ctl.Formula) {
			defer wg.Done()
			got[i] = CheckMemoBudget(k, f, nil, memo)
		}(i, f)
	}
	wg.Wait()
	for i, f := range formulas {
		want := Check(k, f)
		if got[i].Holds != want.Holds {
			t.Errorf("formula %d: concurrent memoized Holds=%v, want %v", i, got[i].Holds, want.Holds)
		}
	}
}
