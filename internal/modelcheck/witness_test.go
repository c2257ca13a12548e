package modelcheck

import (
	"math/rand"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/kripke"
)

func TestWitnessEX(t *testing.T) {
	k := kripke.New(3)
	k.AddEdge(0, 1, "")
	k.AddEdge(0, 2, "")
	k.AddEdge(1, 1, "")
	k.AddEdge(2, 2, "")
	k.SetProp(2, "p")
	path, _, ok := Witness(k, ctl.MustParse(`EX "p"`).(ctl.EX), 0)
	if !ok || len(path) != 2 || path[1] != 2 {
		t.Errorf("path = %v ok=%t", path, ok)
	}
	if _, _, ok := Witness(k, ctl.MustParse(`EX "p"`), 1); ok {
		t.Error("EX p does not hold at 1")
	}
}

func TestWitnessEF(t *testing.T) {
	k := kripke.New(4)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 3, "")
	k.AddEdge(3, 3, "")
	k.SetProp(3, "goal")
	path, _, ok := Witness(k, ctl.MustParse(`EF "goal"`), 0)
	if !ok || len(path) != 4 || path[3] != 3 {
		t.Errorf("path = %v", path)
	}
}

func TestWitnessEU(t *testing.T) {
	// 0(a) -> 1(a) -> 2(b); also 0 -> 3 (dead, no a/b).
	k := kripke.New(4)
	k.AddEdge(0, 1, "")
	k.AddEdge(0, 3, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	k.AddEdge(3, 3, "")
	k.SetProp(0, "a")
	k.SetProp(1, "a")
	k.SetProp(2, "b")
	path, _, ok := Witness(k, ctl.MustParse(`E["a" U "b"]`), 0)
	if !ok {
		t.Fatal("witness missing")
	}
	// Every non-final state satisfies a; final satisfies b.
	for i, s := range path {
		if i == len(path)-1 {
			if !k.HasProp(s, "b") {
				t.Errorf("final state %d lacks b", s)
			}
		} else if !k.HasProp(s, "a") {
			t.Errorf("intermediate state %d lacks a", s)
		}
	}
}

func TestWitnessEG(t *testing.T) {
	k := kripke.New(3)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 0, "")
	k.AddEdge(0, 2, "")
	k.AddEdge(2, 2, "")
	k.SetProp(0, "p")
	k.SetProp(1, "p")
	path, loop, ok := Witness(k, ctl.MustParse(`EG "p"`), 0)
	if !ok || loop < 0 {
		t.Fatalf("path=%v loop=%d ok=%t", path, loop, ok)
	}
	for _, s := range path {
		if !k.HasProp(s, "p") {
			t.Errorf("lasso state %d lacks p", s)
		}
	}
}

func TestWitnessUnsupportedShape(t *testing.T) {
	k := kripke.New(1)
	k.AddEdge(0, 0, "")
	if _, _, ok := Witness(k, ctl.MustParse(`AG "p"`), 0); ok {
		t.Error("AG is not existential")
	}
}

// Property: every EF witness on random structures is a real path
// ending in a satisfying state.
func TestWitnessEFRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		k := randomStructure(rng, 2+rng.Intn(10))
		f := ctl.MustParse(`EF "p"`)
		r := Check(k, f)
		for s := 0; s < k.N; s++ {
			path, _, ok := Witness(k, f, s)
			if ok != r.Sat[s] {
				t.Fatalf("trial %d: witness ok=%t but Sat=%t at %d", trial, ok, r.Sat[s], s)
			}
			if !ok {
				continue
			}
			if !k.HasProp(path[len(path)-1], "p") {
				t.Fatalf("trial %d: witness ends in non-p state", trial)
			}
			for i := 0; i+1 < len(path); i++ {
				found := false
				for _, succ := range k.Succs[path[i]] {
					if succ == path[i+1] {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: witness step %d invalid", trial, i)
				}
			}
		}
	}
}
