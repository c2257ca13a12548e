package symbolic

import (
	"math/rand"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

func TestAgainstExplicitOnSmallStructure(t *testing.T) {
	k := kripke.New(4)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 0, "")
	k.AddEdge(2, 3, "")
	k.AddEdge(3, 3, "")
	k.SetProp(3, "goal")
	k.SetProp(0, "a")
	k.SetProp(1, "a")
	k.SetProp(2, "a")

	e := New(k)
	for _, src := range []string{
		`EF "goal"`, `AF "goal"`, `AG "a"`, `EG "a"`,
		`E["a" U "goal"]`, `A["a" U "goal"]`, `EX "a"`, `AX "a"`,
		`AG ("a" | "goal")`, `!EF ("a" & "goal")`,
	} {
		f := ctl.MustParse(src)
		exp := modelcheck.Check(k, f)
		sym := e.Check(f)
		for s := 0; s < k.N; s++ {
			if exp.Sat[s] != sym.Sat[s] {
				t.Errorf("%s at state %d: explicit=%t symbolic=%t", src, s, exp.Sat[s], sym.Sat[s])
			}
		}
		if exp.Holds != sym.Holds {
			t.Errorf("%s: Holds explicit=%t symbolic=%t", src, exp.Holds, sym.Holds)
		}
	}
}

// TestRandomStructuresAgree cross-checks the two engines on random
// graphs — the strongest correctness evidence for both.
func TestRandomStructuresAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	formulas := []ctl.Formula{
		ctl.MustParse(`AG ("p" -> AF "q")`),
		ctl.MustParse(`EF ("p" & "q")`),
		ctl.MustParse(`AG (EF "q")`),
		ctl.MustParse(`E[!"q" U "p"]`),
		ctl.MustParse(`A[true U "q"]`),
		ctl.MustParse(`AX (EX "p")`),
		ctl.MustParse(`EG !"q"`),
	}
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(14)
		k := kripke.New(n)
		for s := 0; s < n; s++ {
			// 1-3 successors each; ensure totality.
			m := 1 + rng.Intn(3)
			for j := 0; j < m; j++ {
				k.AddEdge(s, rng.Intn(n), "")
			}
			if rng.Intn(2) == 0 {
				k.SetProp(s, "p")
			}
			if rng.Intn(3) == 0 {
				k.SetProp(s, "q")
			}
		}
		e := New(k)
		for _, f := range formulas {
			exp := modelcheck.Check(k, f)
			sym := e.Check(f)
			for s := 0; s < n; s++ {
				if exp.Sat[s] != sym.Sat[s] {
					t.Fatalf("trial %d, %s, state %d: explicit=%t symbolic=%t",
						trial, f, s, exp.Sat[s], sym.Sat[s])
				}
			}
		}
	}
}

func TestSymbolicOnPaperApp(t *testing.T) {
	app, err := ir.BuildSource("smoke-alarm", paperapps.SmokeAlarm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := statemodel.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	k := kripke.FromModel(m)
	e := New(k)
	f := ctl.MustParse(`AG ("ev:smokeDetector.smoke.detected" -> "alarm.alarm=siren")`)
	r := e.Check(f)
	if !r.Holds {
		t.Error("P.10 should hold symbolically for the correct app")
	}
	exp := modelcheck.Check(k, f)
	if exp.Holds != r.Holds {
		t.Error("engines disagree")
	}
}

func TestNodeCountReported(t *testing.T) {
	k := kripke.New(3)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	e := New(k)
	if e.NodeCount() <= 2 {
		t.Error("node count should exceed terminals")
	}
}
