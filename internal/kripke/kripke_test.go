package kripke

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

func modelOf(t *testing.T, name, src string) *statemodel.Model {
	t.Helper()
	app, err := ir.BuildSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := statemodel.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewAllInitial(t *testing.T) {
	k := New(5)
	if k.N != 5 || len(k.Init) != 5 {
		t.Errorf("N=%d init=%v", k.N, k.Init)
	}
	for s := 0; s < 5; s++ {
		if len(k.PropsAt(s)) != 0 {
			t.Errorf("state %d has labels", s)
		}
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	k := New(2)
	k.AddEdge(0, 1, "a")
	k.AddEdge(0, 1, "b")
	k.AddEdge(0, 1, "a")
	if len(k.Succs[0]) != 1 {
		t.Errorf("succs = %v", k.Succs[0])
	}
	if len(k.Preds[1]) != 1 {
		t.Errorf("preds = %v", k.Preds[1])
	}
	labels := k.EdgeLabels(0, 1)
	if len(labels) != 2 || labels[0] != "a" || labels[1] != "b" {
		t.Errorf("edge labels = %v", labels)
	}
}

func TestFromModelLabels(t *testing.T) {
	m := modelOf(t, "water-leak", paperapps.WaterLeakDetector)
	k := FromModel(m)
	if k.N != 4 {
		t.Fatalf("N = %d", k.N)
	}
	// Every state carries one var=value proposition per variable.
	for s := 0; s < k.N; s++ {
		count := 0
		for _, p := range k.PropsAt(s) {
			if !strings.HasPrefix(p, "ev:") {
				count++
			}
		}
		if count != 2 {
			t.Errorf("state %d has %d value props: %v", s, count, k.PropsAt(s))
		}
	}
	// Event markers exist on wet-event targets.
	marked := 0
	for s := 0; s < k.N; s++ {
		if k.HasProp(s, "ev:waterSensor.water.wet") {
			marked++
			if !k.HasProp(s, "valve.valve=closed") {
				t.Errorf("wet-marked state %d has open valve", s)
			}
		}
	}
	if marked == 0 {
		t.Error("no event-marked states")
	}
}

func TestFromModelTotality(t *testing.T) {
	m := modelOf(t, "water-leak", paperapps.WaterLeakDetector)
	k := FromModel(m)
	for s := 0; s < k.N; s++ {
		if len(k.Succs[s]) == 0 {
			t.Errorf("state %d deadlocks", s)
		}
	}
}

func TestPredsConsistent(t *testing.T) {
	m := modelOf(t, "smoke-alarm", paperapps.SmokeAlarm)
	k := FromModel(m)
	for s := 0; s < k.N; s++ {
		for _, tgt := range k.Succs[s] {
			found := false
			for _, p := range k.Preds[tgt] {
				if p == s {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing pred entry", s, tgt)
			}
		}
	}
}

func TestProps(t *testing.T) {
	m := modelOf(t, "water-leak", paperapps.WaterLeakDetector)
	k := FromModel(m)
	props := k.Props()
	for i := 1; i < len(props); i++ {
		if props[i-1] >= props[i] {
			t.Errorf("props not sorted: %v", props)
		}
	}
	want := map[string]bool{
		"valve.valve=open": true, "valve.valve=closed": true,
		"waterSensor.water=dry": true, "waterSensor.water=wet": true,
	}
	set := map[string]bool{}
	for _, p := range props {
		set[p] = true
	}
	for w := range want {
		if !set[w] {
			t.Errorf("missing prop %q in %v", w, props)
		}
	}
}

func TestRenderPath(t *testing.T) {
	k := New(3)
	k.Names[0] = "[a]"
	k.Names[1] = "[b]"
	k.Names[2] = "[c]"
	k.AddEdge(0, 1, "e1")
	k.AddEdge(1, 2, "e2")
	out := k.RenderPath([]int{0, 1, 2})
	for _, want := range []string{"[a]", "[b]", "[c]", "e1", "e2", "-->"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if got := k.RenderPath([]int{1}); got != "[b]" {
		t.Errorf("single-state render = %q", got)
	}
}
