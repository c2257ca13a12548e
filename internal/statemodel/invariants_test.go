package statemodel

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/pathcond"
)

// checkInvariants asserts the structural invariants every extracted
// model must satisfy.
func checkInvariants(t *testing.T, label string, m *Model) {
	t.Helper()
	// Variables: unique keys, non-empty deterministic domains,
	// ValueConds parallel for numeric vars.
	seen := map[string]bool{}
	for _, v := range m.Vars {
		if seen[v.Key] {
			t.Errorf("%s: duplicate variable %s", label, v.Key)
		}
		seen[v.Key] = true
		if len(v.Values) == 0 {
			t.Errorf("%s: %s has empty domain", label, v.Key)
		}
		if v.Numeric && len(v.ValueConds) != len(v.Values) {
			t.Errorf("%s: %s conds/values mismatch", label, v.Key)
		}
		vseen := map[string]bool{}
		for _, val := range v.Values {
			if vseen[val] {
				t.Errorf("%s: %s duplicate value %q", label, v.Key, val)
			}
			vseen[val] = true
		}
		if v.Numeric {
			for i, c := range v.ValueConds {
				if !pathcond.Feasible(c) {
					t.Errorf("%s: %s value %d has infeasible defining condition", label, v.Key, i)
				}
			}
		}
	}
	// States: the full product, each index in range.
	want := 1
	for _, v := range m.Vars {
		want *= len(v.Values)
	}
	if len(m.States) != want {
		t.Errorf("%s: states = %d, want product %d", label, len(m.States), want)
	}
	for si, s := range m.States {
		if len(s.Idx) != len(m.Vars) {
			t.Fatalf("%s: state %d has %d indices", label, si, len(s.Idx))
		}
		for vi, idx := range s.Idx {
			if idx < 0 || idx >= len(m.Vars[vi].Values) {
				t.Fatalf("%s: state %d index %d out of range", label, si, vi)
			}
		}
	}
	// Transitions: endpoints valid, residual guards feasible, app
	// index valid, device-event transitions set the trigger variable
	// to the event value.
	for ti, tr := range transitionsOf(m) {
		if tr.From < 0 || tr.From >= len(m.States) || tr.To < 0 || tr.To >= len(m.States) {
			t.Fatalf("%s: transition %d endpoints out of range", label, ti)
		}
		if tr.App < 0 || tr.App >= len(m.Apps) {
			t.Fatalf("%s: transition %d app index %d", label, ti, tr.App)
		}
		if !pathcond.Feasible(tr.Guard) {
			t.Errorf("%s: transition %d has infeasible residual guard %s", label, ti, tr.Guard)
		}
		if v, vi, ok := m.VarByKey(tr.Event.VarKey); ok {
			got := v.Values[m.States[tr.To].Idx[vi]]
			if got != tr.Event.Value {
				t.Errorf("%s: transition %d event %s but target has %s=%s",
					label, ti, tr.Event, tr.Event.VarKey, got)
			}
		}
	}
}

func TestModelInvariantsPaperApps(t *testing.T) {
	for _, s := range [][2]string{
		{"smoke-alarm", paperapps.SmokeAlarm},
		{"buggy", paperapps.BuggySmokeAlarm},
		{"water-leak", paperapps.WaterLeakDetector},
		{"thermostat", paperapps.ThermostatEnergyControl},
	} {
		app, err := ir.BuildSource(s[0], s[1])
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(app)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, s[0], m)
	}
}

func TestModelInvariantsMarketCorpus(t *testing.T) {
	for _, spec := range market.All() {
		app, err := spec.Parse()
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(app)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		checkInvariants(t, spec.ID, m)
	}
}

func TestModelInvariantsGroups(t *testing.T) {
	for _, g := range market.Groups() {
		var apps []*ir.App
		for _, id := range g.Members {
			spec, _ := market.ByID(id)
			app, err := spec.Parse()
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, app)
		}
		m, err := Build(apps...)
		if err != nil {
			t.Fatalf("%s: %v", g.ID, err)
		}
		checkInvariants(t, g.ID, m)
	}
}

// TestEdgeSetKeepsFirstOccurrence pins the dedup's order: of equal
// records (same endpoints, label and app) the first added survives,
// and survivors keep insertion order.
func TestEdgeSetKeepsFirstOccurrence(t *testing.T) {
	es := newEdgeSet(0)
	ev := Event{VarKey: "switch.switch", Value: "on"}
	a := es.proto(Transition{Event: ev, Handler: "first"})
	aAgain := es.proto(Transition{Event: ev, Handler: "second"}) // same label and app as a
	b := es.proto(Transition{Event: ev, App: 1})
	for _, e := range []edge{{1, 2, a}, {0, 1, b}, {1, 2, aAgain}, {1, 2, b}, {0, 1, b}, {0, 1, a}} {
		es.add(int(e.from), int(e.to), e.proto)
	}
	m := &Model{States: make([]State, 3)}
	es.finish(m)
	got := transitionsOf(m)
	want := []struct {
		from, to, app int
		handler       string
	}{{1, 2, 0, "first"}, {0, 1, 1, ""}, {1, 2, 1, ""}, {0, 1, 0, "first"}}
	if len(got) != len(want) {
		t.Fatalf("got %d transitions, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.From != w.from || g.To != w.to || g.App != w.app || g.Handler != w.handler {
			t.Errorf("transition %d = %d->%d app %d handler %q, want %+v", i, g.From, g.To, g.App, g.Handler, w)
		}
	}
}

// TestBuildDeterministic: two builds of the same app produce identical
// models (variable order, state order, transition set) — required for
// reproducible reports.
func TestBuildDeterministic(t *testing.T) {
	app1, err := ir.BuildSource("smoke-alarm", paperapps.SmokeAlarm)
	if err != nil {
		t.Fatal(err)
	}
	app2, err := ir.BuildSource("smoke-alarm", paperapps.SmokeAlarm)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Build(app1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(app2)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Dot() != m2.Dot() {
		t.Error("builds differ")
	}
}

// TestEventIDsPerRenderedEvent pins the event table: events that
// render alike share one ID ("app touch" with Value "" and "touched"),
// IDs count in order of first use by a kept transition, and an event
// no transition uses gets none.
func TestEventIDsPerRenderedEvent(t *testing.T) {
	es := newEdgeSet(0)
	es.proto(Transition{Event: Event{VarKey: "switch.switch", Value: "dim"}}) // no transitions
	touch := es.proto(Transition{Event: Event{VarKey: "app.touch", Kind: ir.AppTouchEvent}})
	touched := es.proto(Transition{Event: Event{VarKey: "app.touch", Value: "touched", Kind: ir.AppTouchEvent}, App: 1})
	on := es.proto(Transition{Event: Event{VarKey: "switch.switch", Value: "on"}})
	onAgain := es.proto(Transition{Event: Event{VarKey: "switch.switch", Value: "on"}, Handler: "h"})
	off := es.proto(Transition{Event: Event{VarKey: "switch.switch", Value: "off"}})
	es.add(0, 1, off)
	es.add(0, 1, off) // dropped
	es.add(1, 0, on)
	es.add(1, 0, onAgain) // dropped: same label and app as on
	es.add(0, 0, touched)
	es.add(1, 1, touch)
	m := &Model{States: make([]State, 2)}
	es.finish(m)
	if want := []string{"switch.switch.off", "switch.switch.on", "app touch"}; !slices.Equal(m.Events(), want) {
		t.Fatalf("events = %q, want %q", m.Events(), want)
	}
	var ids []int
	for i := range m.NumTransitions() {
		ids = append(ids, m.EventID(i))
	}
	if want := []int{0, 1, 2, 2}; !slices.Equal(ids, want) {
		t.Errorf("event IDs = %v, want %v", ids, want)
	}

	// AddTransition numbers the events of a synthetic model the same way.
	sm, err := NewSynthetic([]*Var{{Key: "x.y", Values: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sm.AddState([]int{0})
	for _, ev := range []Event{{VarKey: "app.touch", Kind: ir.AppTouchEvent}, DeviceEvent("x.y", "a"), {VarKey: "app.touch", Value: "touched", Kind: ir.AppTouchEvent}} {
		if err := sm.AddTransition(s, s, ev, pathcond.True()); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"app touch", "x.y.a"}; !slices.Equal(sm.Events(), want) {
		t.Errorf("synthetic events = %q, want %q", sm.Events(), want)
	}
	if sm.EventID(0) != sm.EventID(2) {
		t.Errorf("synthetic touch events have IDs %d and %d", sm.EventID(0), sm.EventID(2))
	}
}

// TestSourceOrder checks the digit-trie walk against sorting the
// "s|" strings.
func TestSourceOrder(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 11, 100, 101, 2304} {
		want := make([]string, n)
		for s := range want {
			want[s] = strconv.Itoa(s) + "|"
		}
		slices.Sort(want)
		got := make([]string, 0, n)
		for _, s := range sourceOrder(n) {
			got = append(got, strconv.Itoa(int(s))+"|")
		}
		if !slices.Equal(got, want) {
			t.Errorf("n=%d: sourceOrder = %q, want %q", n, got, want)
		}
	}
}

// manyThresholds compares one power reading with more thresholds than
// property abstraction keeps as predicates (the first 8 in string
// order), so onSwitch's "p > 90" stays residual in every state: no
// market app has such an atom.
const manyThresholds = `
definition(name: "Many-Thresholds", namespace: "soteria", author: "soteria", description: "d", category: "c")
preferences {
    section("Devices") {
        input "meter", "capability.powerMeter", required: true
        input "sw", "capability.switch", required: true
    }
}
def installed() {
    subscribe(sw, "switch", onSwitch)
    subscribe(location, "mode", onMode)
}
def onSwitch(evt) {
    if (meter.currentValue("power") > 90) { sw.off() }
}
def onMode(evt) {
    def p = meter.currentValue("power")
    if (p > 100) { sw.off() }
    else if (p > 70) { sw.on() }
    else if (p > 60) { sw.off() }
    else if (p > 50) { sw.on() }
    else if (p > 40) { sw.off() }
    else if (p > 30) { sw.on() }
    else if (p > 20) { sw.off() }
    else if (p > 10) { sw.on() }
}
`

// TestPrototypeKeyFallback checks the prototype key used past 64
// residual-capable atoms: keyed by the values of the variables those
// atoms read, derivation may make more prototypes but the same
// relation, so manyThresholds, every market app and every candidate
// group must extract the same transitions and nondeterminism reports
// as with the residual mask.
func TestPrototypeKeyFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts the corpus twice")
	}
	many, err := ir.BuildSource("many-thresholds", manyThresholds)
	if err != nil {
		t.Fatal(err)
	}
	envs := [][]*ir.App{{many}}
	byID := map[string]*ir.App{}
	for _, spec := range market.All() {
		app, err := spec.Parse()
		if err != nil {
			t.Fatal(err)
		}
		byID[spec.ID] = app
		envs = append(envs, []*ir.App{app})
	}
	for _, g := range market.CandidateGroups() {
		var apps []*ir.App
		for _, id := range g.Members {
			apps = append(apps, byID[id])
		}
		envs = append(envs, apps)
	}
	build := func(apps []*ir.App) *Model {
		m, err := Build(apps...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	defer func(bits int) { maskBits = bits }(maskBits)
	split := 0
	for _, apps := range envs {
		maskBits = 64
		want := build(apps)
		maskBits = 0
		got := build(apps)
		if len(got.protos) > len(want.protos) {
			split++
		}
		if got.NumTransitions() != want.NumTransitions() {
			t.Fatalf("%s: %d transitions, want %d", apps[0].Name, got.NumTransitions(), want.NumTransitions())
		}
		for i := range want.NumTransitions() {
			if g, w := got.Transition(i), want.Transition(i); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("%s: transition %d = %v, want %v", apps[0].Name, i, g, w)
			}
		}
		if !slices.Equal(got.Events(), want.Events()) || fmt.Sprint(got.Nondet) != fmt.Sprint(want.Nondet) {
			t.Fatalf("%s: events or nondeterminism reports differ", apps[0].Name)
		}
	}
	if split == 0 {
		t.Fatal("no environment has residual-capable atoms; the fallback key went unexercised")
	}
	t.Logf("%d of %d environments split prototypes under the fallback key", split, len(envs))
}
