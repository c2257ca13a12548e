package statemodel

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

func appOf(t *testing.T, name, src string) *ir.App {
	t.Helper()
	app, err := ir.BuildSource(name, src)
	if err != nil {
		t.Fatalf("BuildSource(%s): %v", name, err)
	}
	return app
}

// transitionsOf materialises every transition of m, in order.
func transitionsOf(m *Model) []Transition {
	ts := make([]Transition, m.NumTransitions())
	for i := range ts {
		ts[i] = m.Transition(i)
	}
	return ts
}

func buildOne(t *testing.T, name, src string) *Model {
	t.Helper()
	m, err := Build(appOf(t, name, src))
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return m
}

// TestWaterLeakFourStates reproduces §4.2.1: the Water-Leak-Detector
// app has two boolean devices, hence four states.
func TestWaterLeakFourStates(t *testing.T) {
	m := buildOne(t, "water-leak", paperapps.WaterLeakDetector)
	if len(m.Vars) != 2 {
		t.Fatalf("vars = %+v", m.Vars)
	}
	if len(m.States) != 4 {
		t.Fatalf("states = %d, want 4", len(m.States))
	}
	// Transition: water.wet closes the valve from every state.
	var wetToClosed int
	for _, tr := range transitionsOf(m) {
		if tr.Event.String() == "waterSensor.water.wet" {
			if got, _ := m.StateValue(tr.To, "valve.valve"); got != "closed" {
				t.Errorf("wet transition target valve = %s", got)
			}
			if got, _ := m.StateValue(tr.To, "waterSensor.water"); got != "wet" {
				t.Errorf("wet transition target water = %s", got)
			}
			wetToClosed++
		}
	}
	if wetToClosed != 4 {
		t.Errorf("wet transitions = %d, want 4 (one per source state)", wetToClosed)
	}
	// No water.dry transitions: the app only subscribes to water.wet.
	for _, tr := range transitionsOf(m) {
		if strings.Contains(tr.Event.String(), "dry") {
			t.Errorf("unexpected dry transition %+v", tr)
		}
	}
}

func TestSmokeAlarmModel(t *testing.T) {
	m := buildOne(t, "smoke-alarm", paperapps.SmokeAlarm)
	// Vars: alarm(4), battery(2: <thrshld / >=thrshld), smoke(3),
	// switch(2), valve(2).
	wantVars := map[string]int{
		"alarm.alarm":         4,
		"battery.battery":     2,
		"smokeDetector.smoke": 3,
		"switch.switch":       2,
		"valve.valve":         2,
	}
	if len(m.Vars) != len(wantVars) {
		t.Fatalf("vars = %+v", varKeys(m))
	}
	for _, v := range m.Vars {
		if wantVars[v.Key] != len(v.Values) {
			t.Errorf("%s domain = %v, want %d values", v.Key, v.Values, wantVars[v.Key])
		}
	}
	if len(m.States) != 4*2*3*2*2 {
		t.Errorf("states = %d, want 96", len(m.States))
	}
	// Property abstraction: before reduction the battery alone
	// contributes ~100 states.
	if m.StatesBeforeReduction < 1000 {
		t.Errorf("before-reduction states = %d", m.StatesBeforeReduction)
	}

	// smoke.detected sirens the alarm and opens the valve.
	found := false
	for _, tr := range transitionsOf(m) {
		if tr.Event.String() != "smokeDetector.smoke.detected" {
			continue
		}
		alarm, _ := m.StateValue(tr.To, "alarm.alarm")
		valve, _ := m.StateValue(tr.To, "valve.valve")
		if alarm == "siren" && valve == "open" {
			found = true
		}
		if alarm != "siren" || valve != "open" {
			t.Errorf("detected transition to alarm=%s valve=%s", alarm, valve)
		}
	}
	if !found {
		t.Error("no smoke.detected transition found")
	}
}

func TestBatteryEventGuardedTransition(t *testing.T) {
	m := buildOne(t, "smoke-alarm", paperapps.SmokeAlarm)
	// The battery handler turns the switch on only when
	// battery < thrshld; with the battery variable abstracted to
	// {<thrshld, >=thrshld} the transition must exist exactly for the
	// low-battery event value.
	lowSeen, highSeen := false, false
	for _, tr := range transitionsOf(m) {
		if tr.Event.VarKey != "battery.battery" {
			continue
		}
		sw, _ := m.StateValue(tr.To, "switch.switch")
		if strings.Contains(tr.Event.Value, "<thrshld") {
			lowSeen = true
			if sw != "on" {
				t.Errorf("low-battery event should turn switch on, got %s", sw)
			}
		} else {
			highSeen = true
			fromSw, _ := m.StateValue(tr.From, "switch.switch")
			if sw != fromSw {
				t.Errorf("high-battery event should not change switch")
			}
		}
	}
	if !lowSeen {
		t.Error("no low-battery transition")
	}
	_ = highSeen // high-battery events produce no actions and may self-loop or be absent
}

func TestThermostatModelFig6(t *testing.T) {
	m := buildOne(t, "thermostat", paperapps.ThermostatEnergyControl)
	// heatingSetpoint abstracted to two states: ==68 and its negation
	// (§4.2.1: "the state space for temperature values is reduced from
	// 45 to 2").
	v, _, ok := m.VarByKey("thermostat.heatingSetpoint")
	if !ok {
		t.Fatalf("vars = %v", varKeys(m))
	}
	if len(v.Values) != 2 {
		t.Fatalf("heatingSetpoint domain = %v, want 2 values", v.Values)
	}
	// Mode change locks the door and sets the setpoint to 68.
	found := false
	for _, tr := range transitionsOf(m) {
		if tr.Event.VarKey != "location.mode" {
			continue
		}
		lock, _ := m.StateValue(tr.To, "lock.lock")
		hsp, _ := m.StateValue(tr.To, "thermostat.heatingSetpoint")
		if lock != "locked" {
			t.Errorf("mode transition lock = %s", lock)
		}
		if !strings.Contains(hsp, "==68") {
			t.Errorf("mode transition setpoint = %s", hsp)
		}
		found = true
	}
	if !found {
		t.Error("no mode transitions")
	}
}

func TestThermostatPowerPredicates(t *testing.T) {
	m := buildOne(t, "thermostat", paperapps.ThermostatEnergyControl)
	// power abstracted by predicates >50 and <5: three feasible
	// combinations.
	v, _, ok := m.VarByKey("powerMeter.power")
	if !ok {
		t.Fatalf("vars = %v", varKeys(m))
	}
	if len(v.Values) != 3 {
		t.Fatalf("power domain = %v, want 3 values", v.Values)
	}
	// Power events: >50 turns the switch off; <5 turns it on; middle
	// leaves it unchanged.
	for _, tr := range transitionsOf(m) {
		if tr.Event.VarKey != "powerMeter.power" {
			continue
		}
		sw, _ := m.StateValue(tr.To, "switch.switch")
		fromSw, _ := m.StateValue(tr.From, "switch.switch")
		switch {
		case strings.Contains(tr.Event.Value, ">50"):
			if sw != "off" {
				t.Errorf("power>50 event: switch = %s, want off", sw)
			}
		case strings.Contains(tr.Event.Value, "<5"):
			if sw != "on" {
				t.Errorf("power<5 event: switch = %s, want on", sw)
			}
		default:
			if sw != fromSw {
				t.Errorf("mid-range power event changed switch")
			}
		}
	}
}

func varKeys(m *Model) []string {
	var ks []string
	for _, v := range m.Vars {
		ks = append(ks, v.Key)
	}
	return ks
}

func TestDeterministicModelHasNoNondetReports(t *testing.T) {
	for _, src := range []struct{ name, src string }{
		{"water-leak", paperapps.WaterLeakDetector},
		{"smoke-alarm", paperapps.SmokeAlarm},
		{"thermostat", paperapps.ThermostatEnergyControl},
	} {
		m := buildOne(t, src.name, src.src)
		if len(m.Nondet) != 0 {
			t.Errorf("%s: nondet reports = %+v", src.name, m.Nondet)
		}
	}
}

func TestNondeterminismDetected(t *testing.T) {
	// Two handlers for the same event writing different values.
	src := `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "motion", "capability.motionSensor"
    }
}
def installed() {
    subscribe(motion, "motion.active", h1)
    subscribe(motion, "motion.active", h2)
}
def h1(evt) { sw.on() }
def h2(evt) { sw.off() }
`
	m := buildOne(t, "nondet", src)
	if len(m.Nondet) == 0 {
		t.Error("expected nondeterminism reports")
	}
}

func TestAppTouchTransitions(t *testing.T) {
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(app, touchHandler) }
def touchHandler(evt) { sw.on() }
`
	m := buildOne(t, "touch", src)
	found := false
	for _, tr := range transitionsOf(m) {
		if tr.Event.Kind == ir.AppTouchEvent {
			found = true
			if sw, _ := m.StateValue(tr.To, "switch.switch"); sw != "on" {
				t.Errorf("app touch target switch = %s", sw)
			}
		}
	}
	if !found {
		t.Error("no app-touch transition")
	}
}

func TestModeDomainExtension(t *testing.T) {
	src := `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.off", h) }
def h(evt) { setLocationMode("vacation") }
`
	m := buildOne(t, "mode-ext", src)
	v, _, ok := m.VarByKey("location.mode")
	if !ok {
		t.Fatalf("no mode var: %v", varKeys(m))
	}
	if _, found := v.ValueIndex("vacation"); !found {
		t.Errorf("mode domain = %v, missing vacation", v.Values)
	}
}

func TestStateLabelAndFindStates(t *testing.T) {
	m := buildOne(t, "water-leak", paperapps.WaterLeakDetector)
	states := m.FindStates(map[string]string{"waterSensor.water": "dry", "valve.valve": "open"})
	if len(states) != 1 {
		t.Fatalf("states = %v", states)
	}
	label := m.StateLabel(states[0])
	if !strings.Contains(label, "waterSensor.water=dry") || !strings.Contains(label, "valve.valve=open") {
		t.Errorf("label = %s", label)
	}
}

func TestDotOutput(t *testing.T) {
	m := buildOne(t, "water-leak", paperapps.WaterLeakDetector)
	dot := m.Dot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "waterSensor.water.wet") {
		t.Errorf("dot = %s", dot)
	}
}

// --- Multi-app -----------------------------------------------------------

func TestMultiAppBuildSharedValve(t *testing.T) {
	smoke := appOf(t, "smoke-alarm", paperapps.SmokeAlarm)
	leak := appOf(t, "water-leak", paperapps.WaterLeakDetector)
	m, err := Build(smoke, leak)
	if err != nil {
		t.Fatal(err)
	}
	// The valve is shared: only one valve.valve variable.
	count := 0
	for _, v := range m.Vars {
		if v.Key == "valve.valve" {
			count++
			if len(v.Handles) != 2 {
				t.Errorf("valve handles = %v, want both apps'", v.Handles)
			}
		}
	}
	if count != 1 {
		t.Errorf("valve vars = %d, want 1 (merged)", count)
	}
	// The §3 interaction: a water.wet transition closes the valve even
	// from the valve-open (sprinkler active) state.
	found := false
	for _, tr := range transitionsOf(m) {
		if tr.Event.String() != "waterSensor.water.wet" {
			continue
		}
		fromValve, _ := m.StateValue(tr.From, "valve.valve")
		toValve, _ := m.StateValue(tr.To, "valve.valve")
		if fromValve == "open" && toValve == "closed" {
			found = true
		}
	}
	if !found {
		t.Error("water-leak app does not close the open valve in the union model")
	}
}

func TestUnionMatchesJointBuild(t *testing.T) {
	smoke := appOf(t, "smoke-alarm", paperapps.SmokeAlarm)
	leak := appOf(t, "water-leak", paperapps.WaterLeakDetector)

	joint, err := Build(smoke, leak)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Build(smoke)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(leak)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Union(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Vars) != len(joint.Vars) {
		t.Fatalf("union vars = %v, joint vars = %v", varKeys(u), varKeys(joint))
	}
	if len(u.States) != len(joint.States) {
		t.Errorf("union states = %d, joint states = %d", len(u.States), len(joint.States))
	}
	// Same set of edge signatures (state labels + transition label).
	sig := func(m *Model) map[string]bool {
		set := map[string]bool{}
		for _, tr := range transitionsOf(m) {
			set[m.StateLabel(tr.From)+"|"+tr.Label()+"|"+m.StateLabel(tr.To)] = true
		}
		return set
	}
	js, us := sig(joint), sig(u)
	for k := range js {
		if !us[k] {
			t.Errorf("edge in joint but not union: %s", k)
		}
	}
	for k := range us {
		if !js[k] {
			t.Errorf("edge in union but not joint: %s", k)
		}
	}
}

func TestInteractionVars(t *testing.T) {
	smoke := appOf(t, "smoke-alarm", paperapps.SmokeAlarm)
	leak := appOf(t, "water-leak", paperapps.WaterLeakDetector)
	m, err := Build(smoke, leak)
	if err != nil {
		t.Fatal(err)
	}
	keys, apps := m.InteractionVars()
	foundValve := false
	for _, k := range keys {
		if k == "valve.valve" {
			foundValve = true
			if len(apps[k]) != 2 {
				t.Errorf("valve apps = %v", apps[k])
			}
		}
	}
	if !foundValve {
		t.Errorf("interaction vars = %v, want valve.valve", keys)
	}
}

func TestUnionDomainMismatchRejected(t *testing.T) {
	a := appOf(t, "a", `
preferences { section("s") { input "ther", "capability.thermostat" } }
def installed() { subscribe(location, "mode", h) }
def h(evt) { ther.setHeatingSetpoint(68) }
`)
	b := appOf(t, "b", `
preferences { section("s") { input "ther", "capability.thermostat" } }
def installed() { subscribe(location, "mode", h) }
def h(evt) { ther.setHeatingSetpoint(75) }
`)
	ma, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Union(ma, mb); err == nil {
		t.Error("expected domain mismatch error (different abstractions); joint Build is the supported path")
	}
	// The joint build handles it by re-abstracting over both values.
	joint, err := Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	v, _, ok := joint.VarByKey("thermostat.heatingSetpoint")
	if !ok {
		t.Fatal("no heatingSetpoint var")
	}
	if len(v.Values) != 3 { // ==68, ==75, other
		t.Errorf("joint domain = %v", v.Values)
	}
}

func TestEventOnlyLabelsAblation(t *testing.T) {
	// With predicates dropped (the paper's earlier imprecise design),
	// the thermostat's power handler fires both branches on every
	// power event, producing nondeterminism the full analysis avoids.
	app := appOf(t, "thermostat", paperapps.ThermostatEnergyControl)
	full, err := BuildOpt(Options{}, app)
	if err != nil {
		t.Fatal(err)
	}
	eventOnly, err := BuildOpt(Options{EventOnlyLabels: true}, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Nondet) != 0 {
		t.Errorf("full analysis nondet = %d", len(full.Nondet))
	}
	if len(eventOnly.Nondet) == 0 {
		t.Error("event-only labels should produce nondeterminism")
	}
	if eventOnly.NumTransitions() <= full.NumTransitions() {
		t.Errorf("event-only should over-approximate transitions: %d vs %d",
			eventOnly.NumTransitions(), full.NumTransitions())
	}
}

// TestUnionIdentity: the union of a single model is isomorphic to the
// model itself.
func TestUnionIdentity(t *testing.T) {
	m := buildOne(t, "smoke-alarm", paperapps.SmokeAlarm)
	u, err := Union(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Vars) != len(m.Vars) || len(u.States) != len(m.States) {
		t.Fatalf("shape changed: %d/%d vars, %d/%d states",
			len(u.Vars), len(m.Vars), len(u.States), len(m.States))
	}
	sig := func(x *Model) map[string]bool {
		set := map[string]bool{}
		for _, tr := range transitionsOf(x) {
			set[x.StateLabel(tr.From)+"|"+tr.Label()+"|"+x.StateLabel(tr.To)] = true
		}
		return set
	}
	a, b := sig(m), sig(u)
	if len(a) != len(b) {
		t.Fatalf("edge sets differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("missing edge %s", k)
		}
	}
}
