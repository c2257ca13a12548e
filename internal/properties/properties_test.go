package properties

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

func modelOf(t *testing.T, srcs ...[2]string) *statemodel.Model {
	t.Helper()
	var apps []*ir.App
	for _, s := range srcs {
		app, err := ir.BuildSource(s[0], s[1])
		if err != nil {
			t.Fatalf("BuildSource(%s): %v", s[0], err)
		}
		apps = append(apps, app)
	}
	m, err := statemodel.Build(apps...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func hasViolation(vs []Violation, id string) bool {
	for _, v := range vs {
		if v.ID == id {
			return true
		}
	}
	return false
}

func ids(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.ID)
	}
	return out
}

// --- General properties --------------------------------------------------

func TestS1SamePathConflict(t *testing.T) {
	m := modelOf(t, [2]string{"app4", `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch", h) }
def h(evt) {
    sw.on()
    sw.off()
}
`})
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.1") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestS2RepeatedSamePath(t *testing.T) {
	m := modelOf(t, [2]string{"app3", `
preferences { section("s") { input "sw", "capability.switch" } }
def installed() { runIn(30, drain) }
def drain() {
    sw.off()
    sw.off()
}
`})
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.2") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestS3ComplementEventsSameValue(t *testing.T) {
	// O3/O4-style: contact open turns the switch on, contact close
	// also turns it on.
	m := modelOf(t, [2]string{"s3app", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "contact", "capability.contactSensor"
    }
}
def installed() {
    subscribe(contact, "contact.open", hOpen)
    subscribe(contact, "contact.closed", hClose)
}
def hOpen(evt) { sw.on() }
def hClose(evt) { sw.on() }
`})
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.3") {
		t.Errorf("violations = %v", ids(vs))
	}
	// The complementary pair writing *different* values is fine.
	m2 := modelOf(t, [2]string{"ok", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "contact", "capability.contactSensor"
    }
}
def installed() {
    subscribe(contact, "contact.open", hOpen)
    subscribe(contact, "contact.closed", hClose)
}
def hOpen(evt) { sw.on() }
def hClose(evt) { sw.off() }
`})
	vs2 := CheckGeneral(m2)
	if hasViolation(vs2, "S.3") {
		t.Errorf("false S.3: %v", ids(vs2))
	}
}

func TestS4RaceCondition(t *testing.T) {
	// App7-style: presence turns the switch on; a timer turns it off.
	m := modelOf(t, [2]string{"app7", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "presence", "capability.presenceSensor"
    }
}
def installed() {
    subscribe(presence, "presence.present", hPresent)
    schedule("0 0 0 * * ?", hMidnight)
}
def hPresent(evt) { sw.on() }
def hMidnight() { sw.off() }
`})
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.4") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestS5UnsubscribedEventValue(t *testing.T) {
	// The handler branches on motion "active" but the app only
	// subscribes to motion.inactive.
	m := modelOf(t, [2]string{"app8", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "motion", "capability.motionSensor"
    }
}
def installed() {
    subscribe(motion, "motion.inactive", h)
}
def h(evt) {
    if (evt.value == "active") {
        sw.on()
    }
    if (evt.value == "inactive") {
        sw.off()
    }
}
`})
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.5") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestMultiAppS1ConflictingWrites(t *testing.T) {
	// G.1-style: two apps react to the same event with opposite
	// switch writes.
	a := [2]string{"O3", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "contact", "capability.contactSensor"
    }
}
def installed() { subscribe(contact, "contact.open", h) }
def h(evt) { sw.on() }
`}
	b := [2]string{"O4", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "contact", "capability.contactSensor"
    }
}
def installed() { subscribe(contact, "contact.open", h) }
def h(evt) { sw.off() }
`}
	m := modelOf(t, a, b)
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.1") {
		t.Errorf("violations = %v", ids(vs))
	}
	// Also flagged as nondeterminism.
	if !hasViolation(vs, "ND") {
		t.Errorf("expected nondeterminism report; got %v", ids(vs))
	}
}

func TestMultiAppS2SameWrite(t *testing.T) {
	a := [2]string{"O8", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "contact", "capability.contactSensor"
    }
}
def installed() { subscribe(contact, "contact.closed", h) }
def h(evt) { sw.on() }
`}
	b := [2]string{"TP12", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "contact", "capability.contactSensor"
    }
}
def installed() { subscribe(contact, "contact.closed", h) }
def h(evt) { sw.on() }
`}
	m := modelOf(t, a, b)
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.2") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestPaperAppsAreClean(t *testing.T) {
	for _, s := range [][2]string{
		{"smoke-alarm", paperapps.SmokeAlarm},
		{"water-leak", paperapps.WaterLeakDetector},
		{"thermostat", paperapps.ThermostatEnergyControl},
	} {
		m := modelOf(t, s)
		vs := CheckGeneral(m)
		for _, v := range vs {
			t.Errorf("%s: unexpected %s: %s", s[0], v.ID, v.Detail)
		}
	}
}

func TestBuggySmokeAlarmS1(t *testing.T) {
	m := modelOf(t, [2]string{"buggy", paperapps.BuggySmokeAlarm})
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.1") {
		t.Errorf("violations = %v", ids(vs))
	}
}

// --- App-specific properties ---------------------------------------------

func checkApp(t *testing.T, srcs ...[2]string) []Violation {
	t.Helper()
	m := modelOf(t, srcs...)
	k := kripke.FromModel(m)
	return CheckAppSpecific(m, k)
}

func TestP30WaterLeakHolds(t *testing.T) {
	vs := checkApp(t, [2]string{"water-leak", paperapps.WaterLeakDetector})
	if hasViolation(vs, "P.30") || hasViolation(vs, "P.11") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestP30ViolatedByBrokenLeakApp(t *testing.T) {
	vs := checkApp(t, [2]string{"broken-leak", `
preferences {
    section("s") {
        input "water_sensor", "capability.waterSensor"
        input "valve_device", "capability.valve"
    }
}
def installed() { subscribe(water_sensor, "water.wet", h) }
def h(evt) {
    valve_device.open()
}
`})
	if !hasViolation(vs, "P.30") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestP10BuggySmokeAlarm(t *testing.T) {
	vs := checkApp(t, [2]string{"buggy", paperapps.BuggySmokeAlarm})
	if !hasViolation(vs, "P.10") {
		t.Errorf("violations = %v", ids(vs))
	}
	// The correct app passes.
	vs2 := checkApp(t, [2]string{"smoke-alarm", paperapps.SmokeAlarm})
	if hasViolation(vs2, "P.10") {
		t.Errorf("correct app flagged: %v", ids(vs2))
	}
}

func TestP1DoorUnlockedOnTimer(t *testing.T) {
	// TP8-style: the door is unlocked on a schedule.
	vs := checkApp(t, [2]string{"TP8", `
preferences { section("s") { input "door", "capability.lock" } }
def installed() {
    schedule("0 0 6 * * ?", sunriseHandler)
    schedule("0 0 18 * * ?", sunsetHandler)
}
def sunriseHandler() { door.unlock() }
def sunsetHandler() { door.lock() }
`})
	if !hasViolation(vs, "P.1") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestP28MusicWhileSleeping(t *testing.T) {
	vs := checkApp(t, [2]string{"TP5", `
preferences {
    section("s") {
        input "player", "capability.musicPlayer"
        input "sleep", "capability.sleepSensor"
    }
}
def installed() { subscribe(sleep, "sleeping.sleeping", h) }
def h(evt) { player.play() }
`})
	if !hasViolation(vs, "P.28") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestP29FloodAlarmInverted(t *testing.T) {
	// TP4: alarm sounds when there is NO water.
	vs := checkApp(t, [2]string{"TP4", `
preferences {
    section("s") {
        input "flood", "capability.waterSensor"
        input "siren", "capability.alarm"
    }
}
def installed() { subscribe(flood, "water.dry", h) }
def h(evt) { siren.siren() }
`})
	if !hasViolation(vs, "P.29") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestP12SwitchOnWhenAway(t *testing.T) {
	// TP2: switch turns on when no user is present.
	vs := checkApp(t, [2]string{"TP2", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "presence", "capability.presenceSensor"
    }
}
def installed() { subscribe(presence, "presence.not present", h) }
def h(evt) { sw.on() }
`})
	if !hasViolation(vs, "P.12") {
		t.Errorf("violations = %v", ids(vs))
	}
}

func TestPropertyRequiresAllDevices(t *testing.T) {
	// An app with only a lock (no presence sensor): P.1's first
	// variant is inapplicable, so even an always-unlocked door is not
	// flagged by it (no timer either).
	vs := checkApp(t, [2]string{"lock-only", `
preferences { section("s") { input "door", "capability.lock" } }
def installed() { subscribe(door, "lock.unlocked", h) }
def h(evt) { }
`})
	if hasViolation(vs, "P.1") {
		t.Errorf("P.1 should not apply: %v", ids(vs))
	}
}

func TestCatalogueComplete(t *testing.T) {
	cat := Catalogue()
	if len(cat) != 30 {
		t.Fatalf("catalogue has %d properties, want 30", len(cat))
	}
	seen := map[string]bool{}
	builders := 0
	for i, p := range cat {
		want := "P." + itoa(i+1)
		if p.ID != want {
			t.Errorf("property %d has ID %s, want %s", i, p.ID, want)
		}
		if seen[p.ID] {
			t.Errorf("duplicate ID %s", p.ID)
		}
		seen[p.ID] = true
		if p.Description == "" || len(p.Variants) == 0 {
			t.Errorf("%s: missing description or variants", p.ID)
		}
		for vi, v := range p.Variants {
			if v.builder != nil {
				builders++
			}
			if len(v.Caps) == 0 || (len(v.Rules) > 0) == (v.builder != nil) {
				t.Errorf("%s/%d: want caps and exactly one of rules or a builder", p.ID, vi)
			}
			for _, r := range v.Rules {
				if !strings.HasPrefix(r.Trigger, "ev:") {
					t.Errorf("%s/%d: trigger %q is not an event marker prefix", p.ID, vi, r.Trigger)
				}
				// The catalogue text is what violation details print.
				if got := ctl.MustParse(r.Then).String(); got != r.Then {
					t.Errorf("%s/%d: Then %s is not in canonical form %s", p.ID, vi, r.Then, got)
				}
			}
		}
	}
	// Only variants over the model's value domains (P.15, P.16, P.18,
	// P.22) need Go; everything else is a rule.
	if builders != 4 {
		t.Errorf("catalogue has %d Go builders, want 4", builders)
	}
	if _, ok := PropertyByID("P.17"); !ok {
		t.Error("PropertyByID failed")
	}
	if _, ok := PropertyByID("P.99"); ok {
		t.Error("PropertyByID should fail for unknown")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestViolationString(t *testing.T) {
	v := Violation{ID: "S.1", Kind: General, Description: "desc", Detail: "detail", Apps: []string{"a"}}
	s := v.String()
	if !strings.Contains(s, "S.1") || !strings.Contains(s, "general") {
		t.Errorf("String() = %s", s)
	}
}

func TestS5SwitchStatementHandler(t *testing.T) {
	// The S.5 scan must also see switch-statement cases over
	// evt.value.
	m := modelOf(t, [2]string{"s5switch", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "contact", "capability.contactSensor"
    }
}
def installed() { subscribe(contact, "contact.closed", h) }
def h(evt) {
    switch (evt.value) {
        case "open":
            sw.on()
            break
        case "closed":
            sw.off()
            break
    }
}
`})
	vs := CheckGeneral(m)
	if !hasViolation(vs, "S.5") {
		t.Errorf("violations = %v", ids(vs))
	}
}

// TestCheckGeneralDeterministic: repeated checks produce identical
// reports (ordering matters for reproducible CI output).
func TestCheckGeneralDeterministic(t *testing.T) {
	src := [2]string{"nd", `
preferences {
    section("s") {
        input "sw", "capability.switch"
        input "motion", "capability.motionSensor"
        input "presence", "capability.presenceSensor"
    }
}
def installed() {
    subscribe(motion, "motion.active", h1)
    subscribe(presence, "presence.present", h2)
    schedule("0 0 1 * * ?", h3)
}
def h1(evt) { sw.on() }
def h2(evt) { sw.on() }
def h3() { sw.off() }
`}
	a := modelOf(t, src)
	b := modelOf(t, src)
	va, vb := CheckGeneral(a), CheckGeneral(b)
	if len(va) != len(vb) {
		t.Fatalf("lengths differ: %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i].String() != vb[i].String() {
			t.Errorf("report %d differs:\n%s\n%s", i, va[i], vb[i])
		}
	}
}
