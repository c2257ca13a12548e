package properties

import (
	"slices"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// AppProperty is one entry of the P.1–P.30 catalogue (Appendix B
// Table 2). A property may have several device-set variants; it is
// checked when some variant's devices are all granted, and violated
// when any applicable variant's formula fails.
type AppProperty struct {
	ID          string
	Description string
	Variants    []Variant
}

// Variant is one device-set instantiation of a property, stated as
// Rules or, when its formula depends on the model's value domains, by
// a Go builder.
type Variant struct {
	// Caps lists required capability names; "timer" and "location"
	// require the corresponding abstract events/variables.
	Caps []string
	// Rules are the variant's event-triggered obligations. Its formula
	// is the conjunction, in rule order, of AG(⋁markers → Then) over
	// the rules whose trigger matches some event of the model; the
	// variant is vacuous when none does.
	Rules []Rule
	// builder produces the formula from the model and its sorted
	// event markers; ok=false when the model offers nothing to check.
	builder func(m *statemodel.Model, markers []string) (ctl.Formula, bool)
}

// Rule says what must hold after an event: Trigger is an event-marker
// prefix ("ev:" matches every event) and Then is a CTL formula in the
// proposition syntax of ctl.Parse, parsed once when the package loads.
type Rule struct {
	Trigger string
	Then    string
	then    ctl.Formula
}

// applicable reports whether the model grants every capability of the
// variant.
func (v Variant) applicable(m *statemodel.Model) bool {
	for _, c := range v.Caps {
		if !modelHasCap(m, c) {
			return false
		}
	}
	return true
}

func modelHasCap(m *statemodel.Model, capName string) bool {
	switch capName {
	case "timer":
		for _, am := range m.Apps {
			for _, s := range am.App.Subscriptions {
				if s.Kind == ir.TimerEvent {
					return true
				}
			}
		}
		return false
	case "location":
		_, _, ok := m.VarByKey("location.mode")
		return ok
	}
	for _, v := range m.Vars {
		if v.Cap == capName {
			return true
		}
	}
	return false
}

// formula builds the variant on a model whose sorted event markers are
// given; ok=false when the variant is vacuous there.
func (v Variant) formula(m *statemodel.Model, markers []string) (ctl.Formula, bool) {
	if v.builder != nil {
		return v.builder(m, markers)
	}
	var f ctl.Formula
	for _, r := range v.Rules {
		evs := matching(markers, r.Trigger)
		if len(evs) == 0 {
			continue
		}
		if g := after(evs, r.then); f == nil {
			f = g
		} else {
			f = ctl.And{L: f, R: g}
		}
	}
	return f, f != nil
}

// PropertyFormula is the formula of one applicable variant.
type PropertyFormula struct {
	ID      string
	Formula ctl.Formula
}

// Formulas returns the formula of every applicable, non-vacuous
// variant on the model in catalogue order, restricted to the given
// property IDs when ids is non-empty. The model's event markers are
// computed once for the whole enumeration.
func Formulas(m *statemodel.Model, ids []string) []PropertyFormula {
	markers := eventMarkers(m)
	var out []PropertyFormula
	for _, p := range catalogue {
		if len(ids) > 0 && !slices.Contains(ids, p.ID) {
			continue
		}
		for _, v := range p.Variants {
			if !v.applicable(m) {
				continue
			}
			if f, ok := v.formula(m, markers); ok {
				out = append(out, PropertyFormula{ID: p.ID, Formula: f})
			}
		}
	}
	return out
}

// eventMarkers returns the model's distinct "ev:<event>" propositions,
// sorted: one per entry of the model's event table.
func eventMarkers(m *statemodel.Model) []string {
	events := m.Events()
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = "ev:" + ev
	}
	sort.Strings(out)
	return out
}

// matching returns the sorted markers that start with prefix.
func matching(markers []string, prefix string) []string {
	i := sort.SearchStrings(markers, prefix)
	j := i
	for j < len(markers) && strings.HasPrefix(markers[j], prefix) {
		j++
	}
	return markers[i:j]
}

// anyOf is the left-nested disjunction of the propositions (false when
// there are none).
func anyOf(props []string) ctl.Formula {
	if len(props) == 0 {
		return ctl.FalseF{}
	}
	var f ctl.Formula = ctl.Prop{Name: props[0]}
	for _, p := range props[1:] {
		f = ctl.Or{L: f, R: ctl.Prop{Name: p}}
	}
	return f
}

// after is AG(⋁markers → then): after any of the events, then holds.
func after(markers []string, then ctl.Formula) ctl.Formula {
	return ctl.AG{X: ctl.Implies{L: anyOf(markers), R: then}}
}

// afterSetpoint requires the heating setpoint to take one of its
// user-configured ("==") values after any event matching trigger.
func afterSetpoint(m *statemodel.Model, markers []string, trigger string) (ctl.Formula, bool) {
	v, _, ok := m.VarByKey("thermostat.heatingSetpoint")
	evs := matching(markers, trigger)
	if !ok || len(evs) == 0 {
		return nil, false
	}
	var set []string
	for _, val := range v.Values {
		if strings.Contains(val, "==") {
			set = append(set, v.Key+"="+val)
		}
	}
	return after(evs, anyOf(set)), true
}

// afterThreshold requires then after any event matching trigger whose
// value crosses a threshold (its marker contains op).
func afterThreshold(markers []string, trigger, op, then string) (ctl.Formula, bool) {
	var evs []string
	for _, p := range matching(markers, trigger) {
		if strings.Contains(p, op) {
			evs = append(evs, p)
		}
	}
	if len(evs) == 0 {
		return nil, false
	}
	return after(evs, ctl.Prop{Name: then}), true
}

// ---------------------------------------------------------------------------
// The catalogue

// Catalogue returns the thirty application-specific properties. Each
// rule is an event-triggered CTL formula: Soteria checks what the app
// drives the environment to *after handling an event*, which avoids
// vacuous violations in unreachable corners of the state product. The
// slice is shared and compiled once; callers must not modify it.
func Catalogue() []AppProperty { return catalogue }

var catalogue = compile([]AppProperty{
	{
		ID:          "P.1",
		Description: "The door must be locked when a user is not present at home or sleeping.",
		Variants: []Variant{
			{Caps: []string{"lock", "presenceSensor"}, Rules: []Rule{{Trigger: "ev:presenceSensor.presence.not present", Then: `"lock.lock=locked"`}}},
			{Caps: []string{"lock", "sleepSensor"}, Rules: []Rule{{Trigger: "ev:sleepSensor.sleeping.sleeping", Then: `"lock.lock=locked"`}}},
			// TP8-style sunrise/sunset scheduling: a timer event must
			// never leave the door unlocked.
			{Caps: []string{"lock", "timer"}, Rules: []Rule{{Trigger: "ev:timer", Then: `"lock.lock=locked"`}}},
		},
	},
	{
		ID:          "P.2",
		Description: "The lights must be turned on if the motion sensor is active.",
		Variants: []Variant{
			{Caps: []string{"switch", "motionSensor"}, Rules: []Rule{{Trigger: "ev:motionSensor.motion.active", Then: `"switch.switch=on"`}}},
		},
	},
	{
		ID:          "P.3",
		Description: "When there is smoke, the lights must be on and the door must be unlocked.",
		Variants: []Variant{
			{Caps: []string{"lock", "smokeDetector"}, Rules: []Rule{{Trigger: "ev:smokeDetector.smoke.detected", Then: `"lock.lock=unlocked"`}}},
			// Multi-app chain variant (§4.4's App12–14 misuse case): no
			// event may leave the door locked while smoke is detected
			// in the home.
			{Caps: []string{"lock", "smokeDetector", "location"}, Rules: []Rule{{Trigger: "ev:", Then: `"smokeDetector.smoke=detected" -> !"lock.lock=locked"`}}},
		},
	},
	{
		ID:          "P.4",
		Description: "The light must be on when the user arrives home.",
		Variants: []Variant{
			{Caps: []string{"switch", "presenceSensor"}, Rules: []Rule{{Trigger: "ev:presenceSensor.presence.present", Then: `"switch.switch=on"`}}},
		},
	},
	{
		ID:          "P.5",
		Description: "Camera-controlled doors must be closed when the door is clear of objects.",
		Variants: []Variant{
			{Caps: []string{"garageDoorControl", "imageCapture", "motionSensor"}, Rules: []Rule{{Trigger: "ev:motionSensor.motion.inactive", Then: `"garageDoorControl.door=closed"`}}},
		},
	},
	{
		ID:          "P.6",
		Description: "The garage door must open when people arrive and close when people leave.",
		Variants: []Variant{
			{Caps: []string{"garageDoorControl", "presenceSensor"}, Rules: []Rule{
				{Trigger: "ev:presenceSensor.presence.present", Then: `"garageDoorControl.door=open"`},
				{Trigger: "ev:presenceSensor.presence.not present", Then: `"garageDoorControl.door=closed"`},
			}},
		},
	},
	{
		ID:          "P.7",
		Description: "The beacon must be inside the geofence to turn on the lights and open the garage door.",
		Variants: []Variant{
			// Lights/garage must not activate on a leave event.
			{Caps: []string{"switch", "garageDoorControl", "presenceSensor"}, Rules: []Rule{{Trigger: "ev:presenceSensor.presence.not present", Then: `!("switch.switch=on" & "garageDoorControl.door=open")`}}},
		},
	},
	{
		ID:          "P.8",
		Description: "The lights must be turned off when the sleep sensor detects the user is sleeping.",
		Variants: []Variant{
			{Caps: []string{"switch", "sleepSensor"}, Rules: []Rule{{Trigger: "ev:sleepSensor.sleeping.sleeping", Then: `"switch.switch=off"`}}},
		},
	},
	{
		ID:          "P.9",
		Description: "The security system must not be disarmed when the user is not at home.",
		Variants: []Variant{
			{Caps: []string{"alarm", "presenceSensor"}, Rules: []Rule{{Trigger: "ev:presenceSensor.presence.not present", Then: `!"alarm.alarm=off"`}}},
		},
	},
	{
		ID:          "P.10",
		Description: "The alarm must sound when there is smoke or carbon monoxide.",
		Variants: []Variant{
			{Caps: []string{"alarm", "smokeDetector"}, Rules: []Rule{{Trigger: "ev:smokeDetector.smoke.detected", Then: `"alarm.alarm=siren" | ("alarm.alarm=strobe" | "alarm.alarm=both")`}}},
			{Caps: []string{"alarm", "carbonMonoxideDetector"}, Rules: []Rule{{Trigger: "ev:carbonMonoxideDetector.carbonMonoxide.detected", Then: `"alarm.alarm=siren" | ("alarm.alarm=strobe" | "alarm.alarm=both")`}}},
		},
	},
	{
		ID:          "P.11",
		Description: "The valve must be closed when the water sensor is wet or the water level exceeds the user threshold.",
		Variants: []Variant{
			{Caps: []string{"valve", "waterSensor"}, Rules: []Rule{{Trigger: "ev:waterSensor.water.wet", Then: `"valve.valve=closed"`}}},
		},
	},
	{
		ID:          "P.12",
		Description: "Devices must not be turned on when the user is not at home or sleeping.",
		Variants: []Variant{
			{Caps: []string{"switch", "presenceSensor"}, Rules: []Rule{{Trigger: "ev:presenceSensor.presence.not present", Then: `"switch.switch=off"`}}},
			// The location variant needs a motion sensor: absence of
			// the user is signalled by motion-inactive driving the away
			// mode (the G.3 misuse chain).
			{Caps: []string{"switch", "location", "motionSensor"}, Rules: []Rule{{Trigger: "ev:location.mode.away", Then: `"switch.switch=off"`}}},
		},
	},
	{
		ID:          "P.13",
		Description: "Device functionality (coffee machine, crock-pot, music) must not be used when the user is away, or only at the user-set time.",
		Variants: []Variant{
			{Caps: []string{"musicPlayer", "presenceSensor"}, Rules: []Rule{{Trigger: "ev:presenceSensor.presence.not present", Then: `!"musicPlayer.status=playing"`}}},
			{Caps: []string{"switch", "presenceSensor", "timer"}, Rules: []Rule{{Trigger: "ev:timer", Then: `"presenceSensor.presence=not present" -> "switch.switch=off"`}}},
			{Caps: []string{"musicPlayer", "location", "motionSensor"}, Rules: []Rule{{Trigger: "ev:location.mode.away", Then: `!"musicPlayer.status=playing"`}}},
		},
	},
	{
		ID:          "P.14",
		Description: "The refrigerator, alarm, and security system must not be disabled.",
		Variants: []Variant{
			{Caps: []string{"alarm", "location"}, Rules: []Rule{{Trigger: "ev:location.mode.", Then: `!"alarm.alarm=off"`}}},
			// Security-system switches must stay on across mode changes
			// in an environment that also automates the thermostat (the
			// G.3 device set).
			{Caps: []string{"switch", "location", "thermostat"}, Rules: []Rule{{Trigger: "ev:location.mode.", Then: `"switch.switch=on"`}}},
		},
	},
	{
		ID:          "P.15",
		Description: "The temperature must follow the user's operating-mode values on motion, and the idle values otherwise.",
		Variants: []Variant{
			{Caps: []string{"thermostat", "motionSensor"}, builder: func(m *statemodel.Model, markers []string) (ctl.Formula, bool) {
				return afterSetpoint(m, markers, "ev:motionSensor.motion.active")
			}},
		},
	},
	{
		ID:          "P.16",
		Description: "The thermostat temperature entered by the user must be applied when the mode changes.",
		Variants: []Variant{
			{Caps: []string{"thermostat", "location"}, builder: func(m *statemodel.Model, markers []string) (ctl.Formula, bool) {
				return afterSetpoint(m, markers, "ev:location.mode.")
			}},
		},
	},
	{
		ID:          "P.17",
		Description: "The AC and heater must not be on at the same time.",
		Variants: []Variant{
			{Caps: []string{"switch", "fanControl"}, Rules: []Rule{{Trigger: "ev:", Then: `!("switch.switch=on" & "fanControl.fan=on")`}}},
			{Caps: []string{"thermostat", "fanControl"}, Rules: []Rule{{Trigger: "ev:", Then: `!("thermostat.thermostatMode=heat" & "fanControl.fan=on")`}}},
		},
	},
	{
		ID:          "P.18",
		Description: "HVACs, fans, and heaters must be off when temperature/humidity are out of the user zone.",
		Variants: []Variant{
			{Caps: []string{"switch", "relativeHumidityMeasurement"}, builder: func(_ *statemodel.Model, markers []string) (ctl.Formula, bool) {
				return afterThreshold(markers, "ev:relativeHumidityMeasurement.humidity.", ">", "switch.switch=off")
			}},
		},
	},
	{
		ID:          "P.19",
		Description: "The AC must be on when the user is within the configured distance of the house.",
		Variants: []Variant{
			{Caps: []string{"fanControl", "presenceSensor"}, Rules: []Rule{{Trigger: "ev:presenceSensor.presence.present", Then: `"fanControl.fan=on"`}}},
		},
	},
	{
		ID:          "P.20",
		Description: "The security camera must take pictures when motion and contact sensors are active.",
		Variants: []Variant{
			{Caps: []string{"imageCapture", "motionSensor", "contactSensor"}, Rules: []Rule{{Trigger: "ev:motionSensor.motion.active", Then: `"imageCapture.image=taken"`}}},
		},
	},
	{
		ID:          "P.21",
		Description: "The camera must take a photo and the alarm must sound when doors open during user-specified times.",
		Variants: []Variant{
			{Caps: []string{"alarm", "contactSensor", "imageCapture"}, Rules: []Rule{{Trigger: "ev:contactSensor.contact.open", Then: `("alarm.alarm=siren" | ("alarm.alarm=strobe" | "alarm.alarm=both")) & "imageCapture.image=taken"`}}},
		},
	},
	{
		ID:          "P.22",
		Description: "The battery of devices must not be below the specified threshold (a warning action must fire).",
		Variants: []Variant{
			// On a low-battery event the warning switch must be driven
			// on.
			{Caps: []string{"battery", "switch"}, builder: func(_ *statemodel.Model, markers []string) (ctl.Formula, bool) {
				return afterThreshold(markers, "ev:battery.battery.", "<", "switch.switch=on")
			}},
		},
	},
	{
		ID:          "P.23",
		Description: "The door must not be unlocked for an unauthorized face.",
		Variants: []Variant{
			{Caps: []string{"lock", "imageCapture", "motionSensor"}, Rules: []Rule{{Trigger: "ev:motionSensor.motion.active", Then: `!"lock.lock=unlocked"`}}},
		},
	},
	{
		ID:          "P.24",
		Description: "The windows must not be open when the heater is on.",
		Variants: []Variant{
			{Caps: []string{"windowShade", "switch"}, Rules: []Rule{{Trigger: "ev:", Then: `!("windowShade.windowShade=open" & "switch.switch=on")`}}},
		},
	},
	{
		ID:          "P.25",
		Description: "The bell must not chime when the door is closed.",
		Variants: []Variant{
			{Caps: []string{"musicPlayer", "contactSensor"}, Rules: []Rule{{Trigger: "ev:contactSensor.contact.closed", Then: `!"musicPlayer.status=playing"`}}},
		},
	},
	{
		ID:          "P.26",
		Description: "The alarm must go off when the main door is left open for too long.",
		Variants: []Variant{
			{Caps: []string{"alarm", "contactSensor", "timer"}, Rules: []Rule{{Trigger: "ev:timer", Then: `"contactSensor.contact=open" -> ("alarm.alarm=siren" | ("alarm.alarm=strobe" | "alarm.alarm=both"))`}}},
		},
	},
	{
		ID:          "P.27",
		Description: "The mode must be home when the user is at home and away otherwise.",
		Variants: []Variant{
			{Caps: []string{"location", "presenceSensor"}, Rules: []Rule{
				{Trigger: "ev:presenceSensor.presence.present", Then: `"location.mode=home"`},
				{Trigger: "ev:presenceSensor.presence.not present", Then: `"location.mode=away"`},
			}},
		},
	},
	{
		ID:          "P.28",
		Description: "The sound system must not play during sleeping mode or when the user is away.",
		Variants: []Variant{
			{Caps: []string{"musicPlayer", "sleepSensor"}, Rules: []Rule{{Trigger: "ev:sleepSensor.sleeping.sleeping", Then: `!"musicPlayer.status=playing"`}}},
		},
	},
	{
		ID:          "P.29",
		Description: "The flood sensor must activate the alarm when there is water (and not otherwise).",
		Variants: []Variant{
			{Caps: []string{"alarm", "waterSensor"}, Rules: []Rule{
				{Trigger: "ev:waterSensor.water.wet", Then: `"alarm.alarm=siren" | ("alarm.alarm=strobe" | "alarm.alarm=both")`},
				{Trigger: "ev:waterSensor.water.dry", Then: `!("alarm.alarm=siren" | ("alarm.alarm=strobe" | "alarm.alarm=both"))`},
			}},
		},
	},
	{
		ID:          "P.30",
		Description: "The water valve must shut off when the moisture sensor detects a leak.",
		Variants: []Variant{
			{Caps: []string{"valve", "waterSensor"}, Rules: []Rule{{Trigger: "ev:waterSensor.water.wet", Then: `"valve.valve=closed"`}}},
		},
	},
})

// compile parses every rule's Then in place.
func compile(cat []AppProperty) []AppProperty {
	for _, p := range cat {
		for _, v := range p.Variants {
			for i := range v.Rules {
				v.Rules[i].then = ctl.MustParse(v.Rules[i].Then)
			}
		}
	}
	return cat
}

// PropertyByID returns the catalogue entry with the given ID.
func PropertyByID(id string) (AppProperty, bool) {
	for _, p := range Catalogue() {
		if p.ID == id {
			return p, true
		}
	}
	return AppProperty{}, false
}

// PropertyOutcome is the verdict of one catalogue formula under a
// pluggable checker: either a decision (Holds plus counterexample
// material) or a failure (Err non-nil, property undecided, with the
// contained engine failure recorded in Diagnostics).
type PropertyOutcome struct {
	Holds bool
	// FailingStates counts the initial states violating the formula.
	FailingStates int
	// Counterexample is a rendered model trace, when available.
	Counterexample string
	// Engine names the engine that checked the formula.
	Engine string
	// Diagnostics record contained failures encountered on the way.
	Diagnostics []guard.Diagnostic
	// Err, when non-nil, means the formula could not be decided.
	Err error
}

// PropertyChecker decides one catalogue formula. Implementations
// impose budgets and recovery boundaries; they must not panic.
type PropertyChecker func(propID string, f ctl.Formula) PropertyOutcome

// AppSpecificReport is the outcome of a catalogue sweep.
type AppSpecificReport struct {
	Violations []Violation
	// Checked lists the property IDs for which every applicable variant
	// was decided, in catalogue order.
	Checked []string
	// Diagnostics aggregates the contained failures of all properties.
	Diagnostics []guard.Diagnostic
	// Incomplete is true when at least one applicable variant could not
	// be decided.
	Incomplete bool
}

// CheckAppSpecificWith sweeps the whole catalogue sequentially,
// deciding each applicable variant's formula with check. A variant
// failure is contained: the property is marked undecided and the sweep
// continues, so the report still carries verdicts for every other
// property. See CheckAppSpecificOpts for property filtering.
func CheckAppSpecificWith(m *statemodel.Model, check PropertyChecker) AppSpecificReport {
	return CheckAppSpecificOpts(m, check, SweepOptions{})
}

// ExplicitChecker returns an unbudgeted PropertyChecker backed by the
// explicit-state engine, for sweeps run outside the analysis pipeline
// (CheckAppSpecific); the pipeline supplies its own budgeted checker.
func ExplicitChecker(k *kripke.Structure) PropertyChecker {
	return func(propID string, f ctl.Formula) PropertyOutcome {
		r := modelcheck.Check(k, f)
		out := PropertyOutcome{Holds: r.Holds, FailingStates: len(r.FailingStates), Engine: "explicit"}
		if !r.Holds && len(r.Counterexample) > 0 {
			out.Counterexample = k.RenderPath(r.Counterexample)
		}
		return out
	}
}

// CheckAppSpecific verifies every applicable catalogue property on the
// model with the explicit-state model checker and returns the
// violations found.
func CheckAppSpecific(m *statemodel.Model, k *kripke.Structure) []Violation {
	return CheckAppSpecificWith(m, ExplicitChecker(k)).Violations
}
