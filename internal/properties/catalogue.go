package properties

import (
	"strings"

	"github.com/soteria-analysis/soteria/internal/capability"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

func capLookup(name string) (*capability.Capability, bool) {
	return capability.Lookup(name)
}

// AppProperty is one entry of the P.1–P.30 catalogue (Appendix B
// Table 2). A property may have several device-set variants; it is
// checked when some variant's devices are all granted, and violated
// when any applicable variant's formula fails.
type AppProperty struct {
	ID          string
	Description string
	Variants    []Variant
}

// Variant is one device-set instantiation of a property.
type Variant struct {
	// Caps lists required capability names; "timer" and "location"
	// require the corresponding abstract events/variables.
	Caps []string
	// Build produces the CTL formula for the model; ok=false when the
	// model offers nothing to check (vacuously passing variant).
	Build func(m *statemodel.Model) (ctl.Formula, bool)
}

// Applicable reports whether the model grants every capability of the
// variant.
func (v Variant) Applicable(m *statemodel.Model) bool {
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

// ---------------------------------------------------------------------------
// Formula-building helpers

// evProps returns the event-marker propositions present in the model's
// transitions that match the given prefix (e.g.
// "ev:presenceSensor.presence.").
func evProps(m *statemodel.Model, prefix string) []string {
	set := map[string]bool{}
	for _, t := range m.Transitions {
		p := "ev:" + t.Event.String()
		if strings.HasPrefix(p, prefix) {
			set[p] = true
		}
	}
	return sortedMapKeys(set)
}

func orProps(props []string) ctl.Formula {
	if len(props) == 0 {
		return ctl.FalseF{}
	}
	var f ctl.Formula = ctl.Prop{Name: props[0]}
	for _, p := range props[1:] {
		f = ctl.Or{L: f, R: ctl.Prop{Name: p}}
	}
	return f
}

// valueProp is the proposition "varKey=value".
func valueProp(key, value string) ctl.Formula {
	return ctl.Prop{Name: key + "=" + value}
}

// anyValueProp builds the disjunction of "key=v" for the domain values
// accepted by pred.
func anyValueProp(m *statemodel.Model, key string, pred func(string) bool) (ctl.Formula, bool) {
	v, _, ok := m.VarByKey(key)
	if !ok {
		return nil, false
	}
	var f ctl.Formula
	for _, val := range v.Values {
		if !pred(val) {
			continue
		}
		p := valueProp(key, val)
		if f == nil {
			f = p
		} else {
			f = ctl.Or{L: f, R: p}
		}
	}
	if f == nil {
		return ctl.FalseF{}, true
	}
	return f, true
}

// afterEvent builds AG(⋁events → then); ok=false when the model has no
// matching events (vacuous).
func afterEvent(m *statemodel.Model, evPrefix string, then ctl.Formula) (ctl.Formula, bool) {
	props := evProps(m, evPrefix)
	if len(props) == 0 {
		return nil, false
	}
	return ctl.AG{X: ctl.Implies{L: orProps(props), R: then}}, true
}

// afterAnyEvent builds AG(anyEvent → then).
func afterAnyEvent(m *statemodel.Model, then ctl.Formula) (ctl.Formula, bool) {
	return afterEvent(m, "ev:", then)
}

func and2(a, b ctl.Formula) ctl.Formula { return ctl.And{L: a, R: b} }
func not(a ctl.Formula) ctl.Formula     { return ctl.Not{X: a} }

// alarmSounding is the disjunction of the alarm's active values.
func alarmSounding() ctl.Formula {
	return ctl.Or{
		L: valueProp("alarm.alarm", "siren"),
		R: ctl.Or{L: valueProp("alarm.alarm", "strobe"), R: valueProp("alarm.alarm", "both")},
	}
}

// ---------------------------------------------------------------------------
// The catalogue

// Catalogue returns the thirty application-specific properties. Each
// Build constructs an event-triggered CTL formula: Soteria checks what
// the app drives the environment to *after handling an event*, which
// avoids vacuous violations in unreachable corners of the state
// product.
func Catalogue() []AppProperty {
	return []AppProperty{
		{
			ID:          "P.1",
			Description: "The door must be locked when a user is not present at home or sleeping.",
			Variants: []Variant{
				{Caps: []string{"lock", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:presenceSensor.presence.not present", valueProp("lock.lock", "locked"))
				}},
				{Caps: []string{"lock", "sleepSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:sleepSensor.sleeping.sleeping", valueProp("lock.lock", "locked"))
				}},
				{Caps: []string{"lock", "timer"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					// TP8-style sunrise/sunset scheduling: a timer
					// event must never leave the door unlocked.
					return afterEvent(m, "ev:timer", valueProp("lock.lock", "locked"))
				}},
			},
		},
		{
			ID:          "P.2",
			Description: "The lights must be turned on if the motion sensor is active.",
			Variants: []Variant{
				{Caps: []string{"switch", "motionSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:motionSensor.motion.active", valueProp("switch.switch", "on"))
				}},
			},
		},
		{
			ID:          "P.3",
			Description: "When there is smoke, the lights must be on and the door must be unlocked.",
			Variants: []Variant{
				{Caps: []string{"lock", "smokeDetector"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:smokeDetector.smoke.detected", valueProp("lock.lock", "unlocked"))
				}},
				// Multi-app chain variant (§4.4's App12–14 misuse case):
				// no event may leave the door locked while smoke is
				// detected in the home.
				{Caps: []string{"lock", "smokeDetector", "location"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterAnyEvent(m, ctl.Implies{
						L: valueProp("smokeDetector.smoke", "detected"),
						R: not(valueProp("lock.lock", "locked")),
					})
				}},
			},
		},
		{
			ID:          "P.4",
			Description: "The light must be on when the user arrives home.",
			Variants: []Variant{
				{Caps: []string{"switch", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:presenceSensor.presence.present", valueProp("switch.switch", "on"))
				}},
			},
		},
		{
			ID:          "P.5",
			Description: "Camera-controlled doors must be closed when the door is clear of objects.",
			Variants: []Variant{
				{Caps: []string{"garageDoorControl", "imageCapture", "motionSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:motionSensor.motion.inactive", valueProp("garageDoorControl.door", "closed"))
				}},
			},
		},
		{
			ID:          "P.6",
			Description: "The garage door must open when people arrive and close when people leave.",
			Variants: []Variant{
				{Caps: []string{"garageDoorControl", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					arrive, ok1 := afterEvent(m, "ev:presenceSensor.presence.present", valueProp("garageDoorControl.door", "open"))
					leave, ok2 := afterEvent(m, "ev:presenceSensor.presence.not present", valueProp("garageDoorControl.door", "closed"))
					switch {
					case ok1 && ok2:
						return and2(arrive, leave), true
					case ok1:
						return arrive, true
					case ok2:
						return leave, true
					}
					return nil, false
				}},
			},
		},
		{
			ID:          "P.7",
			Description: "The beacon must be inside the geofence to turn on the lights and open the garage door.",
			Variants: []Variant{
				{Caps: []string{"switch", "garageDoorControl", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					// Lights/garage must not activate on a leave event.
					return afterEvent(m, "ev:presenceSensor.presence.not present",
						not(and2(valueProp("switch.switch", "on"), valueProp("garageDoorControl.door", "open"))))
				}},
			},
		},
		{
			ID:          "P.8",
			Description: "The lights must be turned off when the sleep sensor detects the user is sleeping.",
			Variants: []Variant{
				{Caps: []string{"switch", "sleepSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:sleepSensor.sleeping.sleeping", valueProp("switch.switch", "off"))
				}},
			},
		},
		{
			ID:          "P.9",
			Description: "The security system must not be disarmed when the user is not at home.",
			Variants: []Variant{
				{Caps: []string{"alarm", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:presenceSensor.presence.not present", not(valueProp("alarm.alarm", "off")))
				}},
			},
		},
		{
			ID:          "P.10",
			Description: "The alarm must sound when there is smoke or carbon monoxide.",
			Variants: []Variant{
				{Caps: []string{"alarm", "smokeDetector"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:smokeDetector.smoke.detected", alarmSounding())
				}},
				{Caps: []string{"alarm", "carbonMonoxideDetector"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:carbonMonoxideDetector.carbonMonoxide.detected", alarmSounding())
				}},
			},
		},
		{
			ID:          "P.11",
			Description: "The valve must be closed when the water sensor is wet or the water level exceeds the user threshold.",
			Variants: []Variant{
				{Caps: []string{"valve", "waterSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:waterSensor.water.wet", valueProp("valve.valve", "closed"))
				}},
			},
		},
		{
			ID:          "P.12",
			Description: "Devices must not be turned on when the user is not at home or sleeping.",
			Variants: []Variant{
				{Caps: []string{"switch", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:presenceSensor.presence.not present", valueProp("switch.switch", "off"))
				}},
				// The location variant needs a motion sensor: absence
				// of the user is signalled by motion-inactive driving
				// the away mode (the G.3 misuse chain).
				{Caps: []string{"switch", "location", "motionSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:location.mode.away", valueProp("switch.switch", "off"))
				}},
			},
		},
		{
			ID:          "P.13",
			Description: "Device functionality (coffee machine, crock-pot, music) must not be used when the user is away, or only at the user-set time.",
			Variants: []Variant{
				{Caps: []string{"musicPlayer", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:presenceSensor.presence.not present", not(valueProp("musicPlayer.status", "playing")))
				}},
				{Caps: []string{"switch", "presenceSensor", "timer"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					then := ctl.Implies{
						L: valueProp("presenceSensor.presence", "not present"),
						R: valueProp("switch.switch", "off"),
					}
					return afterEvent(m, "ev:timer", then)
				}},
				{Caps: []string{"musicPlayer", "location", "motionSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:location.mode.away", not(valueProp("musicPlayer.status", "playing")))
				}},
			},
		},
		{
			ID:          "P.14",
			Description: "The refrigerator, alarm, and security system must not be disabled.",
			Variants: []Variant{
				{Caps: []string{"alarm", "location"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:location.mode.", not(valueProp("alarm.alarm", "off")))
				}},
				// Security-system switches must stay on across mode
				// changes in an environment that also automates the
				// thermostat (the G.3 device set).
				{Caps: []string{"switch", "location", "thermostat"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:location.mode.", valueProp("switch.switch", "on"))
				}},
			},
		},
		{
			ID:          "P.15",
			Description: "The temperature must follow the user's operating-mode values on motion, and the idle values otherwise.",
			Variants: []Variant{
				{Caps: []string{"thermostat", "motionSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					set, ok := anyValueProp(m, "thermostat.heatingSetpoint", func(v string) bool {
						return strings.Contains(v, "==")
					})
					if !ok {
						return nil, false
					}
					return afterEvent(m, "ev:motionSensor.motion.active", set)
				}},
			},
		},
		{
			ID:          "P.16",
			Description: "The thermostat temperature entered by the user must be applied when the mode changes.",
			Variants: []Variant{
				{Caps: []string{"thermostat", "location"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					set, ok := anyValueProp(m, "thermostat.heatingSetpoint", func(v string) bool {
						return strings.Contains(v, "==")
					})
					if !ok {
						return nil, false
					}
					return afterEvent(m, "ev:location.mode.", set)
				}},
			},
		},
		{
			ID:          "P.17",
			Description: "The AC and heater must not be on at the same time.",
			Variants: []Variant{
				{Caps: []string{"switch", "fanControl"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterAnyEvent(m, not(and2(valueProp("switch.switch", "on"), valueProp("fanControl.fan", "on"))))
				}},
				{Caps: []string{"thermostat", "fanControl"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterAnyEvent(m, not(and2(valueProp("thermostat.thermostatMode", "heat"), valueProp("fanControl.fan", "on"))))
				}},
			},
		},
		{
			ID:          "P.18",
			Description: "HVACs, fans, and heaters must be off when temperature/humidity are out of the user zone.",
			Variants: []Variant{
				{Caps: []string{"switch", "relativeHumidityMeasurement"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					props := evProps(m, "ev:relativeHumidityMeasurement.humidity.")
					var out []string
					for _, p := range props {
						if strings.Contains(p, ">") {
							out = append(out, p)
						}
					}
					if len(out) == 0 {
						return nil, false
					}
					return ctl.AG{X: ctl.Implies{L: orProps(out), R: valueProp("switch.switch", "off")}}, true
				}},
			},
		},
		{
			ID:          "P.19",
			Description: "The AC must be on when the user is within the configured distance of the house.",
			Variants: []Variant{
				{Caps: []string{"fanControl", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:presenceSensor.presence.present", valueProp("fanControl.fan", "on"))
				}},
			},
		},
		{
			ID:          "P.20",
			Description: "The security camera must take pictures when motion and contact sensors are active.",
			Variants: []Variant{
				{Caps: []string{"imageCapture", "motionSensor", "contactSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:motionSensor.motion.active", valueProp("imageCapture.image", "taken"))
				}},
			},
		},
		{
			ID:          "P.21",
			Description: "The camera must take a photo and the alarm must sound when doors open during user-specified times.",
			Variants: []Variant{
				{Caps: []string{"alarm", "contactSensor", "imageCapture"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:contactSensor.contact.open",
						and2(alarmSounding(), valueProp("imageCapture.image", "taken")))
				}},
			},
		},
		{
			ID:          "P.22",
			Description: "The battery of devices must not be below the specified threshold (a warning action must fire).",
			Variants: []Variant{
				{Caps: []string{"battery", "switch"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					// On a low-battery event the warning switch must
					// be driven on.
					props := evProps(m, "ev:battery.battery.")
					var low []string
					for _, p := range props {
						if strings.Contains(p, "<") {
							low = append(low, p)
						}
					}
					if len(low) == 0 {
						return nil, false
					}
					return ctl.AG{X: ctl.Implies{L: orProps(low), R: valueProp("switch.switch", "on")}}, true
				}},
			},
		},
		{
			ID:          "P.23",
			Description: "The door must not be unlocked for an unauthorized face.",
			Variants: []Variant{
				{Caps: []string{"lock", "imageCapture", "motionSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:motionSensor.motion.active", not(valueProp("lock.lock", "unlocked")))
				}},
			},
		},
		{
			ID:          "P.24",
			Description: "The windows must not be open when the heater is on.",
			Variants: []Variant{
				{Caps: []string{"windowShade", "switch"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterAnyEvent(m, not(and2(valueProp("windowShade.windowShade", "open"), valueProp("switch.switch", "on"))))
				}},
			},
		},
		{
			ID:          "P.25",
			Description: "The bell must not chime when the door is closed.",
			Variants: []Variant{
				{Caps: []string{"musicPlayer", "contactSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:contactSensor.contact.closed", not(valueProp("musicPlayer.status", "playing")))
				}},
			},
		},
		{
			ID:          "P.26",
			Description: "The alarm must go off when the main door is left open for too long.",
			Variants: []Variant{
				{Caps: []string{"alarm", "contactSensor", "timer"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					then := ctl.Implies{L: valueProp("contactSensor.contact", "open"), R: alarmSounding()}
					return afterEvent(m, "ev:timer", then)
				}},
			},
		},
		{
			ID:          "P.27",
			Description: "The mode must be home when the user is at home and away otherwise.",
			Variants: []Variant{
				{Caps: []string{"location", "presenceSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					home, ok1 := afterEvent(m, "ev:presenceSensor.presence.present", valueProp("location.mode", "home"))
					away, ok2 := afterEvent(m, "ev:presenceSensor.presence.not present", valueProp("location.mode", "away"))
					switch {
					case ok1 && ok2:
						return and2(home, away), true
					case ok1:
						return home, true
					case ok2:
						return away, true
					}
					return nil, false
				}},
			},
		},
		{
			ID:          "P.28",
			Description: "The sound system must not play during sleeping mode or when the user is away.",
			Variants: []Variant{
				{Caps: []string{"musicPlayer", "sleepSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:sleepSensor.sleeping.sleeping", not(valueProp("musicPlayer.status", "playing")))
				}},
			},
		},
		{
			ID:          "P.29",
			Description: "The flood sensor must activate the alarm when there is water (and not otherwise).",
			Variants: []Variant{
				{Caps: []string{"alarm", "waterSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					wet, ok1 := afterEvent(m, "ev:waterSensor.water.wet", alarmSounding())
					dry, ok2 := afterEvent(m, "ev:waterSensor.water.dry", not(alarmSounding()))
					switch {
					case ok1 && ok2:
						return and2(wet, dry), true
					case ok1:
						return wet, true
					case ok2:
						return dry, true
					}
					return nil, false
				}},
			},
		},
		{
			ID:          "P.30",
			Description: "The water valve must shut off when the moisture sensor detects a leak.",
			Variants: []Variant{
				{Caps: []string{"valve", "waterSensor"}, Build: func(m *statemodel.Model) (ctl.Formula, bool) {
					return afterEvent(m, "ev:waterSensor.water.wet", valueProp("valve.valve", "closed"))
				}},
			},
		},
	}
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
// explicit-state engine — the legacy single-engine behavior.
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
