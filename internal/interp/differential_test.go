package interp

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// evalCond decides a numeric abstract value's defining condition under
// a concrete value and install configuration (symbolic right-hand
// sides are user-input handles resolved from config).
func evalCond(c pathcond.Cond, key string, val float64, config map[string]Value) bool {
	for _, a := range c.Atoms {
		if a.Var != key {
			continue
		}
		var rhs float64
		switch {
		case a.IsSym():
			v, ok := config[a.RHSVar]
			if !ok {
				return false
			}
			rhs = v.Num
		case a.IsNum:
			rhs = a.Num
		default:
			continue
		}
		ok := false
		switch a.Op {
		case pathcond.EQ:
			ok = val == rhs
		case pathcond.NE:
			ok = val != rhs
		case pathcond.LT:
			ok = val < rhs
		case pathcond.LE:
			ok = val <= rhs
		case pathcond.GT:
			ok = val > rhs
		case pathcond.GE:
			ok = val >= rhs
		}
		if !ok {
			return false
		}
	}
	return true
}

// abstractValue maps a concrete attribute value to the model
// variable's domain index.
func abstractValue(v *statemodel.Var, raw string, config map[string]Value) (int, error) {
	if !v.Numeric {
		if i, ok := v.ValueIndex(raw); ok {
			return i, nil
		}
		return -1, fmt.Errorf("value %q not in %s's domain %v", raw, v.Key, v.Values)
	}
	num, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return -1, fmt.Errorf("non-numeric %q for %s", raw, v.Key)
	}
	for i, c := range v.ValueConds {
		if evalCond(c, v.Key, num, config) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("no abstract value for %s=%g", v.Key, num)
}

// mapState maps the interpreter's concrete device store to a model
// state ID.
func mapState(m *statemodel.Model, env *Env, config map[string]Value) (int, error) {
	idx := make([]int, len(m.Vars))
	for vi, v := range m.Vars {
		raw, ok := env.Devices[v.Key]
		if !ok {
			return -1, fmt.Errorf("device store missing %s", v.Key)
		}
		i, err := abstractValue(v, raw, config)
		if err != nil {
			return -1, err
		}
		idx[vi] = i
	}
	// Locate the state by label (states cover the full product).
	req := map[string]string{}
	for vi, v := range m.Vars {
		req[v.Key] = v.Values[idx[vi]]
	}
	states := m.FindStates(req)
	if len(states) != 1 {
		return -1, fmt.Errorf("state lookup found %d states", len(states))
	}
	return states[0], nil
}

// concreteEvent is one fireable event with its concrete value.
type concreteEvent struct {
	sub ir.Subscription
	val string
}

// candidateEvents enumerates concrete events for an app.
func candidateEvents(app *ir.App, m *statemodel.Model) []concreteEvent {
	var out []concreteEvent
	for _, ep := range app.EntryPoints {
		sub := ep.Sub
		switch sub.Kind {
		case ir.TimerEvent:
			out = append(out, concreteEvent{sub: sub, val: sub.Value})
		case ir.AppTouchEvent:
			out = append(out, concreteEvent{sub: sub, val: "touched"})
		case ir.ModeEvent:
			v, _, ok := m.VarByKey("location.mode")
			if !ok {
				continue
			}
			for _, val := range v.Values {
				if sub.Value != "" && val != sub.Value {
					continue
				}
				out = append(out, concreteEvent{sub: sub, val: val})
			}
		case ir.DeviceEvent:
			p, ok := app.PermissionByHandle(sub.Handle)
			if !ok || p.Cap == nil {
				continue
			}
			attr, found := p.Cap.Attribute(sub.Attr)
			if !found {
				attr = p.Cap.PrimaryAttribute()
			}
			if attr == nil {
				continue
			}
			if len(attr.Values) > 0 {
				for _, val := range attr.Values {
					if sub.Value != "" && val != sub.Value {
						continue
					}
					out = append(out, concreteEvent{sub: sub, val: val})
				}
			} else {
				// Numeric sensor: sample around typical thresholds.
				for _, n := range []string{"1", "4", "30", "49", "51", "75", "120", "951"} {
					out = append(out, concreteEvent{sub: sub, val: n})
				}
			}
		}
	}
	return out
}

// runDifferential drives random event sequences through the concrete
// interpreter and asserts every concrete step is simulated by a model
// transition (soundness of the extraction).
func runDifferential(t *testing.T, label string, app *ir.App, steps int, seed int64) {
	t.Helper()
	m, err := statemodel.Build(app)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	config := map[string]Value{}
	for _, p := range app.UserInputs() {
		switch p.RawType {
		case "number", "decimal":
			config[p.Handle] = NumV(50)
		default:
			config[p.Handle] = StrV("config-" + p.Handle)
		}
	}
	devices := DefaultDevices(app)
	// Every model variable needs a concrete seed value.
	for _, v := range m.Vars {
		if _, ok := devices[v.Key]; ok {
			continue
		}
		if v.Numeric {
			devices[v.Key] = "0"
		} else {
			devices[v.Key] = v.Values[0]
		}
	}
	env := NewEnv(app, devices, config)

	events := candidateEvents(app, m)
	if len(events) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		ev := events[rng.Intn(len(events))]
		pre, err := mapState(m, env, config)
		if err != nil {
			t.Fatalf("%s step %d: pre-state: %v", label, step, err)
		}
		if _, err := env.Fire(ev.sub, ev.val); err != nil {
			t.Fatalf("%s step %d: fire: %v", label, step, err)
		}
		post, err := mapState(m, env, config)
		if err != nil {
			t.Fatalf("%s step %d: post-state: %v", label, step, err)
		}

		// Determine the model event label.
		var wantVar, wantVal string
		switch ev.sub.Kind {
		case ir.TimerEvent:
			wantVar, wantVal = "timer.time", ev.sub.Value
		case ir.AppTouchEvent:
			wantVar, wantVal = "app.touch", app.Name
		case ir.ModeEvent:
			wantVar, wantVal = "location.mode", ev.val
		case ir.DeviceEvent:
			p, _ := app.PermissionByHandle(ev.sub.Handle)
			attrName := ev.sub.Attr
			if _, found := p.Cap.Attribute(attrName); !found {
				attrName = p.Cap.PrimaryAttribute().Name
			}
			wantVar = p.Cap.Name + "." + attrName
			v, _, _ := m.VarByKey(wantVar)
			i, err := abstractValue(v, ev.val, config)
			if err != nil {
				t.Fatalf("%s step %d: event value: %v", label, step, err)
			}
			wantVal = v.Values[i]
		}

		found := false
		for i := range m.NumTransitions() {
			tr := m.Transition(i)
			if tr.From == pre && tr.To == post &&
				tr.Event.VarKey == wantVar && tr.Event.Value == wantVal {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s step %d: concrete step not simulated:\n  pre  %s\n  event %s=%s (concrete %s via %s)\n  post %s",
				label, step, m.StateLabel(pre), wantVar, wantVal, ev.val, ev.sub.Handler, m.StateLabel(post))
		}
	}
}

func TestDifferentialPaperApps(t *testing.T) {
	for _, s := range [][2]string{
		{"smoke-alarm", paperapps.SmokeAlarm},
		{"buggy-smoke-alarm", paperapps.BuggySmokeAlarm},
		{"water-leak", paperapps.WaterLeakDetector},
		{"thermostat", paperapps.ThermostatEnergyControl},
	} {
		app, err := ir.BuildSource(s[0], s[1])
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, s[0], app, 120, 11)
	}
}

func TestDifferentialMarketCorpus(t *testing.T) {
	for i, spec := range market.All() {
		app, err := spec.Parse()
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		runDifferential(t, spec.ID, app, 60, int64(i)+100)
	}
}
