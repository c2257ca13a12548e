package properties

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// variantDigest pins the formula every catalogue variant builds on
// four synthetic models, bypassing the applicability check so that
// variants the app corpus never reaches are covered too. A change to
// how the catalogue states its properties must leave this digest (and
// the corpus digest in oracle_corpus_test.go) unchanged.
const variantDigest = "2113865822753c3caffa3045aa18b5ce6e0e0ac3c7f51a38daf7809a925fb695"

// oracleModel builds a two-state synthetic model over vars with one
// transition per event.
func oracleModel(t *testing.T, vars []*statemodel.Var, events []statemodel.Event) *statemodel.Model {
	t.Helper()
	m, err := statemodel.NewSynthetic(vars)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(vars))
	s0, err := m.AddState(idx)
	if err != nil {
		t.Fatal(err)
	}
	idx[0] = len(vars[0].Values) - 1
	s1, err := m.AddState(idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := m.AddTransition(s0, s1, ev, pathcond.True()); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func oracleModels(t *testing.T) []struct {
	name string
	m    *statemodel.Model
} {
	dev := statemodel.DeviceEvent
	mode := func(v string) statemodel.Event {
		return statemodel.Event{VarKey: "location.mode", Value: v, Kind: ir.ModeEvent}
	}
	timer := func(v string) statemodel.Event {
		return statemodel.Event{VarKey: "timer.time", Value: v, Kind: ir.TimerEvent}
	}
	setpoint := &statemodel.Var{Key: "thermostat.heatingSetpoint", Cap: "thermostat", Attr: "heatingSetpoint",
		Values: []string{"72", "heatingSetpoint==home", "heatingSetpoint==away"}}
	sw := func() []*statemodel.Var {
		return []*statemodel.Var{{Key: "switch.switch", Cap: "switch", Attr: "switch", Values: []string{"off", "on"}}}
	}
	every := []statemodel.Event{
		dev("presenceSensor.presence", "present"),
		dev("presenceSensor.presence", "not present"),
		dev("sleepSensor.sleeping", "sleeping"),
		timer("fired"),
		timer("sunset"),
		dev("motionSensor.motion", "active"),
		dev("motionSensor.motion", "inactive"),
		dev("smokeDetector.smoke", "detected"),
		dev("carbonMonoxideDetector.carbonMonoxide", "detected"),
		dev("waterSensor.water", "wet"),
		dev("waterSensor.water", "dry"),
		mode("away"),
		mode("home"),
		mode("night"),
		dev("relativeHumidityMeasurement.humidity", ">60"),
		dev("relativeHumidityMeasurement.humidity", "<30"),
		dev("battery.battery", "<20"),
		dev("battery.battery", ">50"),
		dev("contactSensor.contact", "open"),
		dev("contactSensor.contact", "closed"),
		dev("switch.switch", "on"),
		dev("switch.switch", "on"),
		{Kind: ir.AppTouchEvent, Value: "touched"},
	}
	return []struct {
		name string
		m    *statemodel.Model
	}{
		{"every-trigger", oracleModel(t, []*statemodel.Var{setpoint}, every)},
		{"first-of-pair", oracleModel(t, sw(), []statemodel.Event{
			dev("presenceSensor.presence", "present"),
			dev("waterSensor.water", "wet"),
		})},
		{"second-of-pair", oracleModel(t, sw(), []statemodel.Event{
			dev("presenceSensor.presence", "not present"),
			dev("waterSensor.water", "dry"),
		})},
		{"no-events", oracleModel(t, sw(), nil)},
	}
}

// TestEveryVariantDigest builds every variant of every property on
// each oracle model and pins the listing's SHA-256.
func TestEveryVariantDigest(t *testing.T) {
	var b strings.Builder
	for _, om := range oracleModels(t) {
		fmt.Fprintf(&b, "== %s\n", om.name)
		markers := eventMarkers(om.m)
		for _, p := range Catalogue() {
			for vi, v := range p.Variants {
				f, ok := v.formula(om.m, markers)
				if !ok {
					fmt.Fprintf(&b, "%s/%d vacuous\n", p.ID, vi)
					continue
				}
				fmt.Fprintf(&b, "%s/%d %s\n", p.ID, vi, f)
			}
		}
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	if got != variantDigest {
		t.Errorf("variant digest = %s, want %s\n%s", got, variantDigest, b.String())
	}
}
