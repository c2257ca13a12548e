package ctl_test

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/conformance"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// catalogueSeeds renders every applicable catalogue formula on the
// paper's example apps — realistic seeds exercising the proposition
// and operator grammar the analyzer actually produces.
func catalogueSeeds() []string {
	var out []string
	for _, src := range []string{
		paperapps.SmokeAlarm,
		paperapps.BuggySmokeAlarm,
		paperapps.WaterLeakDetector,
		paperapps.ThermostatEnergyControl,
	} {
		app, err := ir.BuildSource("seed", src)
		if err != nil {
			continue
		}
		m, err := statemodel.Build(app)
		if err != nil {
			continue
		}
		for _, pf := range properties.Formulas(m, nil) {
			out = append(out, pf.Formula.String())
		}
	}
	return out
}

// FuzzParse drives the CTL parser with arbitrary input. The
// invariants are totality (no panic, even on deeply nested input —
// the depth limit must kick in before the stack does) and that any
// accepted formula round-trips through its rendering.
func FuzzParse(f *testing.F) {
	for _, s := range catalogueSeeds() {
		f.Add(s)
	}
	// Seeded random formulas from the conformance generator — every CTL
	// constructor over device-style atoms, shapes the catalogue never
	// produces.
	for _, s := range conformance.GenFormulaStrings(1, 64) {
		f.Add(s)
	}
	seeds := []string{
		"true", "false", "\"valve.valve=closed\"",
		"AG(\"smoke.smoke=detected\" -> AF \"alarm.alarm=siren\")",
		"E[\"a\" U \"b\"] & A[\"c\" U \"d\"]",
		"EX !\"p\" | AX \"q\"",
		"EF EG AF AG \"p\"",
		"((((\"p\"))))",
		"!(!(!\"p\"))",
		"AG(", "E[\"a\" U", "\"unterminated",
		strings.Repeat("!", 2000) + "\"p\"",
		strings.Repeat("(", 2000) + "\"p\"" + strings.Repeat(")", 2000),
		strings.Repeat("AG ", 1500) + "\"p\"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := ctl.Parse(src)
		if err != nil {
			return
		}
		f2, err := ctl.Parse(f1.String())
		if err != nil {
			t.Fatalf("rendering of accepted formula does not reparse: %q: %v", f1.String(), err)
		}
		if f1.String() != f2.String() {
			t.Fatalf("round-trip mismatch: %q vs %q", f1.String(), f2.String())
		}
	})
}
