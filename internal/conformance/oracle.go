package conformance

import (
	"fmt"
	"strings"

	"github.com/soteria-analysis/soteria/internal/bmc"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/smv"
	"github.com/soteria-analysis/soteria/internal/symbolic"
)

// Mismatch is one oracle disagreement: a (model, formula) pair on
// which the deciders — or a round-trip — diverge.
type Mismatch struct {
	Case *Case
	// Kind classifies the disagreement: "verdict", "satset",
	// "ctl-roundtrip", "smv-roundtrip", or "replay".
	Kind string
	// Engines names the two sides ("explicit/bdd", ...).
	Engines string
	// Detail is a human-readable account.
	Detail string
}

// Error formats the mismatch with its reproducer.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("conformance: %s mismatch (%s): %s\nformula: %s\nreproducer:\n%s",
		m.Kind, m.Engines, m.Detail, m.Case.F.String(), m.Case.Spec.String())
}

// CheckCase runs one (model, formula) pair through the selected
// engines, the CTL and SMV round-trips, and the replay validators.
// It returns the first disagreement, or nil on full agreement.
func CheckCase(c *Case, es EngineSet) *Mismatch {
	mismatch := func(kind, engines, format string, args ...any) *Mismatch {
		return &Mismatch{Case: c, Kind: kind, Engines: engines, Detail: fmt.Sprintf(format, args...)}
	}

	// Reference engine: explicit-state fixpoint.
	ref := modelcheck.Check(c.K, c.F)
	c.engineRuns++

	// Its counterexample must replay.
	if !ref.Holds {
		c.replayed++
		if err := ValidateCounterexample(c.K, c.F, ref); err != nil {
			return mismatch("replay", "explicit", "%v", err)
		}
	}

	// Witnesses for existential shapes must replay from every
	// satisfying initial state.
	switch c.F.(type) {
	case ctl.EX, ctl.EF, ctl.EU, ctl.EG:
		for _, s := range c.K.Init {
			path, loop, ok := modelcheck.Witness(c.K, c.F, s)
			if ok != ref.Sat[s] {
				return mismatch("replay", "explicit", "Witness ok=%v but Sat[%d]=%v", ok, s, ref.Sat[s])
			}
			if !ok {
				continue
			}
			c.replayed++
			if err := ValidateWitness(c.K, c.F, s, path, loop); err != nil {
				return mismatch("replay", "explicit", "%v", err)
			}
		}
	}

	// BDD-symbolic engine: verdict and full satisfaction set.
	if es.BDD {
		sym := symbolic.New(c.K).Check(c.F)
		c.engineRuns++
		if sym.Holds != ref.Holds {
			return mismatch("verdict", "explicit/bdd", "explicit=%v bdd=%v", ref.Holds, sym.Holds)
		}
		for s := 0; s < c.K.N; s++ {
			if sym.Sat[s] != ref.Sat[s] {
				return mismatch("satset", "explicit/bdd",
					"state %d: explicit=%v bdd=%v", s, ref.Sat[s], sym.Sat[s])
			}
		}
	}

	// SAT-based BMC: complete for AG over propositional bodies when
	// unrolled to the state count.
	if es.BMC {
		if r, handled := bmc.CheckAG(c.K, c.F, c.K.N); handled {
			c.engineRuns++
			if r.Violated == ref.Holds {
				return mismatch("verdict", "explicit/bmc",
					"explicit=%v bmc.Violated=%v at depth %d", ref.Holds, r.Violated, r.Depth)
			}
			if r.Violated {
				c.replayed++
				if err := ValidateBMCTrace(c.K, c.F.(ctl.AG).X, r); err != nil {
					return mismatch("replay", "bmc", "%v", err)
				}
			}
		}
	}

	// CTL round-trip: the rendering of any formula must re-parse to
	// the same formula.
	if reparsed, err := ctl.Parse(c.F.String()); err != nil {
		return mismatch("ctl-roundtrip", "ctl", "rendering does not re-parse: %v", err)
	} else if reparsed.String() != c.F.String() {
		return mismatch("ctl-roundtrip", "ctl", "re-parse changed the formula: %q vs %q",
			c.F.String(), reparsed.String())
	}

	// SMV round-trip: the emitted module must re-parse and re-emit
	// byte-identically, with the model's shape preserved.
	if m := checkSMVRoundTrip(c); m != nil {
		return m
	}
	return nil
}

// checkSMVRoundTrip emits the case's model (with the formula as its
// SPEC), re-parses the module, and cross-checks structure: emission
// idempotence, variable domains, transition count, and spec count.
func checkSMVRoundTrip(c *Case) *Mismatch {
	mismatch := func(format string, args ...any) *Mismatch {
		return &Mismatch{Case: c, Kind: "smv-roundtrip", Engines: "smv", Detail: fmt.Sprintf(format, args...)}
	}
	out := smv.Emit(c.Model, []ctl.Formula{c.F})
	mod, err := smv.Parse(out)
	if err != nil {
		return mismatch("emitted module does not re-parse: %v", err)
	}
	if re := mod.Emit(); re != out {
		return mismatch("re-emission is not byte-identical (%d vs %d bytes)", len(re), len(out))
	}
	// One declaration per model variable plus the _event marker.
	if len(mod.Vars) != len(c.Model.Vars)+1 {
		return mismatch("parsed module has %d variables, model has %d (+_event)",
			len(mod.Vars), len(c.Model.Vars))
	}
	for _, v := range c.Model.Vars {
		decl, ok := mod.VarByName(smvSymbol(v.Key))
		if !ok {
			return mismatch("model variable %s missing from module", v.Key)
		}
		if len(decl.Values) != len(v.Values) {
			return mismatch("variable %s: module domain has %d values, model %d",
				v.Key, len(decl.Values), len(v.Values))
		}
	}
	if _, ok := mod.VarByName("_event"); !ok {
		return mismatch("module lacks the _event marker variable")
	}
	// One TRANS disjunct per model transition (or the stutter
	// disjunct for an inert model).
	want := c.Model.NumTransitions()
	if want == 0 {
		want = 1
	}
	if len(mod.Trans) != want {
		return mismatch("module has %d TRANS disjuncts, model has %d transitions",
			len(mod.Trans), c.Model.NumTransitions())
	}
	if len(mod.Specs) != 1 {
		return mismatch("module has %d SPEC lines, want 1", len(mod.Specs))
	}
	return nil
}

// smvSymbol mirrors the emitter's identifier sanitisation for the
// generator's variable keys (alphanumerics, '.', '_' only).
func smvSymbol(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '.' {
			return '_'
		}
		return r
	}, s)
}
