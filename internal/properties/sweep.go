package properties

import (
	"fmt"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// SweepOptions configures a catalogue sweep.
type SweepOptions struct {
	// IDs restricts the sweep to the listed property IDs; nil or empty
	// means the whole catalogue. Filtering happens before dispatch:
	// unrequested properties are never built or checked, and they do
	// not appear in the report's Checked list.
	IDs []string
}

// CheckAppSpecificOpts sweeps the catalogue under SweepOptions,
// deciding each applicable variant's formula with check. A variant
// failure is contained: the property is marked undecided and the sweep
// continues, so the report still carries verdicts for every other
// property. Every formula is built before the first check runs, so a
// checker's own timing measures checks only.
func CheckAppSpecificOpts(m *statemodel.Model, check PropertyChecker, o SweepOptions) AppSpecificReport {
	tasks := Formulas(m, o.IDs)
	outcomes := make([]PropertyOutcome, len(tasks))
	for i, task := range tasks {
		outcomes[i] = checkContained(check, task.ID, task.Formula)
	}
	return mergeOutcomes(m, tasks, outcomes)
}

// checkContained runs one check inside a recovery boundary: a panic
// escaping a (mis-implemented) checker undecides only that variant
// instead of aborting the rest of the sweep.
func checkContained(check PropertyChecker, id string, f ctl.Formula) (out PropertyOutcome) {
	err := guard.Run("property.dispatch", func() error {
		out = check(id, f)
		return nil
	})
	if err != nil {
		out = PropertyOutcome{
			Diagnostics: []guard.Diagnostic{guard.Diagnose("property.dispatch", id, "", err)},
			Err:         err,
		}
	}
	return out
}

// mergeOutcomes folds per-variant outcomes back into a report in
// catalogue order.
func mergeOutcomes(m *statemodel.Model, tasks []PropertyFormula, outcomes []PropertyOutcome) AppSpecificReport {
	var rep AppSpecificReport
	appNames := make([]string, len(m.Apps))
	for i, am := range m.Apps {
		appNames[i] = am.App.Name
	}
	seen := map[string]bool{}
	ti := 0
	for _, prop := range catalogue {
		applicable, decided := false, true
		for ti < len(tasks) && tasks[ti].ID == prop.ID {
			out, f := outcomes[ti], tasks[ti].Formula
			ti++
			applicable = true
			rep.Diagnostics = append(rep.Diagnostics, out.Diagnostics...)
			if out.Err != nil {
				decided = false
				rep.Incomplete = true
				continue
			}
			if out.Holds {
				continue
			}
			detail := fmt.Sprintf("formula %s fails in %d state(s)", f, out.FailingStates)
			if seen[prop.ID+"|"+detail] {
				continue
			}
			seen[prop.ID+"|"+detail] = true
			rep.Violations = append(rep.Violations, Violation{
				ID: prop.ID, Kind: AppSpecific,
				Description: prop.Description,
				Detail:      detail,
				Apps:        appNames, Counterexample: out.Counterexample,
			})
		}
		if applicable && decided {
			rep.Checked = append(rep.Checked, prop.ID)
		}
	}
	return rep
}
