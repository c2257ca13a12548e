package paperapps

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

func TestCorpusLoads(t *testing.T) {
	apps := Corpus()
	if len(apps) != 4 {
		t.Fatalf("corpus has %d apps, want 4", len(apps))
	}
	want := []string{"Smoke-Alarm", "Buggy-Smoke-Alarm", "Water-Leak-Detector", "Thermostat-Energy-Control"}
	for i, app := range apps {
		if app.Name != want[i] {
			t.Errorf("corpus[%d] = %s, want %s", i, app.Name, want[i])
		}
		if app.Source == "" {
			t.Errorf("%s has empty source", app.Name)
		}
	}
}

func TestEveryAppBuildsNonEmptyModel(t *testing.T) {
	for _, app := range Corpus() {
		a, err := ir.BuildSource(app.Name, app.Source)
		if err != nil {
			t.Errorf("%s does not parse: %v", app.Name, err)
			continue
		}
		m, err := statemodel.Build(a)
		if err != nil {
			t.Errorf("%s: state model extraction failed: %v", app.Name, err)
			continue
		}
		if len(m.States) == 0 {
			t.Errorf("%s: empty state model", app.Name)
		}
		if len(m.Vars) == 0 {
			t.Errorf("%s: state model has no variables", app.Name)
		}
		if m.NumTransitions() == 0 {
			t.Errorf("%s: state model has no transitions", app.Name)
		}
	}
}
