package statemodel_test

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/maliot"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// TestTransitionsDistinct checks the edge set's deduplication over the
// market apps, the candidate groups, Table 4's unions and the MalIoT
// suite and clusters, under both extraction options: no two
// transitions share (From, To, Label(), App). Derivation does repeat
// transitions here — MalIoT App5 derives each of its 24 twice, and
// under EventOnlyLabels so do market O15 and group C.8 — so the
// corpus exercises the dedup, not just its absence.
func TestTransitionsDistinct(t *testing.T) {
	type key struct {
		from, to int
		label    string
		app      int
	}
	check := func(name string, m *statemodel.Model, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[key]int{}
		for i := range m.NumTransitions() {
			tr := m.Transition(i)
			k := key{tr.From, tr.To, tr.Label(), tr.App}
			if j, dup := seen[k]; dup {
				t.Errorf("%s: transitions %d and %d are both %d->%d %q app %d", name, j, i, k.from, k.to, k.label, k.app)
				continue
			}
			seen[k] = i
		}
	}
	parse := func(name, src string) *ir.App {
		app, err := ir.BuildSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return app
	}
	byID := map[string]*ir.App{}
	for _, spec := range market.All() {
		app, err := spec.Parse()
		if err != nil {
			t.Fatal(err)
		}
		byID[spec.ID] = app
	}
	members := func(ids []string) []*ir.App {
		var apps []*ir.App
		for _, id := range ids {
			apps = append(apps, byID[id])
		}
		return apps
	}
	for _, opt := range []statemodel.Options{{}, {EventOnlyLabels: true}} {
		for _, spec := range market.All() {
			m, err := statemodel.BuildOpt(opt, byID[spec.ID])
			check("market/"+spec.ID, m, err)
		}
		for _, g := range market.CandidateGroups() {
			m, err := statemodel.BuildOpt(opt, members(g.Members)...)
			check("group/"+g.ID, m, err)
		}
		for _, g := range market.Groups() {
			var models []*statemodel.Model
			for _, app := range members(g.Members) {
				m, err := statemodel.BuildOpt(opt, app)
				if err != nil {
					t.Fatal(err)
				}
				models = append(models, m)
			}
			// Some groups' members disagree on a numeric domain; their
			// union is an error, pinned by TestExtractionEquivalence.
			if u, err := statemodel.Union(models...); err == nil {
				check("union/"+g.ID, u, nil)
			}
		}
		for _, a := range maliot.Suite() {
			m, err := statemodel.BuildOpt(opt, parse(a.Name, a.Source))
			check("maliot/"+a.ID, m, err)
		}
		for name, ids := range maliot.Clusters() {
			var apps []*ir.App
			for _, id := range ids {
				a, _ := maliot.AppByID(id)
				apps = append(apps, parse(a.Name, a.Source))
			}
			m, err := statemodel.BuildOpt(opt, apps...)
			check("maliot-cluster/"+name, m, err)
		}
	}
}
