package properties_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/maliot"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// corpusDigest pins every (property, formula) pair the catalogue sweep
// hands its checker over the evaluation corpus: the 65 market apps,
// the 28 candidate groups, the MalIoT solo apps and clusters, the
// paper apps and the 32×32 synthetic collapse model.
const corpusDigest = "5b99c89e7a44074dfbd6c5f6cc13d00918e73e5c0e2390314d7425a9ff67477c"

func TestCorpusFormulaDigest(t *testing.T) {
	type source struct{ name, src string }
	var models []struct {
		name string
		srcs []source
	}
	add := func(name string, srcs ...source) {
		models = append(models, struct {
			name string
			srcs []source
		}{name, srcs})
	}

	byID := map[string]source{}
	for _, a := range market.All() {
		byID[a.ID] = source{a.ID, a.Source}
		add(a.ID, byID[a.ID])
	}
	for _, g := range market.CandidateGroups() {
		var srcs []source
		for _, id := range g.Members {
			srcs = append(srcs, byID[id])
		}
		add(g.ID, srcs...)
	}
	for _, a := range maliot.Suite() {
		if a.Cluster == "" {
			add(a.ID, source{a.ID, a.Source})
		}
	}
	clusters := maliot.Clusters()
	names := make([]string, 0, len(clusters))
	for name := range clusters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var srcs []source
		for _, id := range clusters[name] {
			a, _ := maliot.AppByID(id)
			srcs = append(srcs, source{a.ID, a.Source})
		}
		add(name, srcs...)
	}
	for _, a := range paperapps.Corpus() {
		add(a.Name, source{a.Name, a.Source})
	}

	var b strings.Builder
	record := func(name string, m *statemodel.Model) {
		fmt.Fprintf(&b, "== %s\n", name)
		properties.CheckAppSpecificWith(m, func(id string, f ctl.Formula) properties.PropertyOutcome {
			b.WriteString(id + " " + f.String() + "\n")
			return properties.PropertyOutcome{Holds: true}
		})
	}
	for _, mm := range models {
		var apps []*ir.App
		for _, s := range mm.srcs {
			app, err := ir.BuildSource(s.name, s.src)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			apps = append(apps, app)
		}
		m, err := statemodel.Build(apps...)
		if err != nil {
			t.Fatalf("%s: %v", mm.name, err)
		}
		record(mm.name, m)
	}
	collapse, err := statemodel.NewSyntheticCollapse(32)
	if err != nil {
		t.Fatal(err)
	}
	record("collapse-32", collapse)

	if n, g := len(market.All()), len(market.CandidateGroups()); n != 65 || g != 28 {
		t.Fatalf("corpus has %d market apps and %d groups, want 65 and 28", n, g)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	if got != corpusDigest {
		t.Errorf("corpus digest = %s, want %s\n%s", got, corpusDigest, b.String())
	}
}
