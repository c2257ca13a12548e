package statemodel_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/maliot"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/smv"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// equivalenceDigest is the SHA-256 of the canonical dump below. It
// pins every observable of model extraction — states, transitions,
// guards, labels, nondeterminism reports, the Kripke translation, the
// SMV text and the Graphviz output — so a rewrite of the builder must
// reproduce the previous builder byte for byte. Only change it
// together with a deliberate, reviewed change to extraction output.
const equivalenceDigest = "a310350a0deda7d65b4c716c6a80516904474ab68ffa0f35e75fbbbb420ee387"

// TestExtractionEquivalence dumps the models of the whole corpus —
// the 65 market apps, the 28 candidate groups via Build, G.1–G.3 via
// Union, the MalIoT suite (solo apps and clusters), the paper apps and
// the synthetic collapse model — under both extraction options and
// compares the digest with the pinned one.
func TestExtractionEquivalence(t *testing.T) {
	h := sha256.New()
	for _, opt := range []statemodel.Options{{}, {EventOnlyLabels: true}} {
		fmt.Fprintf(h, "== options %+v\n", opt)
		dumpCorpus(t, h, opt)
	}
	syn, err := statemodel.NewSyntheticCollapse(32)
	if err != nil {
		t.Fatal(err)
	}
	dumpModel(h, "synthetic/collapse-32", syn, nil)

	if got := hex.EncodeToString(h.Sum(nil)); got != equivalenceDigest {
		t.Fatalf("extraction dump digest = %s, want %s", got, equivalenceDigest)
	}
}

func dumpCorpus(t *testing.T, h io.Writer, opt statemodel.Options) {
	t.Helper()
	parse := func(name, src string) *ir.App {
		app, err := ir.BuildSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return app
	}
	market1 := map[string]*ir.App{}
	for _, spec := range market.All() {
		app, err := spec.Parse()
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		market1[spec.ID] = app
		m, err := statemodel.BuildOpt(opt, app)
		dumpModel(h, "market/"+spec.ID, m, err)
	}
	for _, g := range market.CandidateGroups() {
		var apps []*ir.App
		for _, id := range g.Members {
			apps = append(apps, market1[id])
		}
		m, err := statemodel.BuildOpt(opt, apps...)
		dumpModel(h, "group/"+g.ID, m, err)
	}
	for _, g := range market.Groups() {
		var models []*statemodel.Model
		for _, id := range g.Members {
			m, err := statemodel.BuildOpt(opt, market1[id])
			if err != nil {
				t.Fatalf("%s/%s: %v", g.ID, id, err)
			}
			models = append(models, m)
		}
		u, err := statemodel.Union(models...)
		dumpModel(h, "union/"+g.ID, u, err)
	}
	for _, a := range maliot.Suite() {
		m, err := statemodel.BuildOpt(opt, parse(a.Name, a.Source))
		dumpModel(h, "maliot/"+a.ID, m, err)
	}
	clusters := maliot.Clusters()
	names := make([]string, 0, len(clusters))
	for name := range clusters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var apps []*ir.App
		for _, id := range clusters[name] {
			a, _ := maliot.AppByID(id)
			apps = append(apps, parse(a.Name, a.Source))
		}
		m, err := statemodel.BuildOpt(opt, apps...)
		dumpModel(h, "maliot-cluster/"+name, m, err)
	}
	for _, a := range paperapps.Corpus() {
		m, err := statemodel.BuildOpt(opt, parse(a.Name, a.Source))
		dumpModel(h, "paper/"+a.Name, m, err)
	}
}

// dumpModel writes the canonical rendering of one model.
func dumpModel(w io.Writer, label string, m *statemodel.Model, err error) {
	fmt.Fprintf(w, "## %s\n", label)
	if err != nil {
		fmt.Fprintf(w, "error %v\n", err)
		return
	}
	for _, v := range m.Vars {
		conds := make([]string, len(v.ValueConds))
		for i, c := range v.ValueConds {
			conds[i] = c.String()
		}
		fmt.Fprintf(w, "var %s cap=%s attr=%s numeric=%v values=%q conds=%q handles=%q\n",
			v.Key, v.Cap, v.Attr, v.Numeric, v.Values, conds, v.Handles)
	}
	for i, s := range m.States {
		fmt.Fprintf(w, "state %d %v\n", i, s.Idx)
	}
	for i := range m.NumTransitions() {
		t := m.Transition(i)
		fmt.Fprintf(w, "trans %d->%d ev=%s|%s|%d guard=%q app=%d handler=%s sig=%q label=%q\n",
			t.From, t.To, t.Event.VarKey, t.Event.Value, t.Event.Kind, t.Guard.String(),
			t.App, t.Handler, t.ActionsSig, t.Label())
	}
	for _, n := range m.Nondet {
		fmt.Fprintf(w, "nondet state=%d ev=%s %d/%d guards=%q/%q apps=%d/%d\n",
			n.State, n.Event.String(), n.ToA, n.ToB, n.GuardA.String(), n.GuardB.String(), n.AppA, n.AppB)
	}
	for _, warn := range m.Warnings {
		fmt.Fprintf(w, "warning %s\n", warn)
	}
	fmt.Fprintf(w, "before-reduction %d\n", m.StatesBeforeReduction)

	k := kripke.FromModel(m)
	for s := 0; s < k.N; s++ {
		fmt.Fprintf(w, "k %d %q succs=%v preds=%v labels=%q\n", s, k.Name(s), k.Succs[s], k.Preds[s], k.PropsAt(s))
	}
	fmt.Fprintf(w, "props %q\n", k.Props())
	for s := 0; s < k.N; s++ {
		succs := slices.Clone(k.Succs[s])
		slices.Sort(succs)
		for _, t := range succs {
			if labels := k.EdgeLabels(s, t); len(labels) > 0 {
				fmt.Fprintf(w, "edge %d->%d %s\n", s, t, strings.Join(labels, " | "))
			}
		}
	}
	io.WriteString(w, smv.Emit(m, nil))
	io.WriteString(w, m.Dot())
}
