package soteria

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/maliot"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

var updateLTL = flag.Bool("update-ltl", false, "rewrite testdata/ltl_lassos.golden")

// outputCase is one analysis whose outputs must be reproducible: a
// paper app, a MalIoT app, or a Table 4 group.
type outputCase struct {
	name string
	apps []*App
}

// outputCorpus returns the paper apps, the MalIoT suite and G.1–G.3,
// in a fixed order.
func outputCorpus(t *testing.T) []outputCase {
	t.Helper()
	var cases []outputCase
	for _, a := range paperapps.Corpus() {
		cases = append(cases, outputCase{"paper/" + a.Name, []*App{parse(t, a.Name, a.Source)}})
	}
	for _, a := range maliot.Suite() {
		cases = append(cases, outputCase{"maliot/" + a.ID, []*App{parse(t, a.Name, a.Source)}})
	}
	for _, g := range market.Groups() {
		c := outputCase{name: "group/" + g.ID}
		for _, id := range g.Members {
			spec, ok := market.ByID(id)
			if !ok {
				t.Fatalf("unknown market app %s", id)
			}
			c.apps = append(c.apps, parse(t, spec.Name, spec.Source))
		}
		cases = append(cases, c)
	}
	return cases
}

// Formulas for the formula entry points. Atoms absent from a model
// denote the empty set, so each formula applies to every case; the
// LTL ones include a violated F G over an absent atom, whose negation
// G F true makes every cycle of the product accepting.
var (
	determinismCTL = []string{
		`AG !"switch.switch=on"`,
		`AG ("smokeDetector.smoke=detected" -> AF "alarm.alarm=siren")`,
	}
	determinismWitness = []string{
		`EF "switch.switch=on"`,
		`EF "lock.lock=unlocked"`,
	}
	determinismLTL = []string{
		`G !"switch.switch=on"`,
		`F G "switch.switch=off"`,
		`G F "location.mode=away"`,
	}
)

// bmcMaxStates skips the BMC engine on G.3 (2,304 states), where one
// bounded check takes tens of seconds; every smaller model runs it.
const bmcMaxStates = 1000

// outputs renders every output entry point of a result, one labeled
// block each, in a fixed order.
func outputs(t *testing.T, res *Result) (all map[string]string, ltl []string) {
	t.Helper()
	all = map[string]string{}
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	all["JSON"] = string(data)
	all["DOT"] = res.DOT()
	all["SMV"] = res.SMV()
	for _, f := range determinismCTL {
		holds, cex, err := res.CheckFormula(f)
		all["CheckFormula "+f] = fmt.Sprint(holds, cex, err)
		for _, e := range []Engine{Explicit, BDD, BMC} {
			if e == BMC && res.States > bmcMaxStates {
				continue
			}
			holds, cex, err := res.CheckFormulaEngine(f, e)
			all[fmt.Sprintf("CheckFormulaEngine[%v] %s", e, f)] = fmt.Sprint(holds, cex, err)
		}
	}
	for _, f := range determinismWitness {
		trace, ok, err := res.WitnessFormula(f)
		all["WitnessFormula "+f] = fmt.Sprint(ok, trace, err)
	}
	for _, f := range determinismLTL {
		holds, cex, err := res.CheckLTL(f)
		out := fmt.Sprintf("holds=%v err=%v\n%s", holds, err, cex)
		all["CheckLTL "+f] = out
		ltl = append(ltl, "CheckLTL "+f+"\n"+out)
	}
	return all, ltl
}

// TestOutputsReproducible calls every output entry point of Result
// twice in one process and compares the bytes. Go randomizes map
// iteration on every range, so a map walk that reaches an output shows
// up as a difference here. The LTL lassos are also pinned as a golden
// (-update-ltl rewrites it).
func TestOutputsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses the paper apps, MalIoT and G.1–G.3")
	}
	var golden strings.Builder
	for _, c := range outputCorpus(t) {
		res, err := AnalyzeEnvironment(c.apps)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		first, ltl := outputs(t, res)
		second, _ := outputs(t, res)
		for k, v := range first {
			if second[k] != v {
				t.Errorf("%s: %s differs between two calls:\n%s\n---\n%s", c.name, k, v, second[k])
			}
		}
		fmt.Fprintf(&golden, "== %s\n%s\n", c.name, strings.Join(ltl, "\n"))
	}
	path := filepath.Join("testdata", "ltl_lassos.golden")
	if *updateLTL {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-ltl to create it): %v", err)
	}
	if got := golden.String(); got != string(want) {
		t.Errorf("LTL lassos differ from %s (rerun with -update-ltl if intended):\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff reports the first differing line of two texts.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
