package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/market"
)

// TestVerdictsMatchPaperTables holds testdata/verdicts.json to the
// market package's tables: the paper answers are Table 3 for single
// apps (empty for every other app), Table 4 for G.1–G.3 and empty for
// the clean bundles, and each frozen violated set contains its paper
// answer.
func TestVerdictsMatchPaperTables(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	all := market.All()
	if len(ref.Apps) != len(all) {
		t.Fatalf("verdicts.json has %d apps, the corpus %d", len(ref.Apps), len(all))
	}
	for i, a := range all {
		e := ref.Apps[i]
		if e.ID != a.ID {
			t.Fatalf("app %d: verdicts.json has %s, the corpus %s", i, e.ID, a.ID)
		}
		checkEntry(t, e, market.Table3Expected[a.ID])
	}
	groups := market.CandidateGroups()
	if len(ref.Environments) != len(groups) {
		t.Fatalf("verdicts.json has %d environments, market.CandidateGroups %d", len(ref.Environments), len(groups))
	}
	for i, g := range groups {
		e := ref.Environments[i]
		if e.ID != g.ID || !reflect.DeepEqual(e.Members, g.Members) {
			t.Errorf("environment %d: verdicts.json has %s %v, market %s %v", i, e.ID, e.Members, g.ID, g.Members)
		}
		if strings.HasPrefix(g.ID, "C.") && len(e.Paper) != 0 {
			t.Errorf("%s: clean bundle with paper answer %v", e.ID, e.Paper)
		}
		checkEntry(t, e, g.Expected)
	}
}

func checkEntry(t *testing.T, e verdictEntry, paper []string) {
	t.Helper()
	if idKey(e.Paper) != idKey(paper) {
		t.Errorf("%s: paper answer %v, market table %v", e.ID, e.Paper, paper)
	}
	violated := map[string]bool{}
	for _, id := range e.Violated {
		violated[id] = true
	}
	for _, id := range e.Paper {
		if !violated[id] {
			t.Errorf("%s: violated %v lacks the paper's %s", e.ID, e.Violated, id)
		}
	}
}

// TestTracedPathMatchesCore holds the traced layer sequence to the
// production entry point: for every item of audit-corpus and
// audit-env, both yield the frozen violated IDs and the same state
// count. It fails if core ever decides an item differently from the
// explicit-engine path the traced run times.
func TestTracedPathMatchesCore(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := ref.corpusItems()
	if err != nil {
		t.Fatal(err)
	}
	envs, err := ref.envItems()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := newTracer()
	for _, it := range append(corpus, envs...) {
		coreIDs, coreStates, err := analyzeCore(ctx, it.sources)
		if err != nil {
			t.Fatalf("%s: core: %v", it.id, err)
		}
		ids, states, err := tr.analyze(ctx, it.id, it.sources)
		if err != nil {
			t.Fatalf("%s: traced: %v", it.id, err)
		}
		if !sameIDs(coreIDs, it.want) {
			t.Errorf("%s: core violated %v, verdicts.json %v", it.id, coreIDs, it.want)
		}
		if !sameIDs(ids, coreIDs) || states != coreStates {
			t.Errorf("%s: traced %v with %d states, core %v with %d states", it.id, ids, states, coreIDs, coreStates)
		}
	}
	if m := auditMetrics(tr.spans); m["trace.coverage"] < 0.9 {
		t.Errorf("layer spans cover %.3f of the traced wall time, want >= 0.9", m["trace.coverage"])
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload of ../BENCHMARK.json for one second,
// at a tenth of the serve rates, untraced and traced. Each run must
// exit 0 with no failed operation, print every metric BENCHMARK.json
// names as "workload metric value unit", and write a result JSON that
// parses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	dir := t.TempDir()
	soteriad := filepath.Join(dir, "soteriad")
	build := exec.Command("go", "build", "-o", soteriad, "github.com/soteria-analysis/soteria/cmd/soteriad")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building soteriad: %v\n%s", err, out)
	}
	for _, w := range bf.Workloads {
		for trace, defs := range [][]metricEntry{bf.EndToEnd, bf.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				out := filepath.Join(dir, "out")
				var stdout, stderr bytes.Buffer
				code := run([]string{
					"--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", strconv.Itoa(trace),
					"--rate-scale", "0.1", "--soteriad", soteriad, "--work", filepath.Join(dir, "work"), "--out", out,
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				printed := map[string]string{}
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) != 4 || f[0] != w.Name {
						t.Fatalf("malformed metric line %q", l)
					}
					if _, err := strconv.ParseFloat(f[2], 64); err != nil {
						t.Errorf("metric line %q: %v", l, err)
					}
					printed[f[1]] = f[3]
				}
				if len(printed) != len(defs) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(printed), len(defs))
				}
				for _, d := range defs {
					if unit, ok := printed[d.Name]; !ok || unit != d.Unit {
						t.Errorf("metric %s: printed with unit %q (present %t), BENCHMARK.json says %q", d.Name, unit, ok, d.Unit)
					}
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("result: correct %t, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				name := w.Name + ".json"
				if trace == 1 {
					name = w.Name + ".trace.json"
				}
				saved, err := os.ReadFile(filepath.Join(out, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(saved, &res); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			})
		}
	}
}
