package experiments

import (
	"os"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/report"
)

// renderDeterministic renders every paper output that carries no
// timing — Tables 2, 3 and 4, MalIoT, Fig. 11a and both ablations —
// in the order soteria-bench prints them. Fig. 11b, the union timing
// and the verification timing are measurements and are left out.
func renderDeterministic(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	add := func(name string, tbl *report.Table, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString(tbl.String())
		b.WriteString("\n")
	}
	tbl, err := Table2()
	add("table 2", tbl, err)
	tbl, err = Table3()
	add("table 3", tbl, err)
	tbl, err = Table4()
	add("table 4", tbl, err)
	tbl, _, err = MalIoTTable()
	add("maliot", tbl, err)
	tbl, err = Fig11a()
	add("fig 11a", tbl, err)
	tbl, err = AblationPredicateLabels()
	add("ablation predicates", tbl, err)
	tbl, err = AblationPathMerging()
	add("ablation merging", tbl, err)
	return b.String()
}

// TestTablesGolden pins the rendered deterministic outputs byte for
// byte. The tables are the same at any batch worker count, so the
// fan-out the generators use must not change a byte here.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeterministic(t); got != string(want) {
		t.Errorf("rendered tables differ from testdata/tables.golden\n--- got ---\n%s", got)
	}
}
