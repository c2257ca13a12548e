package audit

import (
	"context"
	"testing"

	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/properties"
)

func TestRunViolationOrdering(t *testing.T) {
	rep := Run(context.Background(), 4)

	apps := market.All()
	if len(rep.Apps) != len(apps) {
		t.Fatalf("%d app entries for %d corpus apps", len(rep.Apps), len(apps))
	}
	for i, e := range rep.Apps {
		if e.ID != apps[i].ID {
			t.Errorf("entry %d is %s, corpus order says %s", i, e.ID, apps[i].ID)
		}
		if e.Members != nil {
			t.Errorf("individual app %s carries group members %v", e.ID, e.Members)
		}
	}
	groups := market.Groups()
	if len(rep.Groups) != len(groups) {
		t.Fatalf("%d group entries for %d groups", len(rep.Groups), len(groups))
	}
	for i, e := range rep.Groups {
		if e.ID != groups[i].ID {
			t.Errorf("group entry %d is %s, want %s", i, e.ID, groups[i].ID)
		}
		if len(e.Members) == 0 {
			t.Errorf("group %s lists no members", e.ID)
		}
	}

	someViolations := false
	for _, es := range [][]Entry{rep.Apps, rep.Groups} {
		for _, e := range es {
			if e.Err != nil {
				t.Errorf("%s: hard failure: %v", e.ID, e.Err)
				continue
			}
			seen := map[string]bool{}
			for j, id := range e.Violated {
				someViolations = true
				if seen[id] {
					t.Errorf("%s: duplicate violated ID %s", e.ID, id)
				}
				seen[id] = true
				if j > 0 && properties.IDRank(e.Violated[j-1]) > properties.IDRank(id) {
					t.Errorf("%s: violations out of catalogue order: %s before %s",
						e.ID, e.Violated[j-1], id)
				}
			}
		}
	}
	if !someViolations {
		t.Error("no entry in the whole market audit reports a violation; corpus wiring broken")
	}
}
