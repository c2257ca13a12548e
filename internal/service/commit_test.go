package service

import (
	"net/http"
	"testing"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// TestColdPostOneMiss: a cold POST hashes its sources and looks the
// store up once — the handler's lookup — so it counts one miss, and
// its record is written once, after the response.
func TestColdPostOneMiss(t *testing.T) {
	st := openStore(t, t.TempDir(), store.Options{})
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
	})
	if resp.StatusCode != http.StatusOK || body["status"] != "done" || body["result"] == nil {
		t.Fatalf("cold POST: %d %v", resp.StatusCode, body)
	}
	if got := st.Stats().Misses; got != 1 {
		t.Fatalf("one cold POST counted %d store misses, want 1", got)
	}
	waitJobStatus(t, ts.URL, body["job_id"].(string), "done")
	if got := st.Stats(); got.Misses != 1 || got.Puts != 1 {
		t.Fatalf("after the commit: %+v, want Misses 1 and Puts 1", got)
	}
}

// TestReplayRerunsLostStoredRecord: a done entry that vouches for a
// stored record the store does not hold re-runs its job while the
// accepted entry carries the sources; one whose record reads back, or
// one replayed without a store, stays done.
func TestReplayRerunsLostStoredRecord(t *testing.T) {
	st := openStore(t, t.TempDir(), store.Options{})
	lost, kept := smokeJob("6666666666666666"), smokeJob("7777777777777777")
	kept.items[0].Sources[0].Name = "kept"
	rec := &report.Record{Schema: report.Schema, Apps: []string{"kept"}}
	keptKey := core.AnalysisKey(kept.items[0].Sources, kept.opts)
	if err := st.Put(keptKey, rec); err != nil {
		t.Fatal(err)
	}
	events := []journalEvent{
		acceptedEvent(lost),
		acceptedEvent(kept),
		terminalEvent(lost, statusDone, []itemResult{{StoreKey: core.AnalysisKey(lost.items[0].Sources, lost.opts), Record: rec}}, 0),
		terminalEvent(kept, statusDone, []itemResult{{StoreKey: keptKey, Record: rec}}, 0),
	}
	if !events[2].Results[0].Stored {
		t.Fatalf("a complete record is not journaled as stored: %+v", events[2])
	}

	out := replayEvents(events, st)
	if len(out.requeue) != 1 || out.requeue[0].id != lost.id {
		t.Fatalf("requeued %d jobs, want only %s", len(out.requeue), lost.id)
	}
	for _, j := range out.jobs {
		if j.id == kept.id && (j.status != statusDone || j.results[0].Record == nil) {
			t.Fatalf("job with a sound record: status %s, results %+v", j.status, j.results)
		}
	}

	// Without a store no record is ever read back: done stays done.
	out = replayEvents(events, nil)
	if len(out.requeue) != 0 {
		t.Fatalf("no-store replay requeued %d done jobs", len(out.requeue))
	}
}
