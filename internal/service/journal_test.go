package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/store"
)

// journalPath returns a journal location inside a fresh temp dir.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.wal")
}

// drainCtx is the shutdown deadline tests hand to Shutdown.
func drainCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// smokeJob builds a runnable single-item job around the smoke-alarm
// paper app, the same source the end-to-end tests analyze.
func smokeJob(id string) *job {
	return &job{
		id: id,
		items: []core.BatchItem{{
			Sources: []core.NamedSource{{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}},
		}},
		opts:   core.DefaultOptions(),
		async:  true,
		status: statusQueued,
		done:   make(chan struct{}),
	}
}

// TestJournalRoundTrip appends events through the durable path and
// replays them from a fresh open: order, payloads, and options must
// survive the encode/decode cycle. Options survive when the replayed
// job hashes to the same AnalysisKey as the submitted one, so its
// result is stored where the client's request looks for it.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, events, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh journal replayed %d events", len(events))
	}
	filtered := core.DefaultOptions()
	filtered.PropertyIDs = []string{"P.10", "T.2"}
	limited := core.DefaultOptions()
	limited.Limits.MaxStates = 7
	optCases := []core.Options{
		core.DefaultOptions(),
		{Taint: true},
		{General: true},
		filtered,
		limited,
	}
	srcs := make([]*job, len(optCases))
	for i, o := range optCases {
		srcs[i] = smokeJob(fmt.Sprintf("0123456789abcde%d", i))
		srcs[i].opts = o
	}
	src := srcs[0]
	src.idemKey = "client-key-1"
	for i, s := range srcs {
		if err := j.append(acceptedEvent(s)); err != nil {
			t.Fatalf("append accepted %d: %v", i, err)
		}
	}
	done := terminalEvent(src, statusDone, []itemResult{{StoreKey: "aa", Cached: false}}, 42*time.Millisecond)
	if err := j.append(done); err != nil {
		t.Fatalf("append done: %v", err)
	}
	if err := j.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// An accepted entry as written before taint was journaled: it still
	// carries the since-removed "parallel" option and has no "taint" key.
	legacy := `{"op":"accepted","job":"feedfacefeedface","items":[{"apps":[{"name":"smoke-alarm","source":"x"}]}],"opts":{"general":true,"app_specific":true,"parallel":2}}`
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open journal for legacy entry: %v", err)
	}
	if _, err := fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE([]byte(legacy)), legacy); err != nil {
		t.Fatalf("write legacy entry: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	j2, events, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.close()
	if want := len(optCases) + 2; len(events) != want {
		t.Fatalf("replayed %d events, want %d", len(events), want)
	}
	acc := events[0]
	if acc.Op != opAccepted || acc.Job != src.id || acc.Idem != "client-key-1" {
		t.Fatalf("accepted entry: %+v", acc)
	}
	if len(acc.Items) != 1 || acc.Items[0].Apps[0].Source != paperapps.SmokeAlarm {
		t.Fatalf("accepted entry lost its sources")
	}
	for i, s := range srcs {
		sources := s.items[0].Sources
		got := events[i].Opts.core()
		if core.AnalysisKey(sources, got) != core.AnalysisKey(sources, s.opts) {
			t.Errorf("options %+v replayed as %+v", s.opts, got)
		}
	}
	term := events[len(optCases)]
	if term.Op != opDone || term.ElapsedMS != 42 || term.Results[0].StoreKey != "aa" {
		t.Fatalf("terminal entry: %+v", term)
	}
	old := jobFromAccepted(events[len(optCases)+1])
	sources := []core.NamedSource{{Name: "smoke-alarm", Source: "x"}}
	if core.AnalysisKey(sources, old.opts) != core.AnalysisKey(sources, core.DefaultOptions()) {
		t.Fatalf("legacy entry replayed with %+v, want the defaults (taint on)", old.opts)
	}
}

// TestJournalTruncatedTail is the torn-write rule: a crash mid-append
// leaves a partial last line, and reopening must replay the valid
// prefix, report the cut, and physically truncate the file so the next
// append starts from a sound base.
func TestJournalTruncatedTail(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if err := j.append(journalEvent{Op: opAccepted, Job: "aaaa"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.append(journalEvent{Op: opDone, Job: "aaaa"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	j.close()

	sound, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	// Simulate the torn append: half of a third entry, no newline.
	line, _ := encodeEntry(journalEvent{Op: opAccepted, Job: "bbbb"})
	torn := append(append([]byte{}, sound...), line[:len(line)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}

	j2, events, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	defer j2.close()
	if len(events) != 2 || events[1].Op != opDone {
		t.Fatalf("torn replay returned %d events: %+v", len(events), events)
	}
	if got := j2.replay.TruncatedBytes; got != len(line)/2 {
		t.Fatalf("TruncatedBytes = %d, want %d", got, len(line)/2)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read truncated journal: %v", err)
	}
	if string(after) != string(sound) {
		t.Fatalf("file not truncated back to valid prefix: %d bytes vs %d", len(after), len(sound))
	}
}

// TestJournalTornTailVariants drives parseJournal over the corruption
// taxonomy: flipped checksum, non-JSON payload, malformed header, and
// missing trailing newline must each stop replay at the last good entry.
func TestJournalTornTailVariants(t *testing.T) {
	good, _ := encodeEntry(journalEvent{Op: opAccepted, Job: "aaaa"})
	bad, _ := encodeEntry(journalEvent{Op: opDone, Job: "aaaa"})
	flipped := append([]byte{}, bad...)
	flipped[len(flipped)-2] ^= 0x01 // corrupt payload byte → checksum mismatch
	cases := []struct {
		name string
		tail []byte
	}{
		{"checksum-mismatch", flipped},
		{"not-json", []byte("deadbeef not json at all\n")},
		{"short-header", []byte("ab\n")},
		{"no-newline", bad[:len(bad)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append(append([]byte{}, good...), tc.tail...)
			events, valid := parseJournal(data)
			if len(events) != 1 || events[0].Job != "aaaa" {
				t.Fatalf("replayed %d events: %+v", len(events), events)
			}
			if valid != len(good) {
				t.Fatalf("valid offset = %d, want %d", valid, len(good))
			}
		})
	}
}

// TestReplayDuplicateIdemKey covers the crash-window resubmission: two
// accepted entries sharing an idempotency key must collapse to one
// runnable job, with the duplicate counted, so the same content is not
// analyzed twice after restart.
func TestReplayDuplicateIdemKey(t *testing.T) {
	a, b := smokeJob("1111111111111111"), smokeJob("2222222222222222")
	a.idemKey, b.idemKey = "retry-key", "retry-key"
	out := replayEvents([]journalEvent{acceptedEvent(a), acceptedEvent(b)}, nil)
	if len(out.jobs) != 1 || out.jobs[0].id != a.id {
		t.Fatalf("jobs after dup-key replay: %d", len(out.jobs))
	}
	if out.dupKeys != 1 {
		t.Fatalf("dupKeys = %d, want 1", out.dupKeys)
	}
	if out.idem["retry-key"] != out.jobs[0] {
		t.Fatalf("idempotency index does not point at the surviving job")
	}
	if len(out.requeue) != 1 {
		t.Fatalf("requeue = %d jobs, want 1", len(out.requeue))
	}
}

// TestReplayDoneAfterCrash covers the ordering where a terminal entry
// survives (e.g. compaction) without its accepted entry: replay must
// surface the terminal job for /v1/jobs without trying to re-run it.
func TestReplayDoneAfterCrash(t *testing.T) {
	out := replayEvents([]journalEvent{{
		Op: opDone, Job: "3333333333333333", Idem: "orphan-key",
		Results: []journalResult{{StoreKey: "cc", Cached: true}}, ElapsedMS: 7,
	}}, nil)
	if len(out.jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(out.jobs))
	}
	j := out.jobs[0]
	if j.status != statusDone || len(j.results) != 1 || j.results[0].StoreKey != "cc" {
		t.Fatalf("done-after-crash job: status=%s results=%+v", j.status, j.results)
	}
	select {
	case <-j.done:
	default:
		t.Fatalf("done channel not closed on terminal replay")
	}
	if len(out.requeue) != 0 {
		t.Fatalf("terminal-only job was requeued")
	}
	if out.idem["orphan-key"] != j {
		t.Fatalf("idempotency key of terminal job not indexed")
	}
}

// TestReplayRejectedWithdrawal: an accepted entry followed by its
// rejected pair (queue-full after journaling) must vanish — no requeue,
// no idempotency claim — so the client's post-429 retry runs fresh.
func TestReplayRejectedWithdrawal(t *testing.T) {
	j := smokeJob("4444444444444444")
	j.idemKey = "burst-key"
	out := replayEvents([]journalEvent{
		acceptedEvent(j),
		{Op: opRejected, Job: j.id, Idem: j.idemKey},
	}, nil)
	if len(out.jobs) != 0 || len(out.requeue) != 0 {
		t.Fatalf("rejected job survived replay: jobs=%d requeue=%d", len(out.jobs), len(out.requeue))
	}
	if _, ok := out.idem["burst-key"]; ok {
		t.Fatalf("rejected job still holds its idempotency key")
	}
}

// TestReplayDuplicateTerminal: a repeated terminal entry (possible when
// a crash lands between append and compaction on a later restart) must
// not double-close the done channel or overwrite results.
func TestReplayDuplicateTerminal(t *testing.T) {
	j := smokeJob("5555555555555555")
	evs := []journalEvent{
		acceptedEvent(j),
		{Op: opDone, Job: j.id, Results: []journalResult{{StoreKey: "dd"}}},
		{Op: opFailed, Job: j.id, Results: []journalResult{{Err: "late duplicate"}}},
	}
	out := replayEvents(evs, nil) // must not panic on double close
	if len(out.jobs) != 1 || out.jobs[0].status != statusDone {
		t.Fatalf("duplicate terminal replay: %+v", out.jobs)
	}
	if out.jobs[0].results[0].StoreKey != "dd" {
		t.Fatalf("first terminal entry overwritten: %+v", out.jobs[0].results)
	}
}

// TestRestartResume is the service-level crash-recovery contract: a job
// journaled as accepted but never finished (the previous process died)
// must re-enqueue under its original ID on the next New and run to a
// terminal state, with its result rehydrated into /v1/jobs.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}

	// "Crash": journal an accepted job by hand — exactly the bytes a
	// SIGKILLed soteriad leaves behind — with no terminal entry.
	j, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	lost := smokeJob("feedfacefeedface")
	lost.idemKey = "resume-key"
	if err := j.append(acceptedEvent(lost)); err != nil {
		t.Fatalf("append: %v", err)
	}
	j.close()

	s, ts := newTestServer(t, Config{Workers: 2, Store: st, JournalPath: path})
	if got := s.jobsReenqueued.Load(); got != 1 {
		t.Fatalf("jobsReenqueued = %d, want 1", got)
	}

	// The replayed job keeps its ID and reaches a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	var body map[string]any
	for {
		var resp *http.Response
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+lost.id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d (%v)", resp.StatusCode, body)
		}
		if st := body["status"]; st == "done" || st == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished: %v", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if body["status"] != "done" {
		t.Fatalf("replayed job status: %v", body)
	}
	if body["result"] == nil {
		t.Fatalf("replayed job has no result: %v", body)
	}

	// A resubmission carrying the crash-era idempotency key is answered
	// by the replayed job — same ID, no second analysis.
	resp, dup := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
		"idempotency_key": "resume-key",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmission: %d (%v)", resp.StatusCode, dup)
	}
	if dup["job_id"] != lost.id {
		t.Fatalf("resubmission ran as new job %v, want %s", dup["job_id"], lost.id)
	}
	if got := s.idemHits.Load(); got != 1 {
		t.Fatalf("idemHits = %d, want 1", got)
	}

	// The journal now holds the completed job; the *next* restart
	// replays it as terminal history and re-enqueues nothing.
	ctx, cancel := drainCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := New(Config{Workers: 1, Store: st, JournalPath: path})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer func() {
		ctx, cancel := drainCtx()
		defer cancel()
		s2.Shutdown(ctx)
	}()
	if got := s2.jobsReenqueued.Load(); got != 0 {
		t.Fatalf("second restart re-enqueued %d jobs, want 0", got)
	}
	done, ok := s2.lookupJob(lost.id)
	if !ok {
		t.Fatalf("completed job missing from second restart's table")
	}
	if status, results, _ := done.snapshot(); status != statusDone || len(results) != 1 || results[0].Record == nil {
		t.Fatalf("second restart lost the result: %s %+v", status, results)
	}
}

// TestIdempotentResubmissionLive: two identical submissions with one
// key on a live server run once; the second answers with the first
// job's ID and result.
func TestIdempotentResubmissionLive(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, Store: st, JournalPath: journalPath(t)})

	req := map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm, "idempotency_key": "once"}
	resp1, body1 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d (%v)", resp1.StatusCode, body1)
	}
	faultinject.BeginCount()
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	counts := faultinject.TakeCounts()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d (%v)", resp2.StatusCode, body2)
	}
	if body2["job_id"] != body1["job_id"] {
		t.Fatalf("idempotent retry got new job: %v vs %v", body2["job_id"], body1["job_id"])
	}
	if counts[faultinject.SiteAnalyze] != 0 {
		t.Fatalf("idempotent retry dispatched %d analyses", counts[faultinject.SiteAnalyze])
	}
	if got := s.idemHits.Load(); got != 1 {
		t.Fatalf("idemHits = %d, want 1", got)
	}

	// The Idempotency-Key header is an equivalent spelling.
	data, err := json.Marshal(map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", bytes.NewReader(data))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Idempotency-Key", "once")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("header POST: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("header POST: %d", hresp.StatusCode)
	}
	if got := s.idemHits.Load(); got != 2 {
		t.Fatalf("idemHits after header retry = %d, want 2", got)
	}
}

// TestJournalAppendFailureRejects: when the accepted entry cannot be
// made durable, the submission must fail with a retryable 503 and
// release its idempotency claim — never an acknowledged job that a
// crash would silently lose.
func TestJournalAppendFailureRejects(t *testing.T) {
	path := journalPath(t)
	_, ts := newTestServer(t, Config{
		Workers:     1,
		JournalPath: path,
		FS:          fsio.Faulty{Inner: fsio.OS{}},
	})

	faultinject.ArmError(faultinject.SiteFSSync, filepath.Base(path), fmt.Errorf("disk full"))
	defer faultinject.Disarm(faultinject.SiteFSSync)
	req := map[string]any{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
		"idempotency_key": "durable-or-bust", "async": true,
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("journal-failure POST: %d (%v)", resp.StatusCode, body)
	}

	// With the fault cleared, the same key must be free to run.
	faultinject.Disarm(faultinject.SiteFSSync)
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after journal failure: %d (%v)", resp2.StatusCode, body2)
	}
}

// TestJournalCompactionBounds: restarting over a journal of finished
// jobs must shrink it to slim history (no sources), not replay it
// verbatim forever.
func TestJournalCompactionBounds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st, JournalPath: path})
	resp, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	ctx, cancel := drainCtx()
	defer cancel()
	s.Shutdown(ctx)
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}

	s2, err := New(Config{Workers: 1, Store: st, JournalPath: path})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() {
		ctx, cancel := drainCtx()
		defer cancel()
		s2.Shutdown(ctx)
	}()
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read compacted journal: %v", err)
	}
	if len(compacted) >= len(grown) {
		t.Fatalf("compaction did not shrink journal: %d → %d bytes", len(grown), len(compacted))
	}
	events, valid := parseJournal(compacted)
	if valid != len(compacted) {
		t.Fatalf("compacted journal has torn bytes")
	}
	for _, ev := range events {
		if len(ev.Items) != 0 {
			t.Fatalf("compacted history still carries sources: %+v", ev)
		}
	}
}
