package service

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/store"
)

// syncWriter serializes log writes from the worker and HTTP goroutines
// into an in-memory buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// String returns everything written so far, read under the writer's
// lock so it does not race a concurrent log line.
func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// TestMetricsExposition is the exposition-format acceptance test:
// after at least one job, GET /metrics must be valid Prometheus text
// format (one HELP/TYPE pair per family, no duplicate samples,
// cumulative histogram buckets ending at +Inf) and must expose the
// latency histograms and memo hit rates.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Store: openStore(t, t.TempDir(), store.Options{})})

	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d (%v)", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mresp.StatusCode)
	}
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}

	if err := obs.ValidateExposition(data); err != nil {
		t.Fatalf("exposition format: %v\n%s", err, data)
	}

	text := string(data)
	for _, want := range []string{
		// Renamed counters (the pre-existing names lacked _total).
		"soteriad_jobs_replayed_total",
		"soteriad_jobs_reenqueued_total",
		"soteriad_journal_dup_keys_total",
		// Latency histograms.
		"soteriad_job_seconds_bucket",
		"soteriad_commit_seconds_bucket",
		`soteriad_queue_wait_seconds_bucket`,
		`soteriad_phase_seconds_bucket{phase="statemodel",`,
		`soteriad_phase_seconds_bucket{phase="check",`,
		`soteriad_engine_check_seconds_bucket{engine="explicit",`,
		// Memo stats.
		"soteriad_memo_lookups_total",
		"soteriad_memo_hits_total",
		"soteriad_slow_jobs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The old, unsuffixed counter names must be gone (as families: the
	// _total forms contain them as prefixes, so check the sample lines).
	for _, stale := range []string{
		"\nsoteriad_jobs_replayed ",
		"\nsoteriad_jobs_reenqueued ",
		"\nsoteriad_journal_dup_keys ",
	} {
		if strings.Contains(text, stale) {
			t.Errorf("/metrics still exposes stale name %q", strings.TrimSpace(stale))
		}
	}

	// The completed job must have been observed end to end.
	count := sampleValue(t, text, "soteriad_job_seconds_count")
	if count < 1 {
		t.Fatalf("soteriad_job_seconds_count = %v, want >= 1", count)
	}
	// The sweep ran: the explicit engine's memo saw lookups.
	if v := sampleValue(t, text, "soteriad_memo_lookups_total"); v < 1 {
		t.Fatalf("soteriad_memo_lookups_total = %v, want >= 1", v)
	}

	// The commit follows the response; once a poll reads done it has
	// been observed.
	waitJobStatus(t, ts.URL, body["job_id"].(string), "done")
	mresp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp2.Body.Close()
	data2, err := io.ReadAll(mresp2.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	if v := sampleValue(t, string(data2), "soteriad_commit_seconds_count"); v < 1 {
		t.Fatalf("soteriad_commit_seconds_count = %v, want >= 1", v)
	}
	// The commit put the record and an fsync of the store's log covered
	// it; concurrent puts may share one, so syncs never exceed puts.
	puts := sampleValue(t, string(data2), "soteriad_store_puts_total")
	syncs := sampleValue(t, string(data2), "soteriad_store_syncs_total")
	if puts != 1 || syncs < 1 || syncs > puts {
		t.Fatalf("soteriad_store_puts_total = %v, soteriad_store_syncs_total = %v, want 1 and 1", puts, syncs)
	}
}

// sampleValue extracts an unlabeled sample's value from exposition
// text.
func sampleValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in exposition", name)
	return 0
}

// TestMetricsRejectsNonGET: /metrics is read-only; POST must be 405.
func TestMetricsRejectsNonGET(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d, want 405", resp.StatusCode)
	}
}

// TestTimingsEmbeddedInRecord is the timing acceptance test: a job
// submitted with `timings` returns a record carrying a span tree whose
// root is the job span, whose duration agrees with the job's reported
// wall time within 5%, and whose trace ID matches the X-Soteria-Trace
// response header. The stored record itself must stay timing-free.
func TestTimingsEmbeddedInRecord(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	req := map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm, "timings": true}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d (%v)", resp.StatusCode, body)
	}
	trace := resp.Header.Get(TraceHeader)
	if !obs.ValidTraceID(trace) {
		t.Fatalf("response trace header %q is not a valid trace ID", trace)
	}

	result, _ := body["result"].(map[string]any)
	if result == nil {
		t.Fatalf("no result: %v", body)
	}
	timing, _ := result["timing"].(map[string]any)
	if timing == nil {
		t.Fatalf("timings requested but record has no timing: %v", result)
	}
	if timing["trace_id"] != trace {
		t.Fatalf("timing trace_id %v != header trace %q", timing["trace_id"], trace)
	}
	span, _ := timing["span"].(map[string]any)
	if span == nil || span["name"] != "job" {
		t.Fatalf("timing root span missing or misnamed: %v", timing)
	}
	rootUS, _ := span["duration_us"].(float64)
	elapsedMS, _ := body["elapsed_ms"].(float64)
	// elapsed_ms is the root span's duration truncated to milliseconds,
	// so the two agree within 5% plus one unit of rounding.
	if diff := rootUS - elapsedMS*1000; diff < 0 || diff > rootUS*0.05+1000 {
		t.Fatalf("root span %vus vs elapsed %vms: outside 5%%", rootUS, elapsedMS)
	}
	kids, _ := span["children"].([]any)
	if len(kids) == 0 {
		t.Fatalf("root span has no phase children: %v", span)
	}

	// The same submission without timings — analyzed again, since this
	// server has no store — must return an identical record with no
	// timing envelope.
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: %d", resp2.StatusCode)
	}
	result2, _ := body2["result"].(map[string]any)
	if result2 == nil {
		t.Fatalf("no result on cached response: %v", body2)
	}
	if _, has := result2["timing"]; has {
		t.Fatalf("timing leaked into a response that did not ask for it: %v", result2)
	}
	delete(result, "timing")
	if fmt.Sprint(result) != fmt.Sprint(result2) {
		t.Fatalf("record bytes changed by timings flag:\n%v\n---\n%v", result, result2)
	}
}

// TestTraceInLogLines: every log line about a job carries its trace
// ID, and a client-supplied X-Soteria-Trace is adopted verbatim.
func TestTraceInLogLines(t *testing.T) {
	var logw syncWriter
	logger := slog.New(slog.NewTextHandler(&logw, nil))
	_, ts := newTestServer(t, Config{Workers: 1, Logger: logger})

	const trace = "client-trace-abc123"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze",
		strings.NewReader(`{"name":"x","source":"definition(name: \"x\")"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, trace)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != trace {
		t.Fatalf("server did not adopt client trace: got %q, want %q", got, trace)
	}

	// The worker logs "job finished" after it has released the waiting
	// request, and the access log line follows the response too, so the
	// client can read its response before either line is written.
	var logs string
	waitFor(t, "job-finished and http-request log lines", func() bool {
		logs = logw.String()
		return strings.Contains(logs, "job finished") && strings.Contains(logs, "http request")
	})
	finished := 0
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "job finished") {
			finished++
			if !strings.Contains(line, "trace="+trace) {
				t.Errorf("job-finished line lacks trace: %s", line)
			}
		}
	}
	if finished == 0 {
		t.Fatalf("no job-finished log line:\n%s", logs)
	}
	if !strings.Contains(logs, "http request") || !strings.Contains(logs, "trace="+trace) {
		t.Errorf("http request line lacks trace:\n%s", logs)
	}

	// A garbage header must be replaced with a freshly minted ID, never
	// echoed back.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze",
		strings.NewReader(`{"name":"x","source":"definition(name: \"x\")"}`))
	req2.Header.Set(TraceHeader, "bad id with spaces")
	req2.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(TraceHeader); !obs.ValidTraceID(got) || got == trace {
		t.Fatalf("invalid client trace not replaced: got %q", got)
	}
}
