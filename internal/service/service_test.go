package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// newTestServer starts a server plus an httptest front end and tears
// both down in order (drain, then close).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

// TestAnalyzeEndToEnd is the acceptance-criteria test: a paper app is
// analyzed over HTTP, the repeated request is served from the
// persistent store (hit counter increments, the pipeline is never
// dispatched — observed via faultinject counters), and the stored
// record is addressable under /v1/results.
func TestAnalyzeEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Store: st})

	req := map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm}

	faultinject.BeginCount()
	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	counts := faultinject.TakeCounts()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d (%v)", resp.StatusCode, body)
	}
	if body["cached"] == true {
		t.Fatalf("first POST claims cached: %v", body)
	}
	if counts[faultinject.SiteAnalyze] != 1 {
		t.Fatalf("first POST dispatched %d analyses, want 1", counts[faultinject.SiteAnalyze])
	}
	result, ok := body["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result in response: %v", body)
	}
	if result["schema"] != float64(2) || result["states"] == float64(0) {
		t.Fatalf("unexpected record: %v", result)
	}
	key, _ := body["key"].(string)
	if key == "" {
		t.Fatalf("no content key in response: %v", body)
	}

	// The repeated request must be a pure store read: no analysis
	// dispatch, cached flag set, identical record, hit counter up.
	before := st.Stats().Hits
	faultinject.BeginCount()
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	counts2 := faultinject.TakeCounts()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d", resp2.StatusCode)
	}
	if body2["cached"] != true {
		t.Fatalf("second POST not cached: %v", body2)
	}
	if n := counts2[faultinject.SiteAnalyze]; n != 0 {
		t.Fatalf("second POST dispatched %d analyses, want 0", n)
	}
	if st.Stats().Hits <= before {
		t.Fatalf("store hit counter did not increment: %+v", st.Stats())
	}
	if fmt.Sprint(body2["result"]) != fmt.Sprint(result) {
		t.Fatalf("cached record differs:\n%v\n---\n%v", body2["result"], result)
	}

	// The record is addressable by content hash.
	resp3, rec := getJSON(t, ts.URL+"/v1/results/"+key)
	if resp3.StatusCode != http.StatusOK || rec["schema"] != float64(2) {
		t.Fatalf("GET /v1/results/%s: %d %v", key, resp3.StatusCode, rec)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := map[string]any{
		"items": []map[string]any{
			{"key": "smoke", "apps": []map[string]string{{"name": "smoke", "source": paperapps.SmokeAlarm}}},
			{"key": "union", "apps": []map[string]string{
				{"name": "smoke", "source": paperapps.SmokeAlarm},
				{"name": "leak", "source": paperapps.WaterLeakDetector},
			}},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch POST: %d (%v)", resp.StatusCode, body)
	}
	results, ok := body["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("batch results: %v", body)
	}
	first := results[0].(map[string]any)
	if first["key"] != "smoke" || first["result"].(map[string]any)["schema"] != float64(2) {
		t.Fatalf("batch item 0: %v", first)
	}
	// A broken app fails its item, not the batch.
	req2 := map[string]any{
		"items": []map[string]any{
			{"key": "bad", "apps": []map[string]string{{"name": "bad", "source": "definition("}}},
			{"key": "good", "apps": []map[string]string{{"name": "smoke", "source": paperapps.SmokeAlarm}}},
		},
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/batch", req2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch POST: %d", resp2.StatusCode)
	}
	results2 := body2["results"].([]any)
	bad := results2[0].(map[string]any)
	good := results2[1].(map[string]any)
	if bad["error"] == nil || bad["error"] == "" {
		t.Fatalf("broken item has no error: %v", bad)
	}
	if good["result"] == nil {
		t.Fatalf("good item has no result: %v", good)
	}
}

func TestAsyncJobsPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke", "source": paperapps.SmokeAlarm, "async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d", resp.StatusCode)
	}
	id, _ := body["job_id"].(string)
	if id == "" {
		t.Fatalf("async response has no job_id: %v", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		if body["status"] == "done" {
			if body["result"].(map[string]any)["schema"] != float64(2) {
				t.Fatalf("done job has no record: %v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed: %v", id, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 20, MaxSourceBytes: 2048})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed", `{"name":`, http.StatusBadRequest},
		{"empty", `{}`, http.StatusBadRequest},
		{"no source", `{"name":"x"}`, http.StatusBadRequest},
		{"unknown field", `{"name":"x","source":"y","nope":1}`, http.StatusBadRequest},
		{"trailing", `{"name":"x","source":"y"}{}`, http.StatusBadRequest},
		{"bad property", `{"name":"x","source":"y","options":{"properties":["P.999"]}}`, http.StatusBadRequest},
		{"known properties", `{"name":"x","source":"y","options":{"properties":["P.10","T.2","T.*"]}}`, http.StatusOK},
		{"negative timeout", `{"name":"x","source":"y","options":{"timeout_ms":-1}}`, http.StatusBadRequest},
		{"removed parallel option", `{"name":"x","source":"y","options":{"parallel":2}}`, http.StatusBadRequest},
		{"nothing to check", `{"name":"x","source":"y","options":{"general":false,"app_specific":false,"taint":false}}`, http.StatusBadRequest},
		{"oversized source", fmt.Sprintf(`{"name":"x","source":%q}`, strings.Repeat("a", 4096)), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	// Whole-body cap → 413.
	big := fmt.Sprintf(`{"name":"x","source":%q}`, strings.Repeat("a", 2<<20))
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("big body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("big body: status %d, want 413", resp.StatusCode)
	}
	// An unparseable app is a 422 (failed job), not a 5xx.
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "bad", "source": "definition("})
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unparseable app: status %d (%v), want 422", resp2.StatusCode, body2)
	}
}

func TestPropertyFilterOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke", "source": paperapps.SmokeAlarm,
		"options": map[string]any{"general": false, "properties": []string{"P.10"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d (%v)", resp.StatusCode, body)
	}
	checked := body["result"].(map[string]any)["checked"].([]any)
	if len(checked) != 1 || checked[0] != "P.10" {
		t.Fatalf("checked = %v, want [P.10]", checked)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "smoke", "source": paperapps.SmokeAlarm})

	// The response can arrive before the worker decrements its inflight
	// gauge (runJob closes the job's done channel first), so scrape
	// until the worker has gone idle.
	var text string
	waitFor(t, "soteriad_inflight_jobs 0", func() bool {
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		defer mresp.Body.Close()
		raw, err := io.ReadAll(mresp.Body)
		if err != nil {
			t.Fatalf("reading metrics: %v", err)
		}
		text = string(raw)
		return strings.Contains(text, "soteriad_inflight_jobs 0")
	})
	for _, want := range []string{
		"soteriad_queue_depth 0",
		"soteriad_inflight_jobs 0",
		"soteriad_jobs_done_total 1",
		"soteriad_store_puts_total 1",
		"soteriad_store_misses_total",
		"soteriad_store_corrupt_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestResultsEndpointRejectsBadHashes(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	for _, hash := range []string{"zz", "%2e%2e%2fescape", strings.Repeat("a", 64)} {
		resp, err := http.Get(ts.URL + "/v1/results/" + hash)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/results/%s: %d, want 404", hash, resp.StatusCode)
		}
	}
}

// TestClientCannotPlantVerdict: the store is written only by the node
// that ran the analysis. A client PUTting a made-up record under the
// key of a real app gets 405, and the next analysis of that app runs
// the pipeline instead of serving the planted verdict.
func TestClientCannotPlantVerdict(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st})
	opts, herr := s.coreOptions(requestOptions{})
	if herr != nil {
		t.Fatalf("coreOptions: %v", herr)
	}
	key := core.AnalysisKey([]core.NamedSource{{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}}, opts)

	planted, err := report.Encode(&report.Record{Schema: report.Schema, Apps: []string{"PLANTED"},
		Violations: []report.Violation{}, Checked: []string{}, Diagnostics: []report.Diagnostic{}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/results/"+key, bytes.NewReader(planted))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/results/{hash}: %d, want 405", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %v", resp.StatusCode, body)
	}
	if body["key"] != key {
		t.Fatalf("analysis key %v, want %s", body["key"], key)
	}
	if body["cached"] == true {
		t.Fatalf("analysis served from the store although nothing analyzed it: %v", body)
	}
	if apps := fmt.Sprint(body["result"].(map[string]any)["apps"]); strings.Contains(apps, "PLANTED") {
		t.Fatalf("analysis returned the planted record: apps %s", apps)
	}
}
