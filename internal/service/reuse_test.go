package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// rawResponse keeps each record's bytes exactly as the server wrote
// them, so tests can compare records byte for byte.
type rawResponse struct {
	Status  string          `json:"status"`
	Cached  bool            `json:"cached"`
	Result  json.RawMessage `json:"result"`
	Results []struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"results"`
}

// serve runs one request through the handler in process and decodes
// the response.
func serve(t *testing.T, s *Server, method, path string, body any) rawResponse {
	t.Helper()
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(data)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body.Bytes())
	}
	var resp rawResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %s: %v", w.Body.Bytes(), err)
	}
	return resp
}

func openStore(t *testing.T, dir string, o store.Options) *store.Store {
	t.Helper()
	st, err := store.Open(dir, o)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	return st
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := drainCtx()
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestBatchAfterRestartServesStoredRecord: after a restart, a batch
// whose first item is already stored (and whose second is not) runs
// through the worker. The stored item must come back as the exact
// bytes the first process returned, model-derived fields included.
func TestBatchAfterRestartServesStoredRecord(t *testing.T) {
	dir := t.TempDir()
	smoke := map[string]string{"name": "smoke-alarm", "source": paperapps.SmokeAlarm}

	first := newServer(t, Config{Workers: 1, Store: openStore(t, dir, store.Options{})})
	want := serve(t, first, "POST", "/v1/analyze", smoke).Result
	ctx, cancel := drainCtx()
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	second := newServer(t, Config{Workers: 1, Store: openStore(t, dir, store.Options{})})
	got := serve(t, second, "POST", "/v1/batch", map[string]any{
		"items": []map[string]any{
			{"key": "smoke", "apps": []map[string]string{smoke}},
			{"key": "leak", "apps": []map[string]string{{"name": "leak", "source": paperapps.WaterLeakDetector}}},
		},
	})
	if len(got.Results) != 2 || got.Results[1].Error != "" || got.Results[1].Cached {
		t.Fatalf("batch results: %+v", got.Results)
	}
	if !got.Results[0].Cached {
		t.Fatal("stored item was re-analyzed")
	}
	if !bytes.Equal(got.Results[0].Result, want) {
		t.Fatalf("stored item changed across restart:\n%s\n---\n%s", got.Results[0].Result, want)
	}
}

// TestReplayedJobServesStoredRecord: a job journaled as accepted, whose
// record reached the store before the crash, re-enqueues on restart
// and must answer with that record unchanged.
func TestReplayedJobServesStoredRecord(t *testing.T) {
	dir := t.TempDir()
	j := smokeJob("0badc0de0badc0de")
	an, err := core.AnalyzeSources(j.opts, j.items[0].Sources...)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	rec := report.FromAnalysis(an)
	want, err := report.Encode(rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	st := openStore(t, filepath.Join(dir, "store"), store.Options{})
	if err := st.Put(core.AnalysisKey(j.items[0].Sources, j.opts), rec); err != nil {
		t.Fatalf("put: %v", err)
	}

	path := filepath.Join(dir, "journal.wal")
	jr, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if err := jr.append(acceptedEvent(j)); err != nil {
		t.Fatalf("append: %v", err)
	}
	jr.close()

	s := newServer(t, Config{Workers: 1, Store: openStore(t, filepath.Join(dir, "store"), store.Options{}), JournalPath: path})
	if got := s.jobsReenqueued.Load(); got != 1 {
		t.Fatalf("jobsReenqueued = %d, want 1", got)
	}
	var got rawResponse
	for deadline := time.Now().Add(30 * time.Second); ; {
		if got = serve(t, s, "GET", "/v1/jobs/"+j.id, nil); got.Status == "done" || got.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished: %+v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.Status != "done" || !got.Cached {
		t.Fatalf("replayed job: status %s, cached %t", got.Status, got.Cached)
	}
	if !bytes.Equal(append(got.Result, '\n'), want) {
		t.Fatalf("replayed job changed the stored record:\n%s\n---\n%s", got.Result, want)
	}
}

// TestHeapBoundedAcrossDistinctJobs: with the store front and the job
// table bounded, a stream of distinct jobs must not grow the heap —
// the daemon keeps no analyses or parsed IR beyond those bounds.
func TestHeapBoundedAcrossDistinctJobs(t *testing.T) {
	s := newServer(t, Config{
		Workers:       1,
		Store:         openStore(t, t.TempDir(), store.Options{MaxMemEntries: 8}),
		MaxJobRecords: 16,
	})
	variant := func(n int) map[string]string {
		return map[string]string{
			"name":   "smoke-alarm",
			"source": fmt.Sprintf("%s\n// nonce %d\n", paperapps.SmokeAlarm, n),
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	const warmup, jobs = 20, 400
	for i := 0; i < warmup; i++ {
		serve(t, s, "POST", "/v1/analyze", variant(i))
	}
	before := heap()
	for i := warmup; i < warmup+jobs; i++ {
		if r := serve(t, s, "POST", "/v1/analyze", variant(i)); r.Cached {
			t.Fatalf("variant %d was a cache hit", i)
		}
	}
	after := heap()
	growth := int64(after) - int64(before)
	t.Logf("heap %d -> %d bytes over %d distinct jobs (%+d)", before, after, jobs, growth)
	if growth > 2<<20 {
		t.Fatalf("heap grew %.2f MB over %d distinct jobs, want at most 2 MB", float64(growth)/(1<<20), jobs)
	}
}
