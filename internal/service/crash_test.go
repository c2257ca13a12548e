package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// The crash model drives the real Server, journal and store over an
// fsio.Mem, then crashes the recorded run after every logged file
// operation and checks the §4g contract on each state the crash can
// leave on disk (DESIGN §4g).

const (
	crashStoreDir = "/crash/store"
	crashJournal  = "/crash/journal.wal"
)

// crashDue is what a crash after the first at file operations must
// preserve: an acknowledged job, a record a client was served, or both.
type crashDue struct {
	at     int
	job    string // acknowledged job ID ("" = none)
	key    string // served record's content address ("" = none)
	record []byte // its canonical bytes
}

// crashRun is one scripted run over m.
type crashRun struct {
	t         *testing.T
	m         *fsio.Mem
	withStore bool
	s         *Server
	due       []crashDue
}

// crashWire is the part of a job response the model reads.
type crashWire struct {
	JobID   string          `json:"job_id"`
	Status  string          `json:"status"`
	Key     string          `json:"key"`
	Cached  bool            `json:"cached"`
	Result  json.RawMessage `json:"result"`
	Results []struct {
		Store  string          `json:"store_key"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	} `json:"results"`
}

// openCrashServer opens the store (when used) and a server over fsys.
func openCrashServer(t *testing.T, fsys fsio.FS, withStore bool) *Server {
	t.Helper()
	cfg := Config{Workers: 2, JournalPath: crashJournal, FS: fsys}
	if withStore {
		st, err := store.Open(crashStoreDir, store.Options{FS: fsys})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		cfg.Store = st
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func shutdownCrashServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := drainCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// canonical re-encodes a served record as the store would.
func canonical(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var rec report.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decoding served record: %v", err)
	}
	data, err := report.Encode(&rec)
	if err != nil {
		t.Fatalf("encoding served record: %v", err)
	}
	return data
}

// do sends one request and records what the response obliges a crash
// after it to keep.
func (r *crashRun) do(method, path string, body any, wantCode int) crashWire {
	r.t.Helper()
	var data []byte
	if body != nil {
		data, _ = json.Marshal(body)
	}
	w := httptest.NewRecorder()
	r.s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(data)))
	at := r.m.Ops()
	if w.Code != wantCode {
		r.t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body.Bytes())
	}
	var resp crashWire
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		r.t.Fatalf("decoding %s: %v", w.Body.Bytes(), err)
	}
	if method == http.MethodPost && (w.Code == http.StatusAccepted || !allCached(resp)) {
		// Acknowledged: the accepted entry is journaled. A response
		// served whole from the store was never journaled, so only its
		// records are owed.
		r.due = append(r.due, crashDue{at: at, job: resp.JobID})
	}
	if resp.Status != string(statusDone) || !r.withStore {
		return resp
	}
	if resp.Result != nil {
		r.due = append(r.due, crashDue{at: at, key: resp.Key, record: canonical(r.t, resp.Result)})
	}
	for _, it := range resp.Results {
		r.due = append(r.due, crashDue{at: at, key: it.Store, record: canonical(r.t, it.Result)})
	}
	return resp
}

func allCached(resp crashWire) bool {
	if resp.Results == nil {
		return resp.Cached
	}
	for _, it := range resp.Results {
		if !it.Cached {
			return false
		}
	}
	return true
}

// await polls an async job until it is done, recording its records.
func (r *crashRun) await(id string) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp := r.do(http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK); resp.Status == string(statusDone) {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("job %s never finished", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// crashApp is a distinct small app per i, so each is its own store key.
func crashApp(i int) map[string]any {
	return map[string]any{
		"name":   fmt.Sprintf("water-leak-%d", i),
		"source": fmt.Sprintf("// crash model variant %d\n%s", i, paperapps.WaterLeakDetector),
	}
}

// script runs two lives of the daemon over r.m: sync cold requests, a
// memory-front hit, an async job, a batch with a stored item, a clean
// restart (replay and compaction), a disk hit, and a job still queued
// when the second life drains.
func (r *crashRun) script() {
	r.s = openCrashServer(r.t, r.m, r.withStore)
	r.do(http.MethodPost, "/v1/analyze", crashApp(0), http.StatusOK)
	r.do(http.MethodPost, "/v1/analyze", crashApp(0), http.StatusOK)
	async := crashApp(1)
	async["async"], async["idempotency_key"] = true, "crash-async"
	r.await(r.do(http.MethodPost, "/v1/analyze", async, http.StatusAccepted).JobID)
	r.do(http.MethodPost, "/v1/batch", map[string]any{"items": []map[string]any{
		{"key": "stored", "apps": []any{crashApp(0)}},
		{"key": "fresh", "apps": []any{crashApp(2)}},
	}}, http.StatusOK)
	shutdownCrashServer(r.t, r.s)

	r.s = openCrashServer(r.t, r.m, r.withStore)
	r.do(http.MethodPost, "/v1/analyze", crashApp(3), http.StatusOK)
	r.do(http.MethodPost, "/v1/analyze", crashApp(0), http.StatusOK)
	async = crashApp(4)
	async["async"] = true
	r.do(http.MethodPost, "/v1/analyze", async, http.StatusAccepted)
	shutdownCrashServer(r.t, r.s)
}

// digest identifies a crash image, so identical states are checked
// once per set of obligations.
func digest(img fsio.Image) string {
	paths := make([]string, 0, len(img.Files))
	for p := range img.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(img.Files[p]))
		h.Write(img.Files[p])
	}
	return string(h.Sum(nil))
}

// recoverImage reopens a crash image, lets replay drain, and checks
// the contract against the obligations due. It returns how many jobs
// replay re-enqueued.
func (r *crashRun) recoverImage(k int, img fsio.Image, due []crashDue) int64 {
	t := r.t
	m := fsio.NewMemImage(img)
	s := openCrashServer(t, m, r.withStore)
	reenqueued := s.jobsReenqueued.Load()
	shutdownCrashServer(t, s)
	where := fmt.Sprintf("crash after op %d", k)

	// Every acknowledged job reached a terminal state, re-running if
	// its terminal entry was lost; every served record reads back
	// byte-identical.
	statuses := map[string]jobStatus{}
	for _, d := range due {
		if d.job != "" {
			j, ok := s.lookupJob(d.job)
			if !ok {
				t.Fatalf("%s: acknowledged job %s lost", where, d.job)
			}
			st, _, _ := j.snapshot()
			if st != statusDone {
				t.Fatalf("%s: acknowledged job %s ended %q", where, d.job, st)
			}
			statuses[d.job] = st
		}
		if d.key != "" {
			rec, ok := s.cfg.Store.Get(d.key)
			if !ok {
				t.Fatalf("%s: served record %s lost", where, d.key)
			}
			data, _ := report.Encode(rec)
			if !bytes.Equal(data, d.record) {
				t.Fatalf("%s: record %s differs from the one served", where, d.key)
			}
		}
	}
	// No torn record is served: whatever recovery left in the store
	// root reads back soundly.
	if r.withStore {
		entries, err := m.ReadDir(crashStoreDir)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		for _, e := range entries {
			key, isRecord := strings.CutSuffix(e.Name(), ".json")
			if e.IsDir() || !isRecord {
				continue
			}
			if _, ok := s.cfg.Store.Get(key); !ok {
				t.Fatalf("%s: store keeps unsound record %s", where, filepath.Join(crashStoreDir, e.Name()))
			}
		}
	}

	// Replay is idempotent: a second open of the recovered state has
	// nothing left to run and reports the same terminal states.
	again := openCrashServer(t, m, r.withStore)
	defer shutdownCrashServer(t, again)
	if n := again.jobsReenqueued.Load(); n != 0 {
		t.Fatalf("%s: second replay re-enqueued %d jobs", where, n)
	}
	for id, want := range statuses {
		j, ok := again.lookupJob(id)
		if !ok {
			t.Fatalf("%s: second replay lost job %s", where, id)
		}
		if st, _, _ := j.snapshot(); st != want {
			t.Fatalf("%s: second replay reports job %s %q, first %q", where, id, st, want)
		}
	}
	return reenqueued
}

// TestCrashModel crashes a scripted run after every file operation and
// checks that every acknowledged job reaches a terminal state or
// re-runs, no torn record is served, replay is idempotent, and every
// record a client was served comes back byte-identical. Without a
// store (soteriad -store ""), a job whose terminal entry was lost must
// re-run.
func TestCrashModel(t *testing.T) {
	for _, withStore := range []bool{true, false} {
		name := "store"
		if !withStore {
			name = "no-store"
		}
		t.Run(name, func(t *testing.T) {
			r := &crashRun{t: t, m: fsio.NewMem(), withStore: withStore}
			r.script()
			seen := map[string]bool{}
			var checked, reruns int
			r.m.Crashes(func(k int, images []fsio.Image) bool {
				var due []crashDue
				for _, d := range r.due {
					if d.at <= k {
						due = append(due, d)
					}
				}
				for _, img := range images {
					id := fmt.Sprintf("%d/%s", len(due), digest(img))
					if seen[id] {
						continue
					}
					seen[id] = true
					checked++
					if r.recoverImage(k, img, due) > 0 {
						reruns++
					}
				}
				return !t.Failed()
			})
			t.Logf("%d file operations, %d obligations, %d distinct crash states, %d with jobs re-run",
				r.m.Ops(), len(r.due), checked, reruns)
			if reruns == 0 {
				t.Fatalf("no crash state re-ran a job: the model never lost a terminal entry")
			}
		})
	}
}
