package soteria

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/maliot"
)

// TestTaintVerdictsCrossRuntime pins the acceptance contract for the
// taint family: analyzing the same leaky app sequentially, fanned out
// by AnalyzeBatch, and through the service (`-remote` path) must
// produce byte-identical records — including the taint_flows
// section and its rendered witnesses. MalIoT App11 is the fixture: the
// suite's sensitive-data-leak app, expected to violate exactly T.2.
func TestTaintVerdictsCrossRuntime(t *testing.T) {
	var app11 maliot.App
	for _, a := range maliot.Suite() {
		if a.ID == "App11" {
			app11 = a
		}
	}
	if app11.Source == "" {
		t.Fatal("App11 missing from the MalIoT suite")
	}

	app, err := ParseApp(app11.Name, app11.Source)
	if err != nil {
		t.Fatalf("ParseApp: %v", err)
	}

	record := func(label string, res *Result) string {
		t.Helper()
		data, err := res.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", label, err)
		}
		return string(data)
	}

	res, err := Analyze(app)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	seq := record("sequential", res)
	if !strings.Contains(seq, `"taint_flows":[{`) {
		t.Fatalf("sequential record lacks taint flows:\n%s", seq)
	}
	if !strings.Contains(seq, `"id":"T.2"`) {
		t.Fatalf("App11 record does not flag T.2:\n%s", seq)
	}
	items := make([]BatchItem, 4)
	for i := range items {
		items[i] = BatchItem{Key: fmt.Sprintf("app11-%d", i), Apps: []*App{app}}
	}
	for _, r := range AnalyzeBatch(context.Background(), 4, items) {
		if r.Err != nil {
			t.Fatalf("%s: AnalyzeBatch: %v", r.Key, r.Err)
		}
		if par := record(r.Key, r.Result); par != seq {
			t.Errorf("%s: batch record diverges from sequential:\n%s\n---\n%s", r.Key, par, seq)
		}
	}

	// The remote path: the same source through /v1/analyze, comparing
	// the stored record field-normalized against the in-process one
	// (the service wraps the record, so compare re-marshaled maps).
	svc, err := NewService(ServiceConfig{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{
		"name": app11.Name, "source": app11.Source,
	})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
	var jr struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	norm := func(raw []byte) string {
		var v map[string]any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		b, _ := json.Marshal(v)
		return string(b)
	}
	if norm(jr.Result) != norm([]byte(seq)) {
		t.Errorf("remote record diverges from sequential:\n%s\n---\n%s",
			norm(jr.Result), norm([]byte(seq)))
	}
}
