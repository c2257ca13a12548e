package soteria

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// TestServiceQuickstart exercises the public daemon surface end to
// end: NewService with a store directory, one analysis over HTTP, and
// a second service over the same directory serving the result without
// re-analysis — the cross-restart contract soteriad is built on.
func TestServiceQuickstart(t *testing.T) {
	dir := t.TempDir()
	body, _ := json.Marshal(map[string]string{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
	})

	post := func(svc *Service) map[string]any {
		t.Helper()
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST: status %d", resp.StatusCode)
		}
		var decoded map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Fatalf("decoding: %v", err)
		}
		return decoded
	}
	shutdown := func(svc *Service) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}

	svc, err := NewService(ServiceConfig{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	first := post(svc)
	if first["cached"] == true {
		t.Fatal("first analysis claims cached")
	}
	rec, ok := first["result"].(map[string]any)
	if !ok || rec["schema"] != float64(2) {
		t.Fatalf("no schema-2 record in response: %v", first)
	}
	shutdown(svc)

	// A fresh service over the same directory — a daemon restart —
	// must answer from the persistent store.
	svc2, err := NewService(ServiceConfig{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("NewService (restart): %v", err)
	}
	defer shutdown(svc2)
	second := post(svc2)
	if second["cached"] != true {
		t.Fatalf("restarted service re-analyzed: %v", second)
	}
	a, _ := json.Marshal(first["result"])
	b, _ := json.Marshal(second["result"])
	if !bytes.Equal(a, b) {
		t.Fatalf("records differ across restart:\n%s\n---\n%s", a, b)
	}
}

// TestResultJSONMatchesServiceRecord pins the CLI/daemon contract:
// Result.JSON from an in-process analysis is byte-identical to the
// record the service stores and serves for the same input.
func TestResultJSONMatchesServiceRecord(t *testing.T) {
	app, err := ParseApp("smoke-alarm", paperapps.SmokeAlarm)
	if err != nil {
		t.Fatalf("ParseApp: %v", err)
	}
	res, err := Analyze(app)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if rec["schema"] != float64(2) {
		t.Fatalf("schema = %v, want 2", rec["schema"])
	}

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
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
	})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var jr struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	var svcRec map[string]any
	if err := json.Unmarshal(jr.Result, &svcRec); err != nil {
		t.Fatalf("unmarshal service record: %v", err)
	}
	norm := func(v map[string]any) string {
		b, _ := json.Marshal(v)
		return string(b)
	}
	if norm(rec) != norm(svcRec) {
		t.Fatalf("CLI and service records differ:\n%s\n---\n%s", norm(rec), norm(svcRec))
	}
}
