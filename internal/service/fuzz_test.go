package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fuzzServer builds a server for decoder fuzzing only — one worker,
// deliberately small source cap so the fuzzer can reach the 413 path.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	s, err := New(Config{Workers: 1, MaxSourceBytes: 2048})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// FuzzParseAnalyze asserts the request decoder's contract: every input
// yields either a runnable job or a 4xx error — never a panic, never a
// 5xx, never a job with no items.
func FuzzParseAnalyze(f *testing.F) {
	seeds := []string{
		`{"name":"x","source":"definition(name: \"x\")"}`,
		`{"apps":[{"name":"a","source":"s"},{"name":"b","source":"t"}]}`,
		`{"name":"x","source":"y","options":{"general":false,"properties":["P.1"],"timeout_ms":100,"max_states":10},"async":true}`,
		`{}`,
		`{"name":`,
		`null`,
		`[]`,
		`"string"`,
		`{"name":"x","source":"y","unknown_field":1}`,
		`{"name":"x","source":"y"}{"trailing":true}`,
		`{"name":"x","source":"y","options":{"properties":["P.999"]}}`,
		`{"name":"x","source":"y","options":{"general":false,"app_specific":false}}`,
		`{"name":"x","source":"y","options":{"timeout_ms":-5}}`,
		`{"name":"x","source":"y","apps":[{"name":"a","source":"s"}]}`,
		`{"name":"x","source":"` + strings.Repeat("a", 4096) + `"}`,
		`{"apps":[{"name":"","source":"s"}]}`,
		`{"apps":[{"name":"a","source":""}]}`,
		strings.Repeat(`{"apps":`, 200) + strings.Repeat("}", 200),
		"\x00\x01\x02",
	}
	s := fuzzServer(f)
	for _, seed := range seeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, herr := s.parseAnalyze(data)
		checkDecodeOutcome(t, j, herr)
	})
}

// FuzzParseBatch is the same contract for the batch decoder.
func FuzzParseBatch(f *testing.F) {
	seeds := []string{
		`{"items":[{"key":"a","apps":[{"name":"x","source":"y"}]}]}`,
		`{"items":[{"apps":[{"name":"x","source":"y"}]},{"apps":[{"name":"z","source":"w"}]}],"options":{}}`,
		`{"items":[]}`,
		`{"items":[{"key":"dup","apps":[{"name":"a","source":"s"}]},{"key":"dup","apps":[{"name":"b","source":"t"}]}]}`,
		`{"items":[{"key":"a"}]}`,
		`{"items":`,
		`{}`,
	}
	s := fuzzServer(f)
	for _, seed := range seeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, herr := s.parseBatch(data)
		checkDecodeOutcome(t, j, herr)
	})
}

func checkDecodeOutcome(t *testing.T, j *job, herr *httpError) {
	t.Helper()
	if herr != nil {
		if herr.code < 400 || herr.code > 499 {
			t.Fatalf("decoder returned status %d (%s), want 4xx", herr.code, herr.msg)
		}
		if herr.msg == "" {
			t.Fatalf("decoder returned %d with empty message", herr.code)
		}
		if j != nil {
			t.Fatal("decoder returned both a job and an error")
		}
		return
	}
	if j == nil {
		t.Fatal("decoder returned neither job nor error")
	}
	if len(j.items) == 0 {
		t.Fatal("accepted job has no items")
	}
	for i, it := range j.items {
		if len(it.Sources) == 0 {
			t.Fatalf("accepted job item %d has no sources", i)
		}
	}
	if !j.opts.General && !j.opts.AppSpecific && !j.opts.Taint {
		t.Fatal("accepted job checks nothing")
	}
	_ = fmt.Sprintf("%v", j.opts) // options must be render-safe
}
