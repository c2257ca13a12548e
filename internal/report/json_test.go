package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

func analyzeOnce(t *testing.T) *core.Analysis {
	t.Helper()
	an, err := core.AnalyzeSources(core.DefaultOptions(),
		core.NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return an
}

// TestRecordDeterministic analyzes the same app twice, in fresh
// pipeline runs, and requires byte-identical encodings — the property
// the content-addressed store depends on.
func TestRecordDeterministic(t *testing.T) {
	b1, err := Encode(FromAnalysis(analyzeOnce(t)))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b2, err := Encode(FromAnalysis(analyzeOnce(t)))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two runs encoded differently:\n%s\n---\n%s", b1, b2)
	}
	if !strings.Contains(string(b1), `"schema":2`) {
		t.Fatalf("record is not versioned: %s", b1)
	}
}

// TestRecordRoundTrip requires Decode(Encode(rec)) to re-encode to the
// same bytes: the store serves decoded records as they are, so a disk
// hit must answer with the bytes a fresh analysis produced.
func TestRecordRoundTrip(t *testing.T) {
	rec := FromAnalysis(analyzeOnce(t))
	if rec.States == 0 || len(rec.Apps) != 1 || rec.Apps[0] != "smoke-alarm" {
		t.Fatalf("unexpected record: %+v", rec)
	}
	b, err := Encode(rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b2, err := Encode(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("decode/encode is not stable:\n%s\n---\n%s", b, b2)
	}
}

// leakyApp exfiltrates event data over SMS — a T.2 flow the record
// must persist in full.
const leakyApp = `
definition(name: "leaky", namespace: "t", author: "t")
preferences {
    section("Devices") {
        input "kids", "capability.presenceSensor"
    }
}
def installed() { subscribe(kids, "presence.not present", h) }
def h(evt) {
    sendSms("555-0100", "left: ${evt.displayName}")
}
`

// TestRecordTaintFlowsRoundTrip requires taint flows to survive the
// encode/decode cycle: a store hit must serve the same flow section a
// fresh analysis would.
func TestRecordTaintFlowsRoundTrip(t *testing.T) {
	an, err := core.AnalyzeSources(core.DefaultOptions(),
		core.NamedSource{Name: "leaky", Source: leakyApp})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(an.TaintFlows) == 0 {
		t.Fatal("leaky app produced no taint flows")
	}
	rec := FromAnalysis(an)
	if len(rec.TaintFlows) != len(an.TaintFlows) {
		t.Fatalf("record has %d flows, analysis %d", len(rec.TaintFlows), len(an.TaintFlows))
	}
	b, err := Encode(rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !strings.Contains(string(b), `"taint_flows":[{`) {
		t.Fatalf("record lacks a populated taint_flows section: %s", b)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.TaintFlows, rec.TaintFlows) {
		t.Fatalf("taint flows did not survive decoding:\n%+v\n---\n%+v",
			got.TaintFlows, rec.TaintFlows)
	}
	b2, err := Encode(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("decode/encode is not stable:\n%s\n---\n%s", b, b2)
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := Decode([]byte("{garbage")); err == nil {
		t.Fatalf("Decode accepted malformed JSON")
	}
	if _, err := Decode([]byte(`{"schema":999}`)); err == nil {
		t.Fatalf("Decode accepted unknown schema version")
	}
}
