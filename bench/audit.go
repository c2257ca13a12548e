package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
)

// analyzeCore is the production entry point with the options a market
// auditor uses: every property family, no cache. It returns the
// violated IDs and the state count.
func analyzeCore(ctx context.Context, srcs []core.NamedSource) ([]string, int, error) {
	an, err := core.AnalyzeSourcesContext(ctx, core.DefaultOptions(), srcs...)
	if err != nil {
		return nil, 0, err
	}
	if an.Incomplete {
		return nil, 0, fmt.Errorf("analysis incomplete: %v", an.Diagnostics)
	}
	return an.ViolatedIDs(), len(an.Model.States), nil
}

// runAuditCorpus analyses the 65 market apps one at a time.
func runAuditCorpus(ctx context.Context, cfg config, ref *reference) (*outcome, error) {
	return runAudit(ctx, cfg, ref.corpusItems)
}

// runAuditEnv analyses the 28 candidate environments one at a time.
func runAuditEnv(ctx context.Context, cfg config, ref *reference) (*outcome, error) {
	return runAudit(ctx, cfg, ref.envItems)
}

// runAudit sets up (build the items, shuffle them into the seed's
// cycle, and make one discarded pass over it), then analyses the cycle
// in a closed loop with one caller for cfg.seconds.
//
// One caller, not one per CPU: with both CPUs of a 2-CPU host busy,
// the Go runtime's GC workers and everything else on the host compete
// with the analyses, and the run-to-run spread of every end-to-end
// metric rose from about 0.05 to 0.2–0.3 (README.md).
func runAudit(ctx context.Context, cfg config, build func() ([]item, error)) (*outcome, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var items []item
	var setups []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		base, err := build()
		if err != nil {
			return nil, err
		}
		items = shuffled(base, cfg.seed)
		warm := auditLoop(ctx, items, time.Time{}, fmt.Sprintf("seed %d warm-up %d", cfg.seed, r))
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up pass: %w", warm.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return traceAudit(ctx, cfg, items)
	}

	cpu0, _ := selfUsage()
	res := auditLoop(ctx, items, time.Now().Add(seconds(cfg.seconds)), fmt.Sprintf("seed %d", cfg.seed))
	cpu1, peakMB := selfUsage()
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: first failed analysis: %v\n", res.err)
	}
	ok := float64(len(res.lat))
	return &outcome{
		attempted:  res.attempted,
		failed:     res.failed,
		mismatched: res.mismatched,
		values: map[string]float64{
			"setup_s":         median(setups),
			"items_per_s":     ok / res.elapsed.Seconds(),
			"p50_ms":          percentile(res.lat, 50),
			"cpu_ms_per_item": ms(cpu1-cpu0) / ok,
			"peak_rss_mb":     peakMB,
		},
	}, nil
}

// loopResult is what an audit loop measured.
type loopResult struct {
	lat                           []float64 // ms per successful analysis
	attempted, failed, mismatched int
	elapsed                       time.Duration
	err                           error // the first failure
}

// auditLoop analyses the cycle's items one after another until the
// deadline passes, or once each when until is zero. Analysis n gets the
// nonce "<tag> item <n>".
func auditLoop(ctx context.Context, items []item, until time.Time, tag string) loopResult {
	more := func(n int) bool {
		if until.IsZero() {
			return n < len(items)
		}
		return time.Now().Before(until)
	}
	var res loopResult
	start := time.Now()
	for n := 0; ctx.Err() == nil && more(n); n++ {
		it := items[n%len(items)]
		srcs := it.variant(fmt.Sprintf("%s item %d", tag, n))
		t0 := time.Now()
		got, _, err := analyzeCore(ctx, srcs)
		d := time.Since(t0)
		res.attempted++
		if err == nil {
			err = verdictErr(it.id, got, it.want)
		}
		if err != nil {
			if errors.Is(err, errMismatch) {
				res.mismatched++
			}
			res.failed++
			if res.err == nil {
				res.err = err
			}
			continue
		}
		res.lat = append(res.lat, ms(d))
	}
	res.elapsed = time.Since(start)
	return res
}

// traceAudit is the traced run: it decides each item of the cycle
// twice, through the production entry point and through the traced
// layer sequence, alternating which goes first. The pairing gives both
// sides the same item mix, so their wall-time difference is the
// tracing overhead, and the untraced side gives the latency tail and
// the bytes allocated per item.
func traceAudit(ctx context.Context, cfg config, items []item) (*outcome, error) {
	tr := newTracer()
	bytes := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var plainWall, tracedWall time.Duration
	var plainBytes uint64
	var lat []float64 // ms per untraced analysis of a successful pair
	o := &outcome{}
	until := time.Now().Add(seconds(cfg.seconds))
	for n := 0; ctx.Err() == nil && time.Now().Before(until); n++ {
		it := items[n%len(items)]
		var wall [2]time.Duration // untraced, traced
		var allocBytes uint64
		failed := false
		for pass := 0; pass < 2; pass++ {
			traced := (n+pass)%2 == 1
			srcs := it.variant(fmt.Sprintf("seed %d traced %t item %d", cfg.seed, traced, n))
			metrics.Read(bytes)
			b0 := bytes[0].Value.Uint64()
			t0 := time.Now()
			var got []string
			var err error
			if traced {
				got, _, err = tr.analyze(ctx, fmt.Sprintf("%s#%d", it.id, n), srcs)
			} else {
				got, _, err = analyzeCore(ctx, srcs)
			}
			d := time.Since(t0)
			metrics.Read(bytes)
			o.attempted++
			if err == nil {
				err = verdictErr(it.id, got, it.want)
			}
			if err != nil {
				if errors.Is(err, errMismatch) {
					o.mismatched++
				}
				o.failed++
				failed = true
				fmt.Fprintf(os.Stderr, "bench: traced run: %v\n", err)
				continue
			}
			if traced {
				wall[1] = d
			} else {
				wall[0] = d
				allocBytes = bytes[0].Value.Uint64() - b0
			}
		}
		if !failed {
			plainWall += wall[0]
			tracedWall += wall[1]
			plainBytes += allocBytes
			lat = append(lat, ms(wall[0]))
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no traced analysis succeeded")
	}
	o.values = auditMetrics(tr.spans)
	o.values["core.alloc_mb_per_item"] = float64(plainBytes) / float64(len(lat)) / (1 << 20)
	o.values["trace.overhead_pct"] = (ms(tracedWall) - ms(plainWall)) / ms(plainWall) * 100
	o.values["item.p90_ms"] = percentile(lat, 90)
	o.values["item.p99_ms"] = percentile(lat, 99)
	o.spans = tr.spans
	return o, nil
}

// seconds converts fractional seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
