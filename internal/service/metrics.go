package service

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/soteria-analysis/soteria/internal/obs"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (hand-rendered; the serving tier is standard-library only).
// Gauges come from the guard instrumentation; counters from the job
// table, the persistent store (soteriad's only result cache), and the
// memo totals aggregated from job span trees; histograms are the obs
// latency families (job up to its response, the commit after it,
// queue wait, per-phase, per-property engine check). The
// exposition-format test validates the output with
// obs.ValidateExposition, and the smoke script re-validates it against
// a live daemon.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("soteriad_queue_depth", "Jobs queued and not yet running.", s.queueDepth.Value())
	gauge("soteriad_inflight_jobs", "Jobs currently being analyzed.", s.inflight.Value())
	draining := int64(0)
	if s.Draining() {
		draining = 1
	}
	gauge("soteriad_draining", "1 while the server drains for shutdown.", draining)

	counter("soteriad_jobs_done_total", "Jobs completed successfully (including cache-served).", s.jobsDone.Load())
	counter("soteriad_jobs_failed_total", "Jobs that ended in a hard input error.", s.jobsFailed.Load())
	counter("soteriad_jobs_rejected_total", "Submissions rejected by backpressure or drain.", s.jobsRejected.Load())
	counter("soteriad_slow_jobs_total", "Jobs exceeding the slow-job threshold (span trees dumped to the log).", s.slowJobs.Load())

	counter("soteriad_idempotency_hits_total", "Resubmissions answered by an idempotency key's first job.", s.idemHits.Load())
	counter("soteriad_jobs_replayed_total", "Jobs rebuilt from the journal at startup.", s.jobsReplayed.Load())
	counter("soteriad_jobs_reenqueued_total", "Replayed jobs re-enqueued because they never reached a terminal state.", s.jobsReenqueued.Load())
	counter("soteriad_journal_dup_keys_total", "Duplicate idempotency keys collapsed during journal replay.", s.journalDupKeys.Load())
	if s.journal != nil {
		counter("soteriad_journal_appends_total", "Entries appended to the job journal.", s.journal.stats.appends.Load())
		counter("soteriad_journal_syncs_total", "fsyncs issued by the job journal (group commit batches appends).", s.journal.stats.syncs.Load())
		gauge("soteriad_journal_truncated_bytes", "Torn-tail bytes truncated when the journal was opened.", int64(s.journal.replay.TruncatedBytes))
	}

	ss := s.cfg.Store.Stats()
	counter("soteriad_store_hits_total", "Persistent store hits (memory front + disk).", ss.Hits)
	counter("soteriad_store_disk_hits_total", "Persistent store hits served from disk.", ss.DiskHits)
	counter("soteriad_store_misses_total", "Persistent store misses.", ss.Misses)
	counter("soteriad_store_puts_total", "Records written to the persistent store.", ss.Puts)
	counter("soteriad_store_evictions_total", "Records evicted from the store's memory front.", ss.Evictions)
	counter("soteriad_store_corrupt_total", "Corrupt records quarantined on read.", ss.Corrupt)

	// Explicit-engine memo totals, aggregated from the span trees of
	// completed jobs.
	counter("soteriad_memo_lookups_total", "Explicit-engine cross-formula memo probes.", s.memoLookups.Load())
	counter("soteriad_memo_hits_total", "Explicit-engine cross-formula memo hits.", s.memoHits.Load())
	counter("soteriad_memo_subformulas_total", "Distinct subformulas memoized across property sweeps.", s.memoSubformulas.Load())

	if cl := s.cfg.Cluster; cl != nil {
		st := cl.Status()
		gauge("soteriad_cluster_members", "Fleet members in this node's ring.", int64(st.Members))
		counter("soteriad_cluster_forwards_total", "Requests (or batch groups) forwarded to their ring owner.", s.routeForwards.Load())
		counter("soteriad_cluster_fallbacks_total", "Owner-unreachable groups served locally instead.", s.routeFallbacks.Load())
		obs.WriteHistogramProm(&b, "soteriad_route_seconds",
			"Forwarded-request latency per peer (analysis included).",
			cl.RouteSeries()...)
	}

	obs.WriteHistogramProm(&b, "soteriad_job_seconds",
		"Job latency up to its response (queue wait excluded for cache-served jobs; the commit after the response excluded).",
		obs.Series{H: s.jobLatency})
	obs.WriteHistogramProm(&b, "soteriad_commit_seconds",
		"Post-response commit of analyzed jobs: store writes plus the terminal journal append.",
		obs.Series{H: s.commitLatency})
	obs.WriteHistogramProm(&b, "soteriad_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.",
		obs.Series{H: s.queueWait})
	phases := make([]obs.Series, 0, len(phaseNames))
	for _, p := range phaseNames {
		phases = append(phases, obs.Series{Label: "phase", Value: p, H: s.phaseHist[p]})
	}
	obs.WriteHistogramProm(&b, "soteriad_phase_seconds",
		"Per-phase analysis durations (ir, statemodel, kripke, check.general, check).",
		phases...)
	obs.WriteHistogramProm(&b, "soteriad_engine_check_seconds",
		"Per-property check durations by engine.",
		obs.Series{Label: "engine", Value: "explicit", H: s.engineHist})

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, b.String())
}
