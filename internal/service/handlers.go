package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/report"
)

// TraceHeader carries a job's trace ID on requests (client-minted,
// stable across retries) and responses (the ID the daemon adopted or
// minted).
const TraceHeader = "X-Soteria-Trace"

// Handler returns the service's HTTP API:
//
//	POST /v1/analyze        analyze one app or a multi-app union
//	POST /v1/batch          analyze many items in one job
//	GET  /v1/jobs/{id}      poll an async job
//	GET  /v1/results/{hash} look up a stored record by content address
//	GET  /v1/cluster/status fleet membership, shares, routing counters
//	GET  /healthz           liveness (503 while draining)
//	GET  /metrics           Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// logRequests emits one structured log line per request. The trace ID
// is taken from the response (the ID the handler adopted or minted),
// falling back to a valid client-supplied header — so every attempt of
// a retried submission logs under the same trace even when it is
// rejected before a job exists.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		trace := rec.Header().Get(TraceHeader)
		if trace == "" {
			if h := r.Header.Get(TraceHeader); obs.ValidTraceID(h) {
				trace = h
			}
		}
		attrs := []any{
			"method", r.Method, "path", r.URL.Path,
			"status", rec.code, "dur_ms", time.Since(start).Milliseconds(),
		}
		if trace != "" {
			attrs = append(attrs, "trace", trace)
		}
		s.logger.Info("http request", attrs...)
	})
}

// requestTrace adopts a valid client-supplied trace ID or mints one.
func requestTrace(r *http.Request) string {
	if h := r.Header.Get(TraceHeader); obs.ValidTraceID(h) {
		return h
	}
	return obs.NewTraceID()
}

// jobResponse is the wire form of a job's state: the analyze and
// batch endpoints and the jobs poll all speak it.
type jobResponse struct {
	JobID     string    `json:"job_id"`
	Status    jobStatus `json:"status"`
	Poll      string    `json:"poll,omitempty"`
	ElapsedMS int64     `json:"elapsed_ms,omitempty"`
	// Single-analysis fields.
	Key    string         `json:"key,omitempty"`
	Cached bool           `json:"cached,omitempty"`
	Result *report.Record `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	// Node attributes a routed result to the fleet member that
	// produced it (empty on single-node daemons and local results).
	Node string `json:"node,omitempty"`
	// Batch fields.
	Results []batchItemResponse `json:"results,omitempty"`
}

type batchItemResponse struct {
	Key    string         `json:"key"`
	Store  string         `json:"store_key"`
	Cached bool           `json:"cached"`
	Result *report.Record `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	Node   string         `json:"node,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody reads a capped request body, mapping the cap to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *httpError) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, tooLarge("request body exceeds %d bytes", mbe.Limit)
		}
		return nil, badRequest("reading body: %v", err)
	}
	return data, nil
}

// rejectSubmit maps a submit error to its status code: 429 with a
// Retry-After hint for a full queue, 503 while draining.
func (s *Server) rejectSubmit(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, http.StatusTooManyRequests, "job queue is full, retry after %ds", secs)
}

// respondJob renders a job as status: a synchronous waiter passes the
// answered verdict, a poll the job's committed status. The job's trace
// ID is returned in X-Soteria-Trace; when the job asked for timings,
// each record in the response carries the span tree on a per-response
// copy (never the stored record — timing data is run-varying and must
// stay out of the content-addressed bytes).
func respondJob(w http.ResponseWriter, code int, j *job, status jobStatus) {
	_, results, elapsed := j.snapshot()
	if j.trace != "" {
		w.Header().Set(TraceHeader, j.trace)
	}
	resp := jobResponse{JobID: j.id, Status: status, ElapsedMS: elapsed.Milliseconds()}
	if status != statusDone && status != statusFailed {
		resp.Poll = "/v1/jobs/" + j.id
		writeJSON(w, code, resp)
		return
	}
	var timing *report.Timing
	if j.timings {
		timing = report.TimingFromSpan(j.trace, j.spanTree())
	}
	withTiming := func(rec *report.Record) *report.Record {
		if rec == nil || timing == nil {
			return rec
		}
		cp := *rec
		cp.Timing = timing
		return &cp
	}
	if j.batch {
		for _, it := range results {
			resp.Results = append(resp.Results, batchItemResponse{
				Key:    it.Key,
				Store:  it.StoreKey,
				Cached: it.Cached,
				Result: withTiming(it.Record),
				Error:  it.Err,
				Node:   it.Node,
			})
		}
	} else if len(results) == 1 {
		resp.Key = results[0].StoreKey
		resp.Cached = results[0].Cached
		resp.Result = withTiming(results[0].Record)
		resp.Error = results[0].Err
		resp.Node = results[0].Node
	}
	writeJSON(w, code, resp)
}

// applyIdemHeader merges the Idempotency-Key header into a parsed
// job. The body field wins when both are present and equal; differing
// values are a client bug worth surfacing.
func applyIdemHeader(j *job, r *http.Request) *httpError {
	h := r.Header.Get("Idempotency-Key")
	if h == "" {
		return nil
	}
	if herr := validateIdemKey(h); herr != nil {
		return herr
	}
	if j.idemKey != "" && j.idemKey != h {
		return badRequest("idempotency_key %q and Idempotency-Key header %q differ", j.idemKey, h)
	}
	j.idemKey = h
	return nil
}

// handleAnalyze serves POST /v1/analyze. The persistent store is
// consulted before any queueing: a content hit answers immediately
// without occupying a worker, so re-analyses of known apps are cheap
// even under full load.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	data, herr := s.readBody(w, r)
	if herr == nil {
		var j *job
		j, herr = s.parseAnalyze(data)
		if herr == nil {
			herr = applyIdemHeader(j, r)
		}
		if herr == nil {
			j.raw = data
			s.finishOrQueue(w, r, j)
			return
		}
	}
	writeError(w, herr.code, "%s", herr.msg)
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	data, herr := s.readBody(w, r)
	if herr == nil {
		var j *job
		j, herr = s.parseBatch(data)
		if herr == nil {
			herr = applyIdemHeader(j, r)
		}
		if herr == nil {
			s.finishOrQueue(w, r, j)
			return
		}
	}
	writeError(w, herr.code, "%s", herr.msg)
}

// finishOrQueue completes a job from the store when every item is a
// hit, otherwise queues it — waiting for completion on sync requests,
// returning 202 + poll URL on async ones.
//
// Ordering for durability: the idempotency claim is taken first (so
// concurrent resubmissions cannot both run), then the accepted entry
// is fsynced into the journal, and only then is the job queued and
// acknowledged. A crash before the ack can at worst re-run a job the
// client never saw accepted; a crash after it cannot lose the job.
func (s *Server) finishOrQueue(w http.ResponseWriter, r *http.Request, j *job) {
	j.id = newJobID()
	// The trace ID is fixed before the job is published anywhere (the
	// idempotency index, the journal, the queue): every log line and
	// response about this job carries the same ID.
	j.trace = requestTrace(r)
	j.forwarded = r.Header.Get(ForwardedHeader) != ""
	if j.idemKey != "" {
		if prev, claimed := s.claimIdem(j.idemKey, j); !claimed {
			// Resubmission: the key's original job answers, whatever
			// state it is in — terminal jobs return their results
			// without re-running the analysis, in-flight ones a poll
			// handle.
			s.idemHits.Add(1)
			select {
			case <-prev.ready:
				// Answered and committing: the commit is brief, and a
				// resubmission reports done only once it is over.
				select {
				case <-prev.done:
				case <-r.Context().Done():
					return
				}
			default:
			}
			code := http.StatusOK
			st, _, _ := prev.snapshot()
			if st != statusDone && st != statusFailed {
				code = http.StatusAccepted
			}
			respondJob(w, code, prev, st)
			return
		}
	}
	if s.finishFromStore(j) {
		s.registerJob(j)
		respondJob(w, http.StatusOK, j, statusDone)
		return
	}
	if s.maybeRoute(w, r, j) {
		return
	}
	if err := s.journal.append(acceptedEvent(j)); err != nil {
		// Durability cannot be promised; better a retryable 503 than an
		// acknowledged job a crash would silently lose.
		s.releaseIdem(j.idemKey, j)
		s.logger.Error("journal accepted append failed", "job", j.id, "trace", j.trace, "error", err)
		w.Header().Set(TraceHeader, j.trace)
		writeError(w, http.StatusServiceUnavailable, "job journal write failed")
		return
	}
	if err := s.submit(j); err != nil {
		// Withdraw the accepted entry so a restart does not resurrect a
		// job the client was told to retry, and free its key.
		if jerr := s.journal.append(journalEvent{Op: opRejected, Job: j.id, Idem: j.idemKey}); jerr != nil {
			s.logger.Error("journal rejected append failed", "job", j.id, "trace", j.trace, "error", jerr)
		}
		w.Header().Set(TraceHeader, j.trace)
		s.releaseIdem(j.idemKey, j)
		s.rejectSubmit(w, err)
		return
	}
	if j.async {
		st, _, _ := j.snapshot()
		respondJob(w, http.StatusAccepted, j, st)
		return
	}
	select {
	case <-j.ready:
		// The verdict is ready; the worker commits it after this
		// response (runJob).
		code := http.StatusOK
		st := j.answered()
		if st == statusFailed {
			code = http.StatusUnprocessableEntity
		}
		respondJob(w, code, j, st)
	case <-r.Context().Done():
		// Client gone; the job keeps running and lands in the store,
		// so a retried request becomes a cache hit.
	}
}

// finishFromStore serves a whole job from this node's store, before
// any analysis or forward. It looks every item up once and keeps the
// outcome in the job; a partial hit set still queues the job, and the
// worker serves the stored items from these lookups and analyzes the
// rest.
func (s *Server) finishFromStore(j *job) bool {
	if s.cfg.Store == nil {
		return false
	}
	root := obs.NewRoot("job")
	root.Set("trace", j.trace)
	root.Set("cached", "true")
	keys := j.storeKeys()
	j.found = make([]*report.Record, len(j.items))
	hit := true
	for i := range j.items {
		rec, ok := s.cfg.Store.Get(keys[i])
		j.found[i] = rec
		hit = hit && ok
	}
	if !hit {
		return false
	}
	results := make([]itemResult, len(j.items))
	for i, it := range j.items {
		results[i] = itemResult{Key: it.Key, StoreKey: keys[i], Cached: true, Record: j.found[i]}
	}
	s.jobsDone.Add(1)
	root.End()
	j.finish(statusDone, results, root.Duration(), root)
	s.jobLatency.Observe(root.Duration())
	return true
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st, _, _ := j.snapshot()
	respondJob(w, http.StatusOK, j, st)
}

// handleResult serves GET /v1/results/{hash} from this node's store
// only; it never routes. There is no write counterpart: a record is
// written only by the node whose analysis produced it.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok := s.cfg.Store.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored result for %q", hash)
		return
	}
	data, err := report.Encode(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding record: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleHealth serves GET /healthz: 200 while serving, 503 once
// draining so load balancers stop routing here before shutdown.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"workers":        s.cfg.Workers,
	})
}
