// Package service is soteriad's serving tier: an HTTP JSON API over
// the core analysis pipeline, backed by a bounded job queue with
// per-job deadlines and the persistent content-addressed result store.
//
// Request lifecycle:
//
//	POST /v1/analyze ──▶ validate ──▶ store lookup ──hit──▶ 200 (cached)
//	                                      │miss
//	                                      ▼
//	                    owned by a peer? ──yes──▶ forward ──▶ owner's 200
//	                                      │no, async, already forwarded,
//	                                      │or owner unreachable
//	                                      ▼
//	                          bounded queue ──full──▶ 429 + Retry-After
//	                                      │
//	                                      ▼
//	                   worker pool (guard budgets, panic isolation)
//	                                      │
//	                                      ▼
//	                 record staged in the store's memory front
//	                                      │
//	                                      ▼
//	             200 to a sync waiter, then commit: store write and
//	             terminal journal entry; polls read done after both
//
// Every analysis runs inside the resilience layer of PR 1 — resource
// budgets, cooperative cancellation, recovery boundaries — so a
// hostile or explosive app degrades one job, never the process. On
// SIGTERM the daemon stops accepting work (503), drains queued and
// in-flight jobs, and only then exits; a drain deadline cancels the
// jobs' budgets so even explosive analyses exit promptly with partial
// results.
package service

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/soteria-analysis/soteria/internal/cluster"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// Config configures a Server. The zero value is serviceable: defaults
// fill in workers, queue depth, timeouts, and size caps; Store may be
// nil, and then this node reuses nothing.
type Config struct {
	// Workers is the number of concurrent analysis workers (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// past it, submissions are rejected with 429 (default 64).
	QueueDepth int
	// JobTimeout is the wall-clock ceiling per job; requests may ask
	// for less, never more (default 60s).
	JobTimeout time.Duration
	// MaxBodyBytes caps the request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxSourceBytes caps one app's Groovy source (default 1 MiB).
	MaxSourceBytes int
	// MaxBatchItems caps items per batch request (default 64).
	MaxBatchItems int
	// Limits are the per-job resource limits (states, BDD nodes, SAT
	// conflicts, formula depth); the zero value is unlimited. The
	// wall clock is governed by JobTimeout.
	Limits guard.Limits
	// Store is the persistent result store and the server's only result
	// cache: its memory front is the only in-process tier. It is purely
	// local: only this node's own analyses write to it. Nil analyzes
	// every job afresh and reuses nothing.
	Store *store.Store
	// Cluster, when non-nil, turns this node into one member of a
	// fleet: sync requests route to each key's ring owner and federate
	// back, so the owner analyzes the key and keeps its record. Async
	// jobs, owner-down fallbacks and forwarded requests run and store
	// here. Nil keeps the single-node behavior unchanged.
	Cluster *cluster.Cluster
	// JournalPath enables the durable job journal ("" disables): every
	// accepted job is journaled and fsynced before its acknowledgment,
	// and on restart the journal is replayed — incomplete jobs
	// re-enqueue under their original IDs, terminal jobs rebuild the
	// /v1/jobs table, and idempotency keys dedupe resubmissions.
	JournalPath string
	// FS overrides the journal's filesystem (nil = fsio.OS{}); tests
	// inject fsio.Faulty, the chaos harness fsio.Chaos.
	FS fsio.FS
	// RetryAfter is the backoff hint attached to 429 responses
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// MaxJobRecords bounds the completed-job records retained for
	// GET /v1/jobs (default 1024; oldest are dropped).
	MaxJobRecords int
	// Logger receives structured request and job logs (every line
	// carries the job's trace ID); nil discards them.
	Logger *slog.Logger
	// SlowJobThreshold, when positive, dumps the full span tree of any
	// job whose wall time exceeds it to the log at Warn level.
	SlowJobThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobRecords <= 0 {
		c.MaxJobRecords = 1024
	}
	return c
}

// jobStatus is a job's lifecycle state.
type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// itemResult is one item's outcome inside a job.
type itemResult struct {
	Key      string         // caller's item key ("" for single analyses)
	StoreKey string         // content address of the result
	Cached   bool           // served from the store without re-analysis
	Record   *report.Record // nil when Err != ""
	Err      string
	Node     string // fleet member that produced the result ("" = this node, pre-cluster)
}

// job is one queued unit of work: a single analysis or a batch.
type job struct {
	id      string
	idemKey string // client-supplied idempotency key ("" = none)
	batch   bool
	async   bool
	items   []core.BatchItem
	opts    core.Options
	// keys are the items' content addresses, computed once (storeKeys).
	keys []string
	// found holds the handler's store lookup of each item (nil = miss),
	// nil when the handler looked nothing up: the worker then needs only
	// a memory-front re-check for the misses.
	found []*report.Record
	// trace is the job's trace ID: adopted from a valid X-Soteria-Trace
	// request header or minted at submission, then stamped on every log
	// line, response header, and journal entry. Written once before the
	// job is published (idempotency claim / queue), never after.
	trace string
	// timings requests the span tree in the job's response records.
	timings bool
	// forwarded marks a request that already crossed a routing hop: it
	// is served locally, never re-routed (the loop guard).
	forwarded bool
	// raw is the validated request body, kept for forwarding a
	// single-analysis job to its ring owner byte-for-byte.
	raw []byte
	// breq is the decoded batch request, kept for splitting a batch
	// into per-owner sub-batches (nil for single analyses).
	breq *batchRequest
	// queuedAt feeds the queue-wait histogram (zero = not queued).
	queuedAt time.Time

	// ready is closed once the verdict is known (verdict, results,
	// elapsed and span set): a synchronous waiter answers then. done is
	// closed once it is committed — records written, terminal entry
	// appended — and status turns terminal with it, so a poll or an
	// idempotent resubmission that reads done means the records are on
	// disk.
	ready, done chan struct{}

	mu      sync.Mutex
	status  jobStatus
	verdict jobStatus
	results []itemResult
	elapsed time.Duration
	// span is the job's completed trace tree (nil until answered).
	span *obs.Span
}

// storeKeys returns the items' content addresses, hashing the sources
// on first use only.
func (j *job) storeKeys() []string {
	if j.keys == nil {
		j.keys = make([]string, len(j.items))
		for i, it := range j.items {
			j.keys[i] = core.AnalysisKey(it.Sources, j.opts)
		}
	}
	return j.keys
}

// answer publishes the job's verdict to its synchronous waiter.
func (j *job) answer(status jobStatus, results []itemResult, elapsed time.Duration, span *obs.Span) {
	j.mu.Lock()
	j.verdict = status
	j.results = results
	j.elapsed = elapsed
	j.span = span
	j.mu.Unlock()
	close(j.ready)
}

// settle marks an answered job committed: its status turns terminal
// for polls and resubmissions.
func (j *job) settle() {
	j.mu.Lock()
	j.status = j.verdict
	j.mu.Unlock()
	close(j.done)
}

// finish answers and settles a job at once: it has nothing to commit.
func (j *job) finish(status jobStatus, results []itemResult, elapsed time.Duration, span *obs.Span) {
	j.answer(status, results, elapsed, span)
	j.settle()
}

func (j *job) setStatus(s jobStatus) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// snapshot returns the job's current state under its lock.
func (j *job) snapshot() (jobStatus, []itemResult, time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.results, j.elapsed
}

// answered returns the verdict a synchronous waiter reports, valid
// once ready is closed.
func (j *job) answered() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.verdict
}

// spanTree returns the job's completed trace tree (nil until terminal).
func (j *job) spanTree() *obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.span
}

// Server is the analysis service. Create one with New, mount
// Handler() on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg    Config
	logger *slog.Logger

	queue    chan *job
	quiesce  sync.RWMutex // submitters hold R; Shutdown holds W to close queue
	draining atomic.Bool
	workers  sync.WaitGroup
	baseCtx  context.Context
	cancel   context.CancelFunc

	queueDepth guard.Gauge
	inflight   guard.Gauge

	jobsDone, jobsFailed, jobsRejected atomic.Int64

	// Cluster-routing counters: requests (or batch groups) forwarded to
	// their ring owner, and owner-unreachable local fallbacks.
	routeForwards, routeFallbacks atomic.Int64

	// journal is the durable job log (nil when Config.JournalPath is
	// empty — every append is then a no-op).
	journal *journal
	// Restart-recovery and idempotency counters for /metrics.
	jobsReplayed, jobsReenqueued, idemHits, journalDupKeys atomic.Int64

	// Latency histograms (log-spaced buckets, atomic): job wall time up
	// to its response, the commit after it, queue wait at worker pickup,
	// per-phase durations, and the explicit engine's per-property check
	// durations. The phase map is built once in New and read-only after,
	// so workers index it without a lock.
	jobLatency    *obs.Histogram
	commitLatency *obs.Histogram
	queueWait     *obs.Histogram
	phaseHist     map[string]*obs.Histogram
	engineHist    *obs.Histogram

	// Memo counters aggregated from job span trees, surfaced on
	// /metrics.
	memoLookups, memoHits, memoSubformulas atomic.Int64
	slowJobs                               atomic.Int64

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder *list.List      // of job IDs, oldest at back
	idem     map[string]*job // idempotency key → accepted job

	started time.Time
}

// phaseNames fixes the label set (and exposition order) of the phase
// histogram family.
var phaseNames = []string{"ir", "statemodel", "kripke", "check.general", "check"}

// testHookJobRunning, when set, is called by workers right after a
// job transitions to running. Tests use it to hold workers in place
// and exercise backpressure and drain deterministically. Atomic so a
// test restoring it cannot race a worker still draining.
var testHookJobRunning atomic.Pointer[func(*job)]

// New creates and starts a Server: its worker pool is live on return.
// With a journal configured, New first replays it — rebuilding the job
// table and idempotency index, truncating any torn tail, compacting
// completed history — and re-enqueues every job that was accepted but
// not yet terminal when the previous process died.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		logger:        cfg.Logger,
		baseCtx:       ctx,
		cancel:        cancel,
		jobs:          map[string]*job{},
		jobOrder:      list.New(),
		idem:          map[string]*job{},
		started:       time.Now(),
		jobLatency:    obs.NewHistogram(obs.DefaultLatencyBounds()),
		commitLatency: obs.NewHistogram(obs.DefaultLatencyBounds()),
		queueWait:     obs.NewHistogram(obs.DefaultLatencyBounds()),
		phaseHist:     map[string]*obs.Histogram{},
		engineHist:    obs.NewHistogram(obs.DefaultLatencyBounds()),
	}
	for _, p := range phaseNames {
		s.phaseHist[p] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}

	queueCap := cfg.QueueDepth
	var requeue []*job
	if cfg.JournalPath != "" {
		jr, events, err := openJournal(cfg.JournalPath, cfg.FS)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = jr
		out := replayEvents(events, s.cfg.Store)
		s.jobsReplayed.Store(int64(len(out.jobs)))
		s.journalDupKeys.Store(int64(out.dupKeys))
		for _, j := range out.jobs { // oldest first, so newest ends in front
			s.registerJob(j)
		}
		for k, j := range out.idem {
			s.idem[k] = j
		}
		requeue = out.requeue
		// Re-enqueued jobs must not consume the fresh process's
		// backpressure budget: grow the queue to hold them all.
		queueCap += len(requeue)
		if err := jr.compact(compactEvents(out)); err != nil {
			cancel()
			return nil, err
		}
		if len(events) > 0 || jr.replay.TruncatedBytes > 0 {
			s.logger.Info("journal replayed",
				"events", len(events), "jobs", len(out.jobs), "reenqueued", len(requeue),
				"dup_keys", out.dupKeys, "truncated_bytes", jr.replay.TruncatedBytes)
		}
	}

	s.queue = make(chan *job, queueCap)
	for _, j := range requeue {
		j.setStatus(statusQueued)
		j.queuedAt = time.Now()
		s.queue <- j
		s.queueDepth.Inc()
	}
	s.jobsReenqueued.Store(int64(len(requeue)))

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayOutcome is the state rebuilt from a journal's events.
type replayOutcome struct {
	jobs    []*job // accepted order, oldest first (rejected ones dropped)
	idem    map[string]*job
	requeue []*job // accepted but not terminal: run them again
	dupKeys int
}

// replayEvents folds journal events into jobs. Terminal results are
// read back from the local store (the node that ran a job wrote its
// record here). A terminal entry that vouches for a stored record the
// store does not hold soundly — a memory-front hit journaled before
// the owning job committed, or a record whose best-effort directory
// sync failed before a crash — does not end its job: the job re-runs
// if its accepted entry still carries the sources. Otherwise a missing
// record leaves the result's store key and status; the verdict bytes
// are re-derivable by resubmission.
func replayEvents(events []journalEvent, st *store.Store) replayOutcome {
	out := replayOutcome{idem: map[string]*job{}}
	byID := map[string]*job{}
	rejected := map[string]bool{}
	for _, ev := range events {
		switch ev.Op {
		case opAccepted:
			if byID[ev.Job] != nil {
				continue // duplicate accepted entry
			}
			if ev.Idem != "" && out.idem[ev.Idem] != nil {
				// A resubmission journaled inside a crash window: the
				// first accepted job answers for the key; running the
				// duplicate would analyze the same content twice.
				out.dupKeys++
				continue
			}
			j := jobFromAccepted(ev)
			byID[ev.Job] = j
			out.jobs = append(out.jobs, j)
			if j.idemKey != "" {
				out.idem[j.idemKey] = j
			}
		case opRejected:
			if j := byID[ev.Job]; j != nil {
				rejected[ev.Job] = true
				if j.idemKey != "" && out.idem[j.idemKey] == j {
					delete(out.idem, j.idemKey)
				}
			}
		case opDone, opFailed:
			j := byID[ev.Job]
			if j == nil {
				// Done-after-crash ordering: the terminal entry landed
				// (or survived compaction) without its accepted entry.
				// Surface the terminal state; there is nothing to re-run.
				j = &job{
					id: ev.Job, idemKey: ev.Idem, batch: ev.Batch, trace: ev.Trace,
					async: true, ready: make(chan struct{}), done: make(chan struct{}),
				}
				byID[ev.Job] = j
				out.jobs = append(out.jobs, j)
				if ev.Idem != "" && out.idem[ev.Idem] == nil {
					out.idem[ev.Idem] = j
				}
			}
			if j.status == statusDone || j.status == statusFailed {
				continue // duplicate terminal entry
			}
			results := make([]itemResult, 0, len(ev.Results))
			lost := false
			for _, r := range ev.Results {
				ir := itemResult{Key: r.Key, StoreKey: r.StoreKey, Cached: r.Cached, Err: r.Err}
				if r.Err == "" && r.StoreKey != "" {
					if rec, ok := st.Get(r.StoreKey); ok {
						ir.Record = rec
					} else if r.Stored && st != nil {
						lost = true
					}
				}
				results = append(results, ir)
			}
			if lost && len(j.items) > 0 {
				continue // left queued: it runs again
			}
			status := statusDone
			if ev.Op == opFailed {
				status = statusFailed
			}
			j.finish(status, results, time.Duration(ev.ElapsedMS)*time.Millisecond, nil)
		}
	}
	kept := out.jobs[:0]
	for _, j := range out.jobs {
		if rejected[j.id] {
			continue
		}
		kept = append(kept, j)
		if j.status == statusQueued && len(j.items) > 0 {
			out.requeue = append(out.requeue, j)
		}
	}
	out.jobs = kept
	return out
}

// compactEvents renders replayed state back to a minimal journal:
// full accepted entries for jobs that still need to run, slim
// accepted+terminal pairs for completed ones (their payloads live in
// the store, not the journal).
func compactEvents(out replayOutcome) []journalEvent {
	var evs []journalEvent
	for _, j := range out.jobs {
		switch j.status {
		case statusDone, statusFailed:
			evs = append(evs,
				journalEvent{Op: opAccepted, Job: j.id, Idem: j.idemKey, Batch: j.batch, Trace: j.trace},
				terminalEvent(j, j.status, j.results, j.elapsed))
		default:
			evs = append(evs, acceptedEvent(j))
		}
	}
	return evs
}

// terminalEvent renders a job's completion for the journal.
func terminalEvent(j *job, status jobStatus, results []itemResult, elapsed time.Duration) journalEvent {
	op := opDone
	if status == statusFailed {
		op = opFailed
	}
	ev := journalEvent{
		Op: op, Job: j.id, Idem: j.idemKey, Batch: j.batch, Trace: j.trace,
		ElapsedMS: elapsed.Milliseconds(),
	}
	for _, r := range results {
		ev.Results = append(ev.Results, journalResult{
			Key: r.Key, StoreKey: r.StoreKey, Cached: r.Cached, Err: r.Err,
			Stored: r.Record != nil && !r.Record.Incomplete,
		})
	}
	return ev
}

// newJobID returns a 16-hex-char random job ID.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// math-free fallback: timestamp-derived, still unique enough
		// for a local job table.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// errQueueFull and errDraining classify rejected submissions.
var (
	errQueueFull = fmt.Errorf("service: job queue is full")
	errDraining  = fmt.Errorf("service: server is draining")
)

// submit enqueues a job, registering it in the job table. It never
// blocks: a full queue or a draining server rejects immediately.
func (s *Server) submit(j *job) error {
	s.quiesce.RLock()
	defer s.quiesce.RUnlock()
	if s.draining.Load() {
		s.jobsRejected.Add(1)
		return errDraining
	}
	// queuedAt must land before the channel send publishes j to a
	// worker.
	j.queuedAt = time.Now()
	select {
	case s.queue <- j:
		s.queueDepth.Inc()
		s.registerJob(j)
		return nil
	default:
		s.jobsRejected.Add(1)
		return errQueueFull
	}
}

// registerJob retains j for /v1/jobs lookups, evicting the oldest
// record — and its idempotency claim — past the bound.
func (s *Server) registerJob(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder.PushFront(j.id)
	for s.jobOrder.Len() > s.cfg.MaxJobRecords {
		oldest := s.jobOrder.Back()
		s.jobOrder.Remove(oldest)
		id := oldest.Value.(string)
		if old := s.jobs[id]; old != nil && old.idemKey != "" && s.idem[old.idemKey] == old {
			delete(s.idem, old.idemKey)
		}
		delete(s.jobs, id)
	}
}

// lookupJob returns the retained job with the given ID.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// claimIdem makes j the holder of an idempotency key, or returns the
// job already holding it. Claims are taken before the accepted entry
// is journaled, so two concurrent resubmissions cannot both run.
func (s *Server) claimIdem(key string, j *job) (existing *job, claimed bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if prev, ok := s.idem[key]; ok {
		return prev, false
	}
	s.idem[key] = j
	return nil, true
}

// releaseIdem withdraws a claim — the submission it covered was
// rejected, so a retry with the same key must be allowed to run.
func (s *Server) releaseIdem(key string, j *job) {
	if key == "" {
		return
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.idem[key] == j {
		delete(s.idem, key)
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.queueDepth.Dec()
		if !j.queuedAt.IsZero() {
			s.queueWait.Observe(time.Since(j.queuedAt))
		}
		s.inflight.Inc()
		s.runJob(j)
		s.inflight.Dec()
	}
}

// runJob executes a job under its deadline. The pipeline's own
// recovery boundaries contain panics and budget exhaustion per item;
// anything that still escapes is a per-item Err, never a dead worker.
//
// Order, and what a crash at each point leaves (DESIGN §4g):
//
//  1. Each complete record is staged in the store's memory front,
//     where Get sees it, so a repeated request is a pure store read.
//  2. The synchronous waiter is answered. A crash from here until step
//     3 lands loses the staged records and the job has no terminal
//     entry: replay runs it again from its fsynced accepted entry and
//     rebuilds the same bytes.
//  3. commit: every record is written with the store's atomic protocol,
//     then the terminal entry is appended without an fsync of its own.
//     A crash that loses the entry re-runs the job (a store hit).
//  4. The job settles: polls, resubmissions and done report terminal,
//     and only now, so a poll that reads done means the records are on
//     disk.
func (s *Server) runJob(j *job) {
	j.setStatus(statusRunning)
	if hook := testHookJobRunning.Load(); hook != nil {
		(*hook)(j)
	}
	// The root span IS the job's wall clock up to its answer: elapsed is
	// read from it, so the timing tree's root duration and the job's
	// elapsed_ms are the same measurement. The commit after the answer
	// has its own span.
	root := obs.NewRoot("job")
	root.Set("trace", j.trace)
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	ctx = obs.WithSpan(ctx, root)

	// The result store is the only cache: a hit serves the stored
	// record as it is; a miss runs the pipeline and stages its record.
	bo := core.BatchOptions{
		Options:  j.opts,
		Parallel: 1, // items of one job run sequentially; jobs are the unit of concurrency
	}
	keys := j.storeKeys()
	out := make([]itemResult, len(j.items))
	var staged []int // items whose records the commit writes
	failed := false
	for i, it := range j.items {
		out[i] = itemResult{Key: it.Key, StoreKey: keys[i]}
		if rec, ok := s.lookup(j, i); ok {
			out[i].Cached, out[i].Record = true, rec
			continue
		}
		r := core.AnalyzeBatch(ctx, bo, it)[0]
		if r.Err != nil {
			out[i].Err = r.Err.Error()
			failed = true
			continue
		}
		out[i].Record = report.FromAnalysis(r.Analysis)
		if !r.Analysis.Incomplete {
			s.cfg.Store.Stage(keys[i], out[i].Record)
			staged = append(staged, i)
		}
	}

	status := statusDone
	if failed && !j.batch {
		// A batch with some failing items is still "done" (per-item
		// errors are in the results); a single analysis that failed is
		// a failed job.
		status = statusFailed
	}
	if status == statusFailed {
		s.jobsFailed.Add(1)
	} else {
		s.jobsDone.Add(1)
	}

	root.Set("status", string(status))
	root.End()
	elapsed := root.Duration()
	// Everything /metrics reports about the job's analysis lands before
	// its answer, so a client that scrapes after reading its result
	// always sees its own job counted.
	s.recordTelemetry(root)
	slow := s.cfg.SlowJobThreshold > 0 && elapsed >= s.cfg.SlowJobThreshold
	if slow {
		s.slowJobs.Add(1)
	}
	j.answer(status, out, elapsed, root)
	s.commit(j, status, out, staged, elapsed)
	j.settle()
	s.logger.Info("job finished",
		"job", j.id, "trace", j.trace, "status", string(status),
		"elapsed_ms", elapsed.Milliseconds(), "items", len(j.items))
	if slow {
		s.logger.Warn("slow job",
			"job", j.id, "trace", j.trace, "elapsed_ms", elapsed.Milliseconds(),
			"threshold_ms", s.cfg.SlowJobThreshold.Milliseconds(),
			"spans", "\n"+root.Render())
	}
}

// lookup finds item i of j in the store. An item the handler already
// looked up costs no second disk read or miss: its hit is reused, and
// its miss is re-checked in the memory front only, where a concurrent
// duplicate stages its record before committing it.
func (s *Server) lookup(j *job, i int) (*report.Record, bool) {
	if j.found == nil {
		return s.cfg.Store.Get(j.keys[i])
	}
	if rec := j.found[i]; rec != nil {
		return rec, true
	}
	return s.cfg.Store.Peek(j.keys[i])
}

// commit makes an answered job's outcome durable, in its own "commit"
// span: each staged record is written to the store (best-effort: a
// failed write degrades reuse, not the job), then the terminal entry is
// appended for the next group commit to sync.
func (s *Server) commit(j *job, status jobStatus, out []itemResult, staged []int, elapsed time.Duration) {
	span := obs.NewRoot("commit")
	for _, i := range staged {
		_ = s.cfg.Store.Put(out[i].StoreKey, out[i].Record)
	}
	if err := s.journal.appendUnsynced(terminalEvent(j, status, out, elapsed)); err != nil {
		s.logger.Error("journal terminal append failed", "job", j.id, "trace", j.trace, "error", err)
	}
	span.End()
	s.commitLatency.Observe(span.Duration())
}

// recordTelemetry folds one completed job's span tree into the
// daemon-wide histograms and memo counters.
func (s *Server) recordTelemetry(root *obs.Span) {
	s.jobLatency.Observe(root.Duration())
	root.Walk(func(_ int, sp *obs.Span) {
		switch sp.Name() {
		case "ir", "statemodel", "kripke", "check.general":
			s.phaseHist[sp.Name()].Observe(sp.Duration())
		case "check":
			s.phaseHist["check"].Observe(sp.Duration())
			addSpanInt(sp, "memo_lookups", &s.memoLookups)
			addSpanInt(sp, "memo_hits", &s.memoHits)
			addSpanInt(sp, "memo_subformulas", &s.memoSubformulas)
		case "property":
			// A property stopped at its own budget check never reached
			// an engine and carries no engine attribute.
			if e, _ := sp.Str("engine"); e == "explicit" {
				s.engineHist.Observe(sp.Duration())
			}
		}
	})
}

func addSpanInt(sp *obs.Span, key string, dst *atomic.Int64) {
	if v, ok := sp.Int(key); ok {
		dst.Add(v)
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the service: new submissions are rejected with 503,
// queued and in-flight jobs run to completion, then the worker pool
// exits. If ctx expires first, the jobs' budgets are canceled so the
// remaining analyses degrade to partial results and finish promptly;
// Shutdown still waits for the workers before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		// Wait out in-flight submitters, then close the queue so idle
		// workers exit once it is drained.
		s.quiesce.Lock()
		close(s.queue)
		s.quiesce.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		if err := s.journal.close(); err != nil {
			s.logger.Error("journal close failed", "error", err)
		}
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		if err := s.journal.close(); err != nil {
			s.logger.Error("journal close failed", "error", err)
		}
		return ctx.Err()
	}
}
