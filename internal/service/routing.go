package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/soteria-analysis/soteria/internal/client"
	"github.com/soteria-analysis/soteria/internal/cluster"
)

// ForwardedHeader marks a request that already crossed one routing hop
// (mirrors client.ForwardedHeader). A request carrying it is served
// locally whatever the ring says: if two nodes ever disagreed about a
// key's owner, the disagreement costs one extra hop, never a loop.
const ForwardedHeader = "X-Soteria-Forwarded"

// maybeRoute applies cluster routing to a parsed job. It returns true
// when it fully handled the response (forwarded and/or federated);
// false sends the job down the normal local path — because routing is
// off, every key is self-owned, the request already crossed a hop, or
// the single owner was unreachable (degrade to local, don't fail).
//
// Async jobs always run locally: the poll handle in the 202 response
// names this node's job table, so the job must live here, and so does
// its record. A later sync request for the same key sent to another
// node is forwarded to the owner, which analyzes it once itself.
func (s *Server) maybeRoute(w http.ResponseWriter, r *http.Request, j *job) bool {
	cl := s.cfg.Cluster
	if cl == nil || j.forwarded || j.async {
		return false
	}
	owners := make([]string, len(j.items))
	allLocal := true
	for i, key := range j.storeKeys() {
		owners[i] = cl.Owner(key)
		if owners[i] != cl.Self() {
			allLocal = false
		}
	}
	if allLocal {
		return false
	}
	if !j.batch {
		return s.routeSingle(w, r, j, owners[0])
	}
	return s.routeBatch(w, r, j, owners)
}

// routeSingle forwards a whole single-analysis request to its owner —
// the raw validated body, so the owner sees exactly the bytes this
// node accepted. An unreachable owner falls back to the local path.
func (s *Server) routeSingle(w http.ResponseWriter, r *http.Request, j *job, owner string) bool {
	cl := s.cfg.Cluster
	jr, err := cl.Forward(r.Context(), owner, "/v1/analyze", j.raw, j.trace)
	if err != nil {
		s.routeFallbacks.Add(1)
		cl.NoteFallback(owner)
		s.logger.Warn("forward failed, serving locally",
			"owner", owner, "trace", j.trace, "error", err)
		return false
	}
	s.routeForwards.Add(1)
	status := statusDone
	if jr.Status == string(statusFailed) {
		status = statusFailed
	}
	res := itemResult{
		Key: j.items[0].Key, StoreKey: jr.Key, Cached: jr.Cached,
		Record: jr.Result, Err: jr.Error, Node: owner,
	}
	s.finishRouted(j, status, []itemResult{res}, time.Duration(jr.ElapsedMS)*time.Millisecond)
	code := http.StatusOK
	if status == statusFailed {
		code = http.StatusUnprocessableEntity
	}
	respondJob(w, code, j, status)
	return true
}

// routeBatch splits a batch by owner, forwards each remote group to
// its owner concurrently, runs the local group (plus any group whose
// owner was unreachable) through the normal queue, and federates the
// per-item results back into one response in the original item order,
// each item attributed to the node that produced it.
func (s *Server) routeBatch(w http.ResponseWriter, r *http.Request, j *job, owners []string) bool {
	cl := s.cfg.Cluster
	start := time.Now()
	groups := map[string][]int{}
	for i, o := range owners {
		groups[o] = append(groups[o], i)
	}

	// results is written at disjoint indices by the group goroutines;
	// localIdx collects the groups that must run here.
	results := make([]itemResult, len(j.items))
	var mu sync.Mutex
	localIdx := append([]int{}, groups[cl.Self()]...)
	var wg sync.WaitGroup
	for owner, idx := range groups {
		if owner == cl.Self() {
			continue
		}
		wg.Add(1)
		go func(owner string, idx []int) {
			defer wg.Done()
			body, err := s.subBatchBody(j, owner, idx)
			if err == nil {
				var jr *client.Job
				if jr, err = cl.Forward(r.Context(), owner, "/v1/batch", body, j.trace); err == nil {
					s.routeForwards.Add(1)
					adoptBatchResults(j, owner, idx, jr, results)
					return
				}
			}
			s.routeFallbacks.Add(1)
			cl.NoteFallback(owner)
			s.logger.Warn("batch forward failed, running items locally",
				"owner", owner, "items", len(idx), "trace", j.trace, "error", err)
			mu.Lock()
			localIdx = append(localIdx, idx...)
			mu.Unlock()
		}(owner, idx)
	}
	wg.Wait()
	if len(localIdx) > 0 {
		sort.Ints(localIdx)
		s.runLocalSub(j, localIdx, results)
	}
	s.finishRouted(j, statusDone, results, time.Since(start))
	respondJob(w, http.StatusOK, j, statusDone)
	return true
}

// subBatchBody renders the sub-batch this node forwards to owner. Item
// keys are pinned to their resolved values (including the "item-N"
// defaults), so the owner's results federate back by key; the
// idempotency key is derived per owner so a client retry dedupes each
// sub-batch against its own first run.
func (s *Server) subBatchBody(j *job, owner string, idx []int) ([]byte, error) {
	req := batchRequest{Options: j.breq.Options, Timings: j.breq.Timings}
	for _, i := range idx {
		it := j.breq.Items[i]
		it.Key = j.items[i].Key
		req.Items = append(req.Items, it)
	}
	if j.idemKey != "" {
		req.IdempotencyKey = derivedIdemKey(j.idemKey, owner)
	}
	return json.Marshal(req)
}

// derivedIdemKey scopes an idempotency key to one owner's sub-batch,
// staying within the key grammar (visible ASCII, <= 128 bytes).
func derivedIdemKey(key, owner string) string {
	sum := sha256.Sum256([]byte(owner))
	suffix := "@" + hex.EncodeToString(sum[:4])
	if len(key)+len(suffix) <= 128 {
		return key + suffix
	}
	whole := sha256.Sum256([]byte(key + "\x00" + owner))
	return "fed-" + hex.EncodeToString(whole[:16])
}

// adoptBatchResults maps one owner's sub-batch response back onto the
// parent batch's item slots.
func adoptBatchResults(j *job, owner string, idx []int, jr *client.Job, results []itemResult) {
	byKey := make(map[string]client.BatchItem, len(jr.Results))
	for _, it := range jr.Results {
		byKey[it.Key] = it
	}
	for _, i := range idx {
		it, ok := byKey[j.items[i].Key]
		if !ok {
			results[i] = itemResult{Key: j.items[i].Key, Node: owner, Err: "owner returned no result for item"}
			continue
		}
		results[i] = itemResult{
			Key: it.Key, StoreKey: it.Store, Cached: it.Cached,
			Record: it.Result, Err: it.Error, Node: owner,
		}
	}
}

// runLocalSub runs a subset of a federated batch through this node's
// normal path — store fast path, journal, queue — writing the outcomes
// into the parent's result slots. Failures degrade to per-item errors:
// a federated batch answers for every item, well or badly.
func (s *Server) runLocalSub(j *job, idx []int, results []itemResult) {
	self := s.cfg.Cluster.Self()
	sub := &job{
		id:    newJobID(),
		batch: true,
		opts:  j.opts,
		trace: j.trace,
		ready: make(chan struct{}),
		done:  make(chan struct{}),
	}
	keys := j.storeKeys()
	for _, i := range idx {
		sub.items = append(sub.items, j.items[i])
		sub.keys = append(sub.keys, keys[i])
	}
	fail := func(msg string) {
		for _, i := range idx {
			results[i] = itemResult{Key: j.items[i].Key, Node: self, Err: msg}
		}
	}
	if !s.finishFromStore(sub) {
		if err := s.journal.append(acceptedEvent(sub)); err != nil {
			s.logger.Error("journal accepted append failed", "job", sub.id, "trace", sub.trace, "error", err)
			fail("job journal write failed")
			return
		}
		if err := s.submit(sub); err != nil {
			if jerr := s.journal.append(journalEvent{Op: opRejected, Job: sub.id}); jerr != nil {
				s.logger.Error("journal rejected append failed", "job", sub.id, "trace", sub.trace, "error", jerr)
			}
			fail(err.Error())
			return
		}
		<-sub.ready
	}
	_, subResults, _ := sub.snapshot()
	for n, i := range idx {
		r := subResults[n]
		r.Key = j.items[i].Key
		r.Node = self
		results[i] = r
	}
}

// finishRouted publishes a routed/federated job's terminal state. The
// job is registered for /v1/jobs but not journaled: each owner
// journals the work it ran, and replaying a pure routing decision
// would re-forward work the owners already hold in their stores.
func (s *Server) finishRouted(j *job, status jobStatus, results []itemResult, elapsed time.Duration) {
	if status == statusFailed {
		s.jobsFailed.Add(1)
	} else {
		s.jobsDone.Add(1)
	}
	// Forwarded hops embed their own timing trees in the records they
	// return; there is no meaningful single span tree for a federated
	// job, so the origin never overlays one.
	j.timings = false
	j.finish(status, results, elapsed, nil)
	s.registerJob(j)
	s.logger.Info("job federated",
		"job", j.id, "trace", j.trace, "status", string(status),
		"elapsed_ms", elapsed.Milliseconds(), "items", len(results))
}

// clusterStatusResponse is GET /v1/cluster/status: the routing view
// (ring membership, ownership shares, per-peer counters) plus this
// node's live load. A single-node daemon serves it too — the load
// harness reads one schema whatever the fleet size.
type clusterStatusResponse struct {
	cluster.Status
	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	resp := clusterStatusResponse{
		QueueDepth: s.queueDepth.Value(),
		Inflight:   s.inflight.Value(),
	}
	if cl := s.cfg.Cluster; cl != nil {
		resp.Status = cl.Status()
	} else {
		resp.Status = cluster.Status{Members: 1}
	}
	writeJSON(w, http.StatusOK, resp)
}
