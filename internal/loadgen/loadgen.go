// Package loadgen is the fleet load generator behind cmd/soteria-load:
// it replays an analysis corpus against one or more soteriad nodes and
// measures what an operator would ask about a deployment — latency
// percentiles, throughput, cache-hit rate, per-node queue depth.
//
// Two arrival models are supported, because they answer different
// questions:
//
//   - closed loop: a fixed number of in-flight requesters, each
//     issuing its next request when the previous one completes.
//     Measures capacity — "what does the fleet sustain at concurrency
//     C?" — but hides queueing delay (a slow server slows the
//     arrivals).
//   - open loop: arrivals on a fixed schedule regardless of
//     completions, the model that exposes coordinated omission — "what
//     happens at R requests/second when clients do not politely wait?"
//
// Latency percentiles are exact (computed from every recorded sample,
// never bucketed), and queue depth is sampled from each node's
// /v1/cluster/status while the load runs.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/soteria-analysis/soteria/internal/market"
)

// Item is one replayable request: a pre-encoded POST /v1/analyze body.
type Item struct {
	Key  string // label for error reporting
	Body []byte
}

// MarketItems renders the 65-app market corpus as load items, one
// single-app analysis per app.
func MarketItems() []Item {
	var items []Item
	for _, a := range market.All() {
		body, _ := json.Marshal(map[string]string{"name": a.ID, "source": a.Source})
		items = append(items, Item{Key: a.ID, Body: body})
	}
	return items
}

// SyntheticItems derives n variant apps from the market corpus by
// appending a distinct comment line to each source — every variant
// parses identically but hashes to a fresh analysis key, so synthetic
// load exercises the analyze path, not just the cache.
func SyntheticItems(n int) []Item {
	base := market.All()
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		a := base[i%len(base)]
		name := fmt.Sprintf("%s-v%d", a.ID, i)
		src := fmt.Sprintf("%s\n// synthetic variant %d\n", a.Source, i)
		body, _ := json.Marshal(map[string]string{"name": name, "source": src})
		items = append(items, Item{Key: name, Body: body})
	}
	return items
}

// Config configures one load run.
type Config struct {
	// Targets are the daemon base URLs; requests round-robin over them.
	Targets []string
	// Items is the replay corpus; requests cycle through it.
	Items []Item

	// Concurrency is the closed-loop requester count (ignored when
	// Rate > 0).
	Concurrency int
	// Requests is the closed-loop total request count.
	Requests int

	// Rate, when positive, switches to open-loop arrivals at this many
	// requests/second for Duration.
	Rate     float64
	Duration time.Duration

	// Timeout bounds one request (default 60s).
	Timeout time.Duration
	// HTTPClient overrides the transport (tests).
	HTTPClient *http.Client
	// QueueSample paces queue-depth sampling (default 250ms).
	QueueSample time.Duration
	// Seed shuffles the replay order deterministically (0 = input order).
	Seed int64
}

// QueueStats summarize one node's sampled queue depth during a run.
type QueueStats struct {
	Samples int     `json:"samples"`
	Max     int64   `json:"max"`
	Mean    float64 `json:"mean"`
	// MaxInflight is the peak of the node's inflight-jobs gauge.
	MaxInflight int64 `json:"max_inflight"`
}

// Result is one load run's measurements.
type Result struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	Concurrency int     `json:"concurrency,omitempty"`
	RateRPS     float64 `json:"rate_rps,omitempty"`

	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Rejected  int     `json:"rejected"` // 429 backpressure (subset of Errors)
	CacheHits int     `json:"cache_hits"`
	CacheHit  float64 `json:"cache_hit_rate"`

	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`

	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`

	// QueueDepth maps each target to its sampled queue statistics.
	QueueDepth map[string]QueueStats `json:"queue_depth,omitempty"`

	// FirstError surfaces one representative failure for diagnostics.
	FirstError string `json:"first_error,omitempty"`
}

// collector accumulates per-request outcomes.
type collector struct {
	mu        sync.Mutex
	latencies []time.Duration
	errors    int
	rejected  int
	cacheHits int
	firstErr  string
}

func (c *collector) record(d time.Duration, cached bool, status int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || status >= 400 {
		c.errors++
		if status == http.StatusTooManyRequests {
			c.rejected++
		}
		if c.firstErr == "" {
			if err != nil {
				c.firstErr = err.Error()
			} else {
				c.firstErr = fmt.Sprintf("http %d", status)
			}
		}
		return
	}
	c.latencies = append(c.latencies, d)
	if cached {
		c.cacheHits++
	}
}

// Run executes one load run. It returns an error only for unusable
// configuration; request failures are counted in the Result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if len(cfg.Items) == 0 {
		return nil, fmt.Errorf("loadgen: no items")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.QueueSample <= 0 {
		cfg.QueueSample = 250 * time.Millisecond
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	items := cfg.Items
	if cfg.Seed != 0 {
		items = append([]Item{}, cfg.Items...)
		rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(items), func(i, j int) {
			items[i], items[j] = items[j], items[i]
		})
	}

	col := &collector{}
	res := &Result{}

	// Queue-depth sampler runs for the duration of the load.
	sctx, scancel := context.WithCancel(ctx)
	var samplerWG sync.WaitGroup
	queue := sampleQueues(sctx, &samplerWG, hc, cfg.Targets, cfg.QueueSample)

	start := time.Now()
	var issued int
	if cfg.Rate > 0 {
		res.Mode = "open"
		res.RateRPS = cfg.Rate
		issued = runOpen(ctx, hc, cfg, items, col)
	} else {
		res.Mode = "closed"
		if cfg.Concurrency <= 0 {
			cfg.Concurrency = 1
		}
		if cfg.Requests <= 0 {
			cfg.Requests = len(items)
		}
		res.Concurrency = cfg.Concurrency
		issued = runClosed(ctx, hc, cfg, items, col)
	}
	elapsed := time.Since(start)
	scancel()
	samplerWG.Wait()

	col.mu.Lock()
	defer col.mu.Unlock()
	res.Requests = issued
	res.Errors = col.errors
	res.Rejected = col.rejected
	res.CacheHits = col.cacheHits
	if ok := len(col.latencies); ok > 0 {
		res.CacheHit = float64(col.cacheHits) / float64(ok)
	}
	res.DurationSec = elapsed.Seconds()
	if elapsed > 0 {
		res.ThroughputRPS = float64(len(col.latencies)) / elapsed.Seconds()
	}
	res.P50MS = percentileMS(col.latencies, 50)
	res.P90MS = percentileMS(col.latencies, 90)
	res.P99MS = percentileMS(col.latencies, 99)
	res.MaxMS = percentileMS(col.latencies, 100)
	res.QueueDepth = queue()
	res.FirstError = col.firstErr
	return res, nil
}

// runClosed issues cfg.Requests requests from cfg.Concurrency
// requesters, each starting its next request when the last finished.
func runClosed(ctx context.Context, hc *http.Client, cfg Config, items []Item, col *collector) int {
	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= cfg.Requests || ctx.Err() != nil {
			return 0, false
		}
		n := int(next)
		next++
		return n, true
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, ok := take()
				if !ok {
					return
				}
				doRequest(ctx, hc, cfg, n, items, col)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return int(next)
}

// runOpen issues arrivals at cfg.Rate for cfg.Duration, one goroutine
// per arrival — completions never pace arrivals.
func runOpen(ctx context.Context, hc *http.Client, cfg Config, items []Item, col *collector) int {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	deadline := time.Now().Add(cfg.Duration)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var wg sync.WaitGroup
	n := 0
	for time.Now().Before(deadline) && ctx.Err() == nil {
		select {
		case <-tick.C:
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				doRequest(ctx, hc, cfg, n, items, col)
			}(n)
			n++
		case <-ctx.Done():
		}
	}
	wg.Wait()
	return n
}

// doRequest issues one analyze request round-robin over the targets.
func doRequest(ctx context.Context, hc *http.Client, cfg Config, n int, items []Item, col *collector) {
	item := items[n%len(items)]
	target := cfg.Targets[n%len(cfg.Targets)]
	rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, target+"/v1/analyze", bytes.NewReader(item.Body))
	if err != nil {
		col.record(0, false, 0, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := hc.Do(req)
	lat := time.Since(start)
	if err != nil {
		col.record(lat, false, 0, fmt.Errorf("%s: %w", item.Key, err))
		return
	}
	defer resp.Body.Close()
	var body struct {
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	col.record(lat, body.Cached, resp.StatusCode, nil)
}

// sampleQueues polls every target's /v1/cluster/status until ctx ends;
// the returned closure yields the aggregated stats.
func sampleQueues(ctx context.Context, wg *sync.WaitGroup, hc *http.Client, targets []string, every time.Duration) func() map[string]QueueStats {
	type acc struct {
		samples               int
		sum, max, maxInflight int64
	}
	accs := make([]acc, len(targets))
	var mu sync.Mutex
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t string) {
			defer wg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				rctx, cancel := context.WithTimeout(ctx, every)
				req, err := http.NewRequestWithContext(rctx, http.MethodGet, t+"/v1/cluster/status", nil)
				if err != nil {
					cancel()
					continue
				}
				resp, err := hc.Do(req)
				cancel()
				if err != nil {
					continue
				}
				var st struct {
					QueueDepth int64 `json:"queue_depth"`
					Inflight   int64 `json:"inflight"`
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					continue
				}
				mu.Lock()
				a := &accs[i]
				a.samples++
				a.sum += st.QueueDepth
				if st.QueueDepth > a.max {
					a.max = st.QueueDepth
				}
				if st.Inflight > a.maxInflight {
					a.maxInflight = st.Inflight
				}
				mu.Unlock()
			}
		}(i, t)
	}
	return func() map[string]QueueStats {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]QueueStats, len(targets))
		for i, t := range targets {
			a := accs[i]
			qs := QueueStats{Samples: a.samples, Max: a.max, MaxInflight: a.maxInflight}
			if a.samples > 0 {
				qs.Mean = float64(a.sum) / float64(a.samples)
			}
			out[t] = qs
		}
		return out
	}
}

// percentileMS computes the exact p-th percentile (nearest-rank) of
// the samples, in milliseconds. p=100 is the maximum; no samples is 0.
func percentileMS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration{}, lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}
