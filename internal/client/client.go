// Package client is the resilient Go client for soteriad's HTTP API.
// It layers the retry discipline a crash-safe daemon deserves on the
// caller's side:
//
//   - every logical request carries an idempotency key (auto-generated
//     when the caller supplies none), so retries — including ones that
//     race a daemon restart — never run an analysis twice;
//   - transient failures (network errors, 5xx, 429) retry with
//     exponential backoff, full jitter, and the server's Retry-After
//     hint taken as a floor;
//   - retries are deadline-aware: a backoff that cannot fit before the
//     context's deadline is not slept through, the last error returns
//     immediately instead;
//   - a circuit breaker opens after consecutive transport-level
//     failures (5xx or unreachable), failing fast until a cooldown
//     elapses, then admits one probe (half-open) before closing.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/report"
)

// TraceHeader carries the per-job trace ID. The client mints one at
// submission and sends it on every retry attempt, so all server log
// lines for a retried request share one ID; the server echoes the
// adopted ID back on this header.
const TraceHeader = "X-Soteria-Trace"

// ForwardedHeader marks a request that already crossed one
// cluster-routing hop. A daemon receiving it serves the request
// locally whatever the ring says — the guard that makes a routing
// disagreement between two nodes degrade to one extra hop, never a
// forwarding loop.
const ForwardedHeader = "X-Soteria-Forwarded"

// Config configures a Client. The zero value plus a BaseURL is
// serviceable.
type Config struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7373".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request, first included (default 4).
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (default 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (default 5s).
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (default 5; <0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit fails fast before
	// admitting a half-open probe (default 10s).
	BreakerCooldown time.Duration
	// PollInterval paces Wait's job polling (default 250ms).
	PollInterval time.Duration

	// now and sleep are injectable for deterministic tests.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
	// jitter returns a uniform float64 in [0,1).
	jitter func() float64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if c.jitter == nil {
		c.jitter = mrand.Float64
	}
	return c
}

// ErrCircuitOpen is returned (wrapped) while the breaker fails fast.
var ErrCircuitOpen = errors.New("client: circuit open")

// APIError is a server-side rejection that exhausted its retries (or
// was not retryable at all).
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("soteriad: %d: %s", e.Status, e.Message)
}

// App is one named Groovy source.
type App struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// Options mirrors the service's request options.
type Options struct {
	General     *bool    `json:"general,omitempty"`
	AppSpecific *bool    `json:"app_specific,omitempty"`
	Taint       *bool    `json:"taint,omitempty"`
	Properties  []string `json:"properties,omitempty"`
	TimeoutMS   int64    `json:"timeout_ms,omitempty"`
	MaxStates   int      `json:"max_states,omitempty"`
}

// Job is the wire form of a job's state, shared by submission
// responses and polls.
type Job struct {
	JobID     string         `json:"job_id"`
	Status    string         `json:"status"`
	Poll      string         `json:"poll,omitempty"`
	ElapsedMS int64          `json:"elapsed_ms,omitempty"`
	Key       string         `json:"key,omitempty"`
	Cached    bool           `json:"cached,omitempty"`
	Result    *report.Record `json:"result,omitempty"`
	Error     string         `json:"error,omitempty"`
	Results   []BatchItem    `json:"results,omitempty"`
	// Node is the fleet member that ran the analysis (empty on
	// single-node daemons and locally-served requests).
	Node string `json:"node,omitempty"`

	// Trace is the job's trace ID, taken from the X-Soteria-Trace
	// response header (not the JSON body). Quote it in bug reports: the
	// daemon stamps it on every log line about the job.
	Trace string `json:"-"`
}

// Terminal reports whether the job has finished (well or badly).
func (j *Job) Terminal() bool { return j.Status == "done" || j.Status == "failed" }

// BatchItem is one item's outcome in a batch job.
type BatchItem struct {
	Key    string         `json:"key"`
	Store  string         `json:"store_key"`
	Cached bool           `json:"cached"`
	Result *report.Record `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	Node   string         `json:"node,omitempty"`
}

// breaker is the consecutive-failure circuit breaker.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openedAt  time.Time
	halfOpen  bool
}

// allow reports whether a request may proceed.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold {
		return true
	}
	if now.Sub(b.openedAt) < b.cooldown {
		return false
	}
	// Cooldown over: admit exactly one probe until it reports back.
	if b.halfOpen {
		return false
	}
	b.halfOpen = true
	return true
}

func (b *breaker) record(ok bool, now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.halfOpen = false
	if ok {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.openedAt = now
	}
}

// Client talks to one soteriad instance. Safe for concurrent use.
type Client struct {
	cfg Config
	br  *breaker
}

// New returns a Client for the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: BaseURL required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	return &Client{
		cfg: cfg,
		br:  &breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
	}, nil
}

// newIdemKey mints a random idempotency key.
func newIdemKey() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("ik-%x", time.Now().UnixNano())
	}
	return "ik-" + hex.EncodeToString(b[:])
}

// analyzeBody is the POST /v1/analyze payload.
type analyzeBody struct {
	Apps           []App    `json:"apps,omitempty"`
	Options        *Options `json:"options,omitempty"`
	Async          bool     `json:"async,omitempty"`
	IdempotencyKey string   `json:"idempotency_key,omitempty"`
	Timings        bool     `json:"timings,omitempty"`
}

// AnalyzeRequest submits one analysis (one app or a multi-app union).
type AnalyzeRequest struct {
	Apps    []App
	Options *Options
	Async   bool
	// IdempotencyKey dedupes resubmissions; "" auto-generates one, so
	// retries within this call are always safe.
	IdempotencyKey string
	// Timings asks the daemon to embed the job's span tree (phase and
	// engine timings, trace ID) in the returned records.
	Timings bool
	// Trace pins the job's trace ID ("" mints one). Cluster routing
	// sets it so one analysis keeps one trace ID across hops.
	Trace string
}

// Analyze submits the request, retrying transient failures, and
// returns the resulting job state (terminal for sync requests, a poll
// handle for async ones).
func (c *Client) Analyze(ctx context.Context, req AnalyzeRequest) (*Job, error) {
	key := req.IdempotencyKey
	if key == "" {
		key = newIdemKey()
	}
	body := analyzeBody{Apps: req.Apps, Options: req.Options, Async: req.Async, IdempotencyKey: key, Timings: req.Timings}
	return c.postJob(ctx, "/v1/analyze", body, req.Trace)
}

// batchBody is the POST /v1/batch payload.
type batchBody struct {
	Items          []BatchRequestItem `json:"items"`
	Options        *Options           `json:"options,omitempty"`
	Async          bool               `json:"async,omitempty"`
	IdempotencyKey string             `json:"idempotency_key,omitempty"`
	Timings        bool               `json:"timings,omitempty"`
}

// BatchRequestItem is one unit of a batch submission.
type BatchRequestItem struct {
	Key  string `json:"key,omitempty"`
	Apps []App  `json:"apps"`
}

// BatchRequest submits many analyses as one job.
type BatchRequest struct {
	Items          []BatchRequestItem
	Options        *Options
	Async          bool
	IdempotencyKey string
	Timings        bool
	Trace          string
}

// Batch submits a multi-item job with the same resilience stack as
// Analyze.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*Job, error) {
	key := req.IdempotencyKey
	if key == "" {
		key = newIdemKey()
	}
	body := batchBody{Items: req.Items, Options: req.Options, Async: req.Async, IdempotencyKey: key, Timings: req.Timings}
	return c.postJob(ctx, "/v1/batch", body, req.Trace)
}

// ForwardRaw relays a pre-encoded analyze or batch body to this
// client's daemon with the forwarded-hop marker set, pinning the trace
// ID so the receiving node logs under the originating request's trace.
// Cluster routing uses it to hand a request to the key's owner without
// re-encoding (the body the origin validated is the body the owner
// sees).
func (c *Client) ForwardRaw(ctx context.Context, path string, body []byte, trace string) (*Job, error) {
	var j Job
	tc := &traceCapture{send: trace}
	if err := c.doPayload(ctx, http.MethodPost, path, body, &j, tc, true); err != nil {
		return nil, err
	}
	if j.Trace = tc.received; j.Trace == "" {
		j.Trace = trace
	}
	return &j, nil
}

// Poll fetches a job's current state by ID.
func (c *Client) Poll(ctx context.Context, jobID string) (*Job, error) {
	var j Job
	tc := &traceCapture{}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, &j, tc); err != nil {
		return nil, err
	}
	j.Trace = tc.received
	return &j, nil
}

// Wait polls a job until it reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, jobID string) (*Job, error) {
	for {
		j, err := c.Poll(ctx, jobID)
		if err != nil {
			return nil, err
		}
		if j.Terminal() {
			return j, nil
		}
		if err := c.cfg.sleep(ctx, c.cfg.PollInterval); err != nil {
			return nil, err
		}
	}
}

// Result fetches a stored record by its content address.
func (c *Client) Result(ctx context.Context, key string) (*report.Record, error) {
	var rec report.Record
	if err := c.do(ctx, http.MethodGet, "/v1/results/"+key, nil, &rec, nil); err != nil {
		return nil, err
	}
	return &rec, nil
}

// Healthy reports whether the daemon answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, nil)
}

// traceCapture threads the trace ID through one logical request: send
// goes out on every attempt's X-Soteria-Trace header (unchanged across
// retries, so the server logs one ID for the whole logical request);
// received is the server's adopted ID from the last response.
type traceCapture struct {
	send     string
	received string
}

// postJob submits a job payload and decodes the job response. A sync
// submission that completes returns the terminal job directly; an
// async one returns the accepted (202) state. The client mints the
// job's trace ID here, before the first attempt, unless the caller
// pinned one.
func (c *Client) postJob(ctx context.Context, path string, body any, trace string) (*Job, error) {
	var j Job
	if trace == "" {
		trace = obs.NewTraceID()
	}
	tc := &traceCapture{send: trace}
	if err := c.do(ctx, http.MethodPost, path, body, &j, tc); err != nil {
		return nil, err
	}
	if j.Trace = tc.received; j.Trace == "" {
		j.Trace = tc.send // older daemon without the header
	}
	return &j, nil
}

// retryAfter parses a Retry-After header as a backoff floor: both RFC
// 9110 forms are accepted — delay-seconds ("3") and HTTP-date ("Fri,
// 07 Aug 2026 12:00:05 GMT"), the latter taken relative to now.
// Negative delays and dates already past clamp to zero (retry
// immediately); absent or unparseable values are 0 too.
func retryAfter(resp *http.Response, now time.Time) time.Duration {
	if resp == nil {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	// http.ParseTime covers all three date layouts RFC 9110 admits
	// (IMF-fixdate, RFC 850, ANSI C asctime).
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
		return 0
	}
	return 0
}

// retryable classifies a response status: 429 and all 5xx retry,
// other 4xx are the caller's bug and fail immediately.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// breakerCounts reports whether a status should trip the breaker:
// only server-side trouble (5xx) counts — 429 is healthy backpressure.
func breakerCounts(status int) bool { return status >= 500 }

// do runs one logical request with the full resilience stack and
// decodes a 2xx body into out (when non-nil). tc (optional) sends and
// captures the trace header.
func (c *Client) do(ctx context.Context, method, path string, body, out any, tc *traceCapture) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.doPayload(ctx, method, path, payload, out, tc, false)
}

// doPayload is do with a pre-encoded body and the forwarded-hop flag.
func (c *Client) doPayload(ctx context.Context, method, path string, payload []byte, out any, tc *traceCapture, forwarded bool) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt, lastErr); err != nil {
				return err
			}
		}
		if !c.br.allow(c.cfg.now()) {
			return fmt.Errorf("%w (cooling down after consecutive failures)", ErrCircuitOpen)
		}
		status, retriable, err := c.once(ctx, method, path, payload, out, tc, forwarded)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		c.brRecord(status)
		if !retriable {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// brRecord feeds one outcome to the breaker. status 0 means the
// request never got an HTTP response (network failure) — that counts.
func (c *Client) brRecord(status int) {
	c.br.record(status != 0 && !breakerCounts(status), c.cfg.now())
}

// once performs a single HTTP attempt. It returns the response status
// (0 for transport errors), whether the failure is retryable, and the
// error. retryErr carries the Retry-After floor to the backoff.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any, tc *traceCapture, forwarded bool) (int, bool, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return 0, false, fmt.Errorf("client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc != nil && tc.send != "" {
		req.Header.Set(TraceHeader, tc.send)
	}
	if forwarded {
		req.Header.Set(ForwardedHeader, "1")
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, true, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if tc != nil {
		if t := resp.Header.Get(TraceHeader); t != "" {
			tc.received = t
		}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, true, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode >= 400 {
		msg := strings.TrimSpace(string(data))
		var decoded struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &decoded) == nil && decoded.Error != "" {
			msg = decoded.Error
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: msg}
		if retryable(resp.StatusCode) {
			return resp.StatusCode, true, &retryErr{err: apiErr, after: retryAfter(resp, c.cfg.now())}
		}
		return resp.StatusCode, false, apiErr
	}
	c.brRecord(resp.StatusCode) // success closes the breaker
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, false, fmt.Errorf("client: decoding response: %w", err)
		}
	}
	return resp.StatusCode, false, nil
}

// retryErr wraps a retryable failure with its server-suggested floor.
type retryErr struct {
	err   error
	after time.Duration
}

func (e *retryErr) Error() string { return e.err.Error() }
func (e *retryErr) Unwrap() error { return e.err }

// backoff sleeps the exponential-with-full-jitter delay before attempt
// n (1-based), floored at the server's Retry-After hint. It refuses to
// sleep past the context's deadline: the last error surfaces now
// rather than after a doomed wait.
func (c *Client) backoff(ctx context.Context, attempt int, lastErr error) error {
	ceil := float64(c.cfg.BaseBackoff) * math.Pow(2, float64(attempt-1))
	if m := float64(c.cfg.MaxBackoff); ceil > m {
		ceil = m
	}
	d := time.Duration(ceil * c.cfg.jitter())
	var re *retryErr
	if errors.As(lastErr, &re) && re.after > d {
		d = re.after
	}
	if dl, ok := ctx.Deadline(); ok && c.cfg.now().Add(d).After(dl) {
		return fmt.Errorf("client: deadline too close for %s backoff: %w", d.Round(time.Millisecond), lastErr)
	}
	return c.cfg.sleep(ctx, d)
}
