package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// serveWorkload returns the run function of a serve workload: a
// soteriad with -store and -journal in the run's work directory, under
// open-loop Poisson arrivals at rate requests per second. A cold
// workload sends a distinct variant of a corpus app in every request,
// so each one takes the write path (journal, queue, analysis, store
// commit); a warm one primes the daemon with one variant of each
// corpus app and replays those, so each request takes the read path.
func serveWorkload(warm bool, rate float64) func(context.Context, config, *reference) (*outcome, error) {
	return func(ctx context.Context, cfg config, ref *reference) (*outcome, error) {
		corpus, err := ref.corpusItems()
		if err != nil {
			return nil, err
		}
		return runServe(ctx, cfg, shuffled(corpus, cfg.seed), warm, rate*cfg.rateScale)
	}
}

// arrival is one request of a run: when it is due, measured from the
// start of the run, and its pre-encoded body.
type arrival struct {
	due  time.Duration
	body []byte
	id   string   // the corpus app the body is a variant of
	want []string // its frozen violated IDs
}

// requestBody encodes a POST /v1/analyze body for a variant of it.
func requestBody(it item, nonce string) []byte {
	src := it.variant(nonce)[0]
	body, _ := json.Marshal(struct {
		Name   string `json:"name"`
		Source string `json:"source"`
	}{src.Name, src.Source}) // two strings always encode
	return body
}

// schedule draws a run's arrivals: n = rate × secs requests at times
// drawn uniformly over the run and sorted, which is a Poisson process
// conditioned on n arrivals. Request k is a variant of corpus[k % 65]:
// a fresh one per request when cold, one per app when warm.
func schedule(corpus []item, seed int64, rate, secs float64, warm bool) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(math.Round(rate*secs)))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * secs * float64(time.Second))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	primed := make([][]byte, len(corpus))
	if warm {
		for i, it := range corpus {
			primed[i] = requestBody(it, fmt.Sprintf("seed %d", seed))
		}
	}
	arr := make([]arrival, n)
	for k := range arr {
		it := corpus[k%len(corpus)]
		body := primed[k%len(corpus)]
		if !warm {
			body = requestBody(it, fmt.Sprintf("seed %d request %d", seed, k))
		}
		arr[k] = arrival{due: dues[k], body: body, id: it.id, want: it.want}
	}
	return arr
}

// runServe sets up (daemon exec until /healthz answers, then one
// discarded warm-up pass when cold or the priming pass when warm),
// then drives the open loop for cfg.seconds.
func runServe(ctx context.Context, cfg config, corpus []item, warm bool, rate float64) (*outcome, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var d *daemon
	var hc *http.Client
	var arr []arrival
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for r := 0; r < reps; r++ {
		if d != nil {
			hc.CloseIdleConnections()
			d.stop()
			d = nil
		}
		t0 := time.Now()
		arr = schedule(corpus, cfg.seed, rate, cfg.seconds, warm)
		var err error
		if d, err = startDaemon(ctx, cfg, r); err != nil {
			return nil, err
		}
		hc = newClient(cfg.conns)
		pass := arr[:min(len(corpus), len(arr))]
		if !warm {
			pass = nil
			for i, it := range corpus {
				pass = append(pass, arrival{body: requestBody(it, fmt.Sprintf("seed %d warm-up %d item %d", cfg.seed, r, i)), id: it.id, want: it.want})
			}
		}
		if err := closedPass(ctx, hc, d.url, pass, cfg.conns); err != nil {
			return nil, fmt.Errorf("set-up pass: %w\n%s", err, d.logTail())
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var before map[string]float64
	var err error
	if cfg.trace {
		if before, err = scrape(ctx, hc, d.url); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	recs, elapsed := openLoop(ctx, hc, d.url, arr, cfg.conns, cfg.trace, len(corpus))
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var after map[string]float64
	if cfg.trace {
		if after, err = scrape(ctx, hc, d.url); err != nil {
			return nil, err
		}
	}
	hc.CloseIdleConnections()
	ru := d.stop()
	d = nil

	o := &outcome{attempted: len(recs)}
	var lat []float64
	for i := range recs {
		r := &recs[i]
		if errors.Is(r.err, errMismatch) {
			o.mismatched++
		}
		if r.err != nil {
			if o.failed == 0 {
				fmt.Fprintf(os.Stderr, "bench: first failed request: %v\n", r.err)
			}
			o.failed++
			continue
		}
		lat = append(lat, ms(r.done-r.due))
	}
	ok := float64(len(lat))
	if cfg.trace {
		o.values, err = serveMetrics(cfg, recs, before, after)
		o.values["item.p90_ms"] = percentile(lat, 90)
		o.values["item.p99_ms"] = percentile(lat, 99)
		o.spans = requestSpans(recs)
		return o, err
	}
	o.values = map[string]float64{
		"setup_s":         median(setups),
		"items_per_s":     ok / elapsed.Seconds(),
		"p50_ms":          percentile(lat, 50),
		"cpu_ms_per_item": ms(cpu1-cpu0) / ok,
		"peak_rss_mb":     float64(ru.Maxrss) / 1024,
	}
	return o, nil
}

// daemon is one soteriad process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// startDaemon starts soteriad on a free loopback port with its store,
// journal and log in a fresh directory under cfg.work, and waits until
// /healthz answers.
func startDaemon(ctx context.Context, cfg config, rep int) (*daemon, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), rep)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "soteriad.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.soteriad, "-addr", addr,
		"-store", filepath.Join(dir, "store"), "-journal", filepath.Join(dir, "journal"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the daemon if the benchmark dies without
	// stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting soteriad: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, dir: dir, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status after SIGTERM carries nothing
		close(d.done)
	}()

	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("soteriad exited while starting\n%s", d.stopLog())
		default:
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			tail := d.logTail()
			d.stop()
			return nil, fmt.Errorf("soteriad did not become healthy: %v\n%s", ctx.Err(), tail)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the daemon to drain and exit (killing
// it after 10 s), removes its directory, and returns its resource
// usage; Maxrss is its peak resident set in KiB.
func (d *daemon) stop() *syscall.Rusage {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.stopLog()
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		ru = &syscall.Rusage{}
	}
	return ru
}

// stopLog closes the log, removes the daemon's directory, and returns
// the log's last lines.
func (d *daemon) stopLog() string {
	tail := d.logTail()
	d.log.Close()
	os.RemoveAll(d.dir)
	return tail
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log.Name()) // best effort: the tail only decorates an error
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	return "soteriad log tail:\n" + strings.Join(lines[max(0, len(lines)-10):], "\n")
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newClient is the load generator's client: keep-alive connections,
// at most conns of them, and a 10 s limit per request.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// reqRecord is one request's timeline, measured from the start of the
// open loop, and its outcome.
type reqRecord struct {
	due        time.Duration // when the schedule says it is sent
	dispatched time.Duration // when the dispatcher handed it to a sender
	gotConn    time.Duration // traced runs: when it had a connection
	firstByte  time.Duration // traced runs: when the response began
	done       time.Duration // when the response body was read
	cached     bool
	err        error
	raw        []byte // traced runs: response bodies kept for store timing
}

// closedPass sends every arrival's body once from conns callers and
// fails on the first bad response.
func closedPass(ctx context.Context, hc *http.Client, url string, pass []arrival, conns int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(pass) {
					return
				}
				var rec reqRecord
				post(ctx, hc, url, pass[i], &rec, start, false)
				if rec.err != nil {
					errs <- rec.err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return ctx.Err()
}

// openLoop sends each arrival when it is due, whatever the daemon's
// progress. A dispatcher hands due requests to conns senders, each
// with its own keep-alive connection; a request due while every sender
// is busy waits for one, and its latency counts from when it was due.
// A traced run keeps the response bodies of the first keep requests.
func openLoop(ctx context.Context, hc *http.Client, url string, arr []arrival, conns int, traced bool, keep int) ([]reqRecord, time.Duration) {
	recs := make([]reqRecord, len(arr))
	// Sized to every arrival, so the dispatcher never waits on a sender.
	queue := make(chan int, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				post(ctx, hc, url, arr[i], &recs[i], start, traced)
				if i >= keep {
					recs[i].raw = nil
				}
			}
		}()
	}
	for i := range arr {
		if ctx.Err() != nil {
			break
		}
		sleepUntil(start.Add(arr[i].due))
		recs[i].due = arr[i].due
		recs[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs, time.Since(start)
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer wakes a sleeper at millisecond granularity when the process is
// idle, which would make every request of the open loop late by up to
// a millisecond; nanosleep wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// analyzeResponse is the part of a POST /v1/analyze response the
// benchmark checks.
type analyzeResponse struct {
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Result *struct {
		Incomplete bool `json:"incomplete"`
		Violations []struct {
			ID string `json:"id"`
		} `json:"violations"`
	} `json:"result"`
}

// post sends one request and records its timeline and outcome in rec.
// Latency ends when the body has been read; decoding and the verdict
// check come after.
func post(ctx context.Context, hc *http.Client, url string, a arrival, rec *reqRecord, start time.Time, traced bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/analyze", bytes.NewReader(a.body))
	if err != nil {
		rec.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { rec.gotConn = time.Since(start) },
			GotFirstResponseByte: func() { rec.firstByte = time.Since(start) },
		}))
	}
	resp, err := hc.Do(req)
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", a.id, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = time.Since(start)
	if err != nil {
		rec.err = fmt.Errorf("%s: reading response: %w", a.id, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("%s: HTTP %d: %s", a.id, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var r analyzeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		rec.err = fmt.Errorf("%s: decoding response: %w", a.id, err)
		return
	}
	if r.Result == nil || r.Result.Incomplete {
		rec.err = fmt.Errorf("%s: no complete result (error %q)", a.id, r.Error)
		return
	}
	var got []string
	for _, v := range r.Result.Violations {
		got = append(got, v.ID)
	}
	if rec.err = verdictErr(a.id, got, a.want); rec.err != nil {
		return
	}
	rec.cached = r.Cached
	if traced {
		rec.raw = body
	}
}

// scrape reads soteriad's /metrics into a map keyed by the sample's
// name and labels, e.g. `soteriad_phase_seconds_sum{phase="ir"}`.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serveMetrics derives the per-layer metrics of a traced serve run
// from the request timelines, the /metrics deltas over the run, and
// timed store and report operations on the run's records.
func serveMetrics(cfg config, recs []reqRecord, before, after map[string]float64) (map[string]float64, error) {
	delta := func(k string) float64 { return after[k] - before[k] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var rtt, late, connWait []float64
	var ok, cached float64
	for _, r := range recs {
		late = append(late, ms(r.dispatched-r.due))
		if r.err != nil {
			continue
		}
		ok++
		if r.cached {
			cached++
		}
		rtt = append(rtt, ms(r.done-r.gotConn))
		connWait = append(connWait, ms(r.gotConn-r.dispatched))
	}
	job := 1e3 * ratio(delta("soteriad_job_seconds_sum"), delta("soteriad_job_seconds_count"))
	phase := func(names ...string) float64 {
		var sum float64
		for _, n := range names {
			sum += delta(`soteriad_phase_seconds_sum{phase="` + n + `"}`)
		}
		return 1e3 * ratio(sum, delta(`soteriad_phase_seconds_count{phase="`+names[len(names)-1]+`"}`))
	}
	v := map[string]float64{
		"service.rtt_ms_mean":              mean(rtt),
		"service.job_ms_mean":              job,
		"service.queue_wait_ms_mean":       1e3 * ratio(delta("soteriad_queue_wait_seconds_sum"), delta("soteriad_queue_wait_seconds_count")),
		"service.outside_job_ms":           mean(rtt) - job,
		"service.phase.ir_ms_mean":         phase("ir"),
		"service.phase.statemodel_ms_mean": phase("statemodel"),
		"service.phase.kripke_ms_mean":     phase("kripke"),
		"service.phase.check_ms_mean":      phase("check.general", "check"),
		"journal.syncs_per_req":            ratio(delta("soteriad_journal_syncs_total"), ok),
		"journal.appends_per_req":          ratio(delta("soteriad_journal_appends_total"), ok),
		"store.puts_per_req":               ratio(delta("soteriad_store_puts_total"), ok),
		"cache.hit_share":                  ratio(cached, ok),
		"store.disk_hit_share":             ratio(delta("soteriad_store_disk_hits_total"), delta("soteriad_store_hits_total")),
		"loadgen.late_ms_p99":              percentile(late, 99),
		"loadgen.conn_wait_ms_p99":         percentile(connWait, 99),
	}
	err := timeRecords(cfg, recs, v)
	return v, err
}

// timeRecords times report encoding and decoding, and store puts and
// gets, over the records the run received. The store is a scratch one
// on the daemon's filesystem; gets go through a second handle on it, so
// they read the disk rather than the first handle's memory front.
func timeRecords(cfg config, recs []reqRecord, v map[string]float64) error {
	type keyed struct {
		key string
		rec *report.Record
	}
	var records []keyed
	for _, r := range recs {
		if r.raw == nil {
			continue
		}
		var resp struct {
			Key    string         `json:"key"`
			Result *report.Record `json:"result"`
		}
		if err := json.Unmarshal(r.raw, &resp); err != nil || resp.Result == nil {
			return fmt.Errorf("re-decoding a response record: %v", err)
		}
		records = append(records, keyed{resp.Key, resp.Result})
	}
	if len(records) == 0 {
		return fmt.Errorf("no successful responses to time records on")
	}
	var enc, dec []float64
	for rep := 0; rep < 20; rep++ {
		for _, k := range records {
			t0 := time.Now()
			data, err := report.Encode(k.rec)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if _, err := report.Decode(data); err != nil {
				return err
			}
			enc = append(enc, float64(t1.Sub(t0))/1e3)
			dec = append(dec, float64(time.Since(t1))/1e3)
		}
	}
	v["report.encode_us_p50"] = median(enc)
	v["report.decode_us_p50"] = median(dec)

	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-scratch-store", cfg.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{NoRecoveryScan: true})
	if err != nil {
		return err
	}
	var put, get []float64
	for _, k := range records {
		t0 := time.Now()
		if err := st.Put(k.key, k.rec); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t0)))
	}
	cold, err := store.Open(dir, store.Options{NoRecoveryScan: true})
	if err != nil {
		return err
	}
	for _, k := range records {
		t0 := time.Now()
		if _, ok := cold.Get(k.key); !ok {
			return fmt.Errorf("scratch store lost record %s", k.key)
		}
		get = append(get, ms(time.Since(t0)))
	}
	v["store.put_ms_p50"] = median(put)
	v["store.get_ms_p50"] = median(get)
	return nil
}

// requestSpans renders each request's timeline as a root span and the
// four children that tile it: late (due to dispatch), conn_wait
// (dispatch to connection), server (connection to first response
// byte: the request write, soteriad, and the loopback hops) and read.
func requestSpans(recs []reqRecord) []span {
	var out []span
	var id int64
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for k, r := range recs {
		if r.err != nil {
			continue
		}
		item := fmt.Sprintf("request#%d", k)
		id++
		root := id
		out = append(out, span{Item: item, ID: root, Name: "request", StartUS: us(r.due), DurUS: us(r.done - r.due)})
		for _, c := range []struct {
			name     string
			from, to time.Duration
		}{
			{"late", r.due, r.dispatched},
			{"conn_wait", r.dispatched, r.gotConn},
			{"server", r.gotConn, r.firstByte},
			{"read", r.firstByte, r.done},
		} {
			id++
			out = append(out, span{Item: item, ID: id, Parent: root, Name: c.name, StartUS: us(c.from), DurUS: us(c.to - c.from)})
		}
	}
	return out
}
