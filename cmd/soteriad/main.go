// Command soteriad runs the Soteria analyzer as a long-lived service:
// an HTTP JSON API backed by a bounded job queue, per-job resource
// budgets, and a persistent content-addressed result store.
//
// Usage:
//
//	soteriad [flags]
//
// Flags:
//
//	-addr A         listen address (default :8380)
//	-store DIR      result store directory, the only result cache
//	                ("" analyzes every job and reuses nothing)
//	-journal PATH   durable job journal ("" disables crash recovery)
//	-peers LIST     comma-separated fleet member URLs, self included
//	                ("" runs single-node)
//	-node URL       this node's advertised base URL (required with -peers)
//	-vnodes N       consistent-hash virtual nodes per member (default 128)
//	-workers N      concurrent analysis workers (default GOMAXPROCS)
//	-queue N        queued-job bound before 429 backpressure (default 64)
//	-job-timeout D  wall-clock ceiling per job (default 60s)
//	-max-states N   per-job state-model cap (0 = unlimited)
//	-max-body N     request body cap in bytes (default 8 MiB)
//	-drain-timeout D grace period for in-flight jobs on SIGTERM (default 30s)
//	-slow-job D     log the full span tree of jobs at or over D (0 disables)
//	-pprof A        serve net/http/pprof on a separate listener ("" disables)
//	-log-json       emit JSON log lines instead of text
//
// With -journal, every accepted job is fsynced into an append-only
// journal before the client sees its acknowledgment; on restart the
// journal is replayed, incomplete jobs re-enqueue under their original
// IDs, and client idempotency keys dedupe resubmissions — so a crash
// (SIGKILL, OOM, power cut) never loses an acknowledged job.
//
// Logs are structured (log/slog); every line about a job carries the
// job ID and its trace ID (also returned to clients in the
// X-Soteria-Trace response header), so a client-reported trace can be
// grepped straight to the server-side timeline.
//
// -pprof binds the Go runtime profiler (CPU, heap, goroutine, block)
// to its own listener, kept off the API address so profiling exposure
// is an explicit, separately firewallable choice.
//
// Setting SOTERIAD_CHAOS_FS=1 in the environment fragments and delays
// store/journal writes to widen crash windows; it exists for the
// kill-restart test harness, never for production.
//
// With -peers, N soteriad processes form one fleet: a consistent-hash
// ring over analysis keys assigns each key an owning node, and sync
// requests route to their owner (federating batch results across
// nodes). Each node's result store is local: a record lives on the
// node that analyzed it. Every node must be started with the same
// -peers list; membership is static, and an unreachable owner
// degrades to local analysis rather than failing the request.
//
// Endpoints: POST /v1/analyze, POST /v1/batch, GET /v1/jobs/{id},
// GET /v1/results/{hash} (this node's store only), GET
// /v1/cluster/status, GET /healthz, GET /metrics. On SIGTERM or
// SIGINT the daemon stops accepting work, drains queued and in-flight
// jobs (up to -drain-timeout, after which their budgets are canceled
// and they finish as partial results), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/soteria-analysis/soteria"
)

func main() {
	var (
		addr         = flag.String("addr", ":8380", "listen address")
		storeDir     = flag.String("store", "soteriad-store", "result store directory, the only result cache (empty analyzes every job and reuses nothing)")
		journalPath  = flag.String("journal", "", "durable job journal path (empty disables crash recovery)")
		workers      = flag.Int("workers", 0, "concurrent analysis workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "queued-job bound before 429 backpressure")
		jobTimeout   = flag.Duration("job-timeout", 60*time.Second, "wall-clock ceiling per job")
		maxStates    = flag.Int("max-states", 0, "per-job state-model cap (0 = unlimited)")
		maxBody      = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		slowJob      = flag.Duration("slow-job", 0, "log the span tree of jobs at or over this wall time (0 disables)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty disables)")
		logJSON      = flag.Bool("log-json", false, "emit JSON log lines instead of text")
		peers        = flag.String("peers", "", "comma-separated fleet member URLs, self included (empty = single node)")
		nodeURL      = flag.String("node", "", "this node's advertised base URL (required with -peers)")
		vnodes       = flag.Int("vnodes", 0, "consistent-hash virtual nodes per member (0 = 128)")
	)
	flag.Parse()
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	chaosFS := os.Getenv("SOTERIAD_CHAOS_FS") != ""
	if chaosFS {
		logger.Warn("SOTERIAD_CHAOS_FS set: store/journal writes fragmented and delayed (test harness mode)")
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *nodeURL == "" {
			logger.Error("-peers requires -node (this node's advertised URL)")
			os.Exit(2)
		}
	}
	svc, err := soteria.NewService(soteria.ServiceConfig{
		Workers:          *workers,
		QueueDepth:       *queue,
		JobTimeout:       *jobTimeout,
		MaxBodyBytes:     *maxBody,
		Limits:           soteria.Limits{MaxStates: *maxStates},
		StoreDir:         *storeDir,
		JournalPath:      *journalPath,
		ChaosFS:          chaosFS,
		Logger:           logger,
		SlowJobThreshold: *slowJob,
		Peers:            peerList,
		SelfURL:          *nodeURL,
		VirtualNodes:     *vnodes,
	})
	if err != nil {
		logger.Error("starting service", "error", err)
		os.Exit(1)
	}

	errc := make(chan error, 2)
	// The profiler gets its own listener and server so binding it is an
	// explicit operational choice, never reachable through the API port.
	// net/http/pprof registers on http.DefaultServeMux; the API handler
	// below uses its own mux, so the default mux holds only pprof.
	if *pprofAddr != "" {
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux}
		go func() { errc <- fmt.Errorf("pprof server: %w", pprofSrv.ListenAndServe()) }()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	go func() { errc <- fmt.Errorf("http server: %w", httpSrv.ListenAndServe()) }()
	attrs := []any{"addr", *addr, "store", *storeDir, "journal", *journalPath, "queue", *queue}
	if len(peerList) > 0 {
		attrs = append(attrs, "node", *nodeURL, "fleet_members", len(peerList))
	}
	logger.Info("listening", attrs...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: reject new jobs (and fail health checks) first, finish the
	// queued and in-flight work, then close HTTP listeners.
	logger.Info("shutdown signal received, draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Warn("drain deadline passed, remaining jobs canceled", "error", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	logger.Info("drained, exiting")
	fmt.Fprintln(os.Stderr, "soteriad: stopped")
}
