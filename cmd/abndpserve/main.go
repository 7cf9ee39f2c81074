// Command abndpserve is the long-running simulation service: an HTTP/JSON
// front end over the benchmark harness's warm memo cache and worker pool,
// serving simulation jobs to many concurrent clients with request dedup,
// bounded-queue backpressure, and graceful drain on SIGTERM.
//
// Usage:
//
//	abndpserve                        # serve on :8080
//	abndpserve -addr :9000 -j 8       # 8 simulation workers
//	abndpserve -id b1                 # named backend inside an abndpproxy fleet
//	abndpserve -quick                 # shrunken default workloads (demo)
//	abndpserve -queue 128             # larger pending-job queue
//	abndpserve -check                 # audit every simulation
//	abndpserve -rundeadline 2m        # per-job wall-clock deadline
//	abndpserve -trace-dir traces      # one Perfetto trace per executed job
//	abndpserve -log text              # human-readable logs (default json)
//
// Quick start (see docs/SERVING.md for the API, docs/OBSERVABILITY.md for
// the metrics/tracing surface):
//
//	abndpserve -quick &
//	curl -s -X POST localhost:8080/v1/runs -d '{"app":"pr","design":"O"}'
//	curl -s 'localhost:8080/v1/runs/run-000001?wait=60s'
//	curl -s localhost:8080/v1/experiments/tab1
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics          # Prometheus exposition
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abndp/internal/bench"
	"abndp/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		id       = flag.String("id", "", "backend ID within a serving fleet (echoed as X-ABNDP-Backend and in job statuses; see abndpproxy)")
		jobs     = flag.Int("j", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
		serial   = flag.Bool("serial", false, "one simulation at a time (equivalent to -j 1)")
		queue    = flag.Int("queue", 64, "pending-job queue capacity (full queue returns 429)")
		quick    = flag.Bool("quick", false, "shrink default workload sizings to smoke-test scale")
		chk      = flag.Bool("check", false, "audit every simulation (invariants + dual-run hash; roughly doubles cost)")
		rdl      = flag.Duration("rundeadline", 0, "per-job wall-clock deadline; a job past it fails (0 = the 10m default, negative disables)")
		drainTO  = flag.Duration("draintimeout", 2*time.Minute, "graceful-drain bound on SIGTERM/SIGINT")
		bjson    = flag.String("benchjson", "", "write harness metrics to this JSON file on shutdown")
		ckptOn   = flag.Bool("ckpt", true, "share a checkpoint store across requests: jobs varying only late-binding scheduler knobs reuse earlier jobs' placement vectors (byte-identical results; docs/PERF.md)")
		traceDir = flag.String("trace-dir", "", "write one Perfetto trace per executed job to this directory (serve-tier request spans + engine tracks, keyed by request ID)")
		logFmt   = flag.String("log", "json", "structured log format on stderr: json or text")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, err := buildLogger(*logFmt, *logLevel)
	if err != nil {
		fatal(err)
	}

	// The same fail-fast flag validation as abndpbench: a negative -j or a
	// contradictory -serial -j N is an error, not a silent clamp.
	workers, err := bench.ValidateWorkers(*jobs, *serial)
	if err != nil {
		fatal(err)
	}
	if *queue <= 0 {
		fatal(fmt.Errorf("abndpserve: queue capacity must be positive (got %d)", *queue))
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
	}

	srv := serve.New(serve.Config{
		ID:          *id,
		Workers:     workers,
		QueueSize:   *queue,
		RunDeadline: *rdl,
		Quick:       *quick,
		Check:       *chk,
		Checkpoint:  *ckptOn,
		TraceDir:    *traceDir,
		Logger:      logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Info("serving", "addr", ln.Addr().String(),
		"workers", srv.Runner().Workers(), "queue", *queue,
		"quick", *quick, "check", *chk, "trace_dir", *traceDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fatal(err)
	}
	stop()

	// Graceful drain: admissions close first (new submissions see 503 and
	// /readyz flips to "draining"), then queued and running jobs finish,
	// bounded by -draintimeout. The listener stays open for the whole
	// drain so clients can still poll results and fleet probes observe
	// "draining" rather than a dead socket; it closes only once the pool
	// is idle.
	logger.Info("draining", "timeout", drainTO.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Error("drain timed out", "err", err.Error())
	}
	_ = httpSrv.Shutdown(dctx)

	// Flush harness metrics now that the pool is idle.
	m := srv.Runner().Metrics()
	if *bjson != "" {
		if err := m.WriteJSON(*bjson); err != nil {
			fatal(err)
		}
	}
	logger.Info("drained", "runs", m.Runs, "failures", len(m.Failures),
		"events_total", m.EventsTotal, "events_per_sec", m.EventsPerSec)
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

// buildLogger constructs the stderr slog logger from the -log/-log-level
// flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log %q (json or text)", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abndpserve:", err)
	os.Exit(1)
}
