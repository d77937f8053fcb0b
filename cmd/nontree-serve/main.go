// Command nontree-serve runs the routing daemon: POST /route routes a net
// and returns the topology plus a trace id; GET /metrics exposes live
// Prometheus metrics; GET /healthz reports liveness (503 while draining);
// GET /traces/<id> exports a retained execution trace as canonical JSONL
// (append ?request=1 for the originating request, ready for tracereplay);
// GET /logs streams the retained per-request wide events as canonical
// JSONL (append ?request=<id> to resolve one request by the id every
// /route reply carries); /debug/pprof/* serves the standard profiling
// endpoints.
//
// Usage:
//
//	nontree-serve                              # listen on :8080
//	nontree-serve -addr 127.0.0.1:0 -ready-file port.txt   # ephemeral port for CI
//
// On SIGINT/SIGTERM the server drains: /healthz flips to 503 so load
// balancers stop sending traffic, new /route requests are refused,
// in-flight requests finish (bounded by -drain-timeout), then the process
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nontree/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nontree-serve: ")
	if err := realMain(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// realMain is main minus the exit: it owns its flag set and returns errors,
// so tests can run the full daemon lifecycle in-process.
func realMain(args []string) error {
	fs := flag.NewFlagSet("nontree-serve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		readyFile     = fs.String("ready-file", "", "after listening, write the actual address to this file (CI port discovery)")
		maxConcurrent = fs.Int("max-concurrent", 0, "simultaneous /route requests before shedding with 429 (0 = 2×GOMAXPROCS)")
		traceCap      = fs.Int("trace-capacity", serve.DefaultTraceCapacity, "per-request trace ring bound (events); memory grows with the events emitted, up to this cap")
		maxTraces     = fs.Int("max-traces", 64, "retained traces before evicting the oldest")
		maxLogs       = fs.Int("max-logs", 0, "retained /logs wide events before evicting the oldest (0 = default ring, negative disables request logging)")
		reqTimeout    = fs.Duration("request-timeout", 60*time.Second, "per-request /route wall-clock bound")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	s := serve.New(serve.Options{
		MaxConcurrent:  *maxConcurrent,
		TraceCapacity:  *traceCap,
		MaxTraces:      *maxTraces,
		MaxLogEvents:   *maxLogs,
		RequestTimeout: *reqTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing ready file: %w", err)
		}
	}

	srv := &http.Server{
		Handler: s.Handler(),
		// ReadHeaderTimeout guards against slowloris; the /route body read
		// is already bounded by the handler's size limit and timeout.
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%s: draining (%d in flight)", sig, s.Inflight())
	}

	// Flip unhealthy first so load balancers drop the instance, then let
	// in-flight requests finish.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	log.Print("drained")
	return nil
}
