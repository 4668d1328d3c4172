// Command resilientd is the resident resilient-solve service: it serves
// the HTTP/JSON API of internal/server — POST /v1/solve, GET /v1/statusz,
// GET /v1/healthz — scheduling solve requests over -concurrency solver
// slots (one goroutine per solve) with a bounded queue, per-request
// deadlines and a per-matrix artifact cache that keeps checksum encodings,
// preconditioners and warm solver workspaces resident between requests.
//
//	resilientd -addr 127.0.0.1:8723
//	resilientd -concurrency 4 -queue 128
//
// SIGINT/SIGTERM drain gracefully: new solves are refused, everything
// already admitted completes and is delivered, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "resilientd: %v\n", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is cancelled (the signal
// path) or the listener fails. When started is non-nil it receives the
// bound address once the listener is up — tests bind :0 and read it back.
func run(ctx context.Context, args []string, stderr io.Writer, started chan<- net.Addr) error {
	fs := flag.NewFlagSet("resilientd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8723", "listen address")
		concurrency = fs.Int("concurrency", 0, "solves executing at once (0 = GOMAXPROCS/2)")
		queue       = fs.Int("queue", 64, "bounded queue depth; beyond it requests get 429")
		shard       = fs.String("shard", "", "shard label stamped into result provenance and /v1/healthz (sharded deployments)")
		adminToken  = fs.String("admin-token", "", "bearer token gating /debug/pprof (empty = disabled)")
		logFormat   = fs.String("log-format", "text", "log line format: text or json")
		quiet       = fs.Bool("q", false, "log warnings and errors only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := obs.NewLogger(stderr, *logFormat, *quiet)

	srv := server.New(server.Config{
		Concurrency: *concurrency,
		QueueDepth:  *queue,
		ShardLabel:  *shard,
		AdminToken:  *adminToken,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Shutdown()
		return err
	}
	if started != nil {
		started <- ln.Addr()
	}
	logger.Info("listening", "addr", ln.Addr().String(), "shard", *shard)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Shutdown()
		return err
	case <-ctx.Done():
	}
	logger.Info("draining")
	// Refuse new solves first — health probes see "draining", not a dead
	// listener — then stop accepting connections and let in-flight
	// handlers collect their solves, then drain the solve queue itself.
	srv.StartDraining()
	sctx, cancel := context.WithTimeout(context.Background(), server.DrainTimeout)
	defer cancel()
	httpErr := hs.Shutdown(sctx)
	srv.Shutdown()
	logger.Info("drained")
	return httpErr
}
