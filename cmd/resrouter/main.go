// Command resrouter is the sharded solve tier's front door: a
// consistent-hash router over N resilientd shards, keyed on the same
// per-matrix cache identity the shards key their artifact caches on, so
// a matrix is warm on its ring owner, and on the owner's successor while
// load spills requests there.
//
//	resrouter -addr 127.0.0.1:8900 -topology shards.json
//	resrouter -addr 127.0.0.1:8900 -spawn 3
//	resrouter -addr 127.0.0.1:8900 -spawn 3 -supervise -shard-bin ./bin/resilientd
//
// The topology file lists the shard set (see internal/router.Topology);
// entries with an empty addr — and every shard under -spawn — are
// materialised by the shard runtime: in-process servers by default, or
// supervised resilientd child processes under -supervise (crashed
// children restart with capped exponential backoff and re-admit through
// the router's health probes). The topology is live: SIGHUP — and a
// polling content watch (-topology-watch) — reloads the file and applies it
// to the ring with minimal key movement; a malformed file is rejected and
// the previous ring keeps serving. With -admin-token the token-gated
// /v1/admin surface drains, adds and removes shards at runtime.
//
// POST /v1/solve routes by matrix identity with health-checked failover
// to the next ring replica; GET /v1/statusz exposes the shard map, key
// distribution and per-shard inflight/latency stats; GET /v1/healthz
// reports the router itself. SIGINT/SIGTERM drain gracefully: the router
// refuses new solves, in-flight forwards complete, then managed shards
// drain in turn.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "resrouter: %v\n", err)
		os.Exit(1)
	}
}

// run starts the router (and any runtime-managed shards) and blocks until
// ctx is cancelled or the listener fails. When started is non-nil it
// receives the bound address once the listener is up.
func run(ctx context.Context, args []string, stderr io.Writer, started chan<- net.Addr) error {
	fs := flag.NewFlagSet("resrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8900", "listen address")
		topoPath      = fs.String("topology", "", "JSON topology file naming the shard set")
		topoWatch     = fs.Duration("topology-watch", 2*time.Second, "poll the topology file this often and reload when its content changed (0 = SIGHUP only)")
		spawn         = fs.Int("spawn", 0, "materialise this many shards through the runtime (instead of, or in addition to, -topology)")
		supervise     = fs.Bool("supervise", false, "materialise address-less shards as supervised resilientd child processes instead of in-process servers")
		shardBin      = fs.String("shard-bin", "resilientd", "resilientd binary for -supervise (looked up in PATH unless a path is given)")
		restartBase   = fs.Duration("restart-backoff", 250*time.Millisecond, "first restart delay for a crashed supervised shard (doubles per crash)")
		restartMax    = fs.Duration("restart-max", 5*time.Second, "restart-delay cap for a crash-looping supervised shard")
		restartLimit  = fs.Int("restart-limit", 0, "consecutive crash-loop restarts before a supervised shard is given up on (0 = unlimited)")
		adminToken    = fs.String("admin-token", "", "bearer token enabling the /v1/admin control plane (empty = disabled)")
		probeInterval = fs.Duration("probe-interval", 2*time.Second, "active health-check period")
		retryBudget   = fs.Int("retry-budget", 4, "per-request attempt ceiling across ring candidates (first try included)")
		retryBackoff  = fs.Duration("retry-backoff", 25*time.Millisecond, "base delay before the second attempt (doubles per attempt, ±50% jitter; a shard retry_after_ms hint overrides when longer)")
		chaosPlan     = fs.String("chaos-plan", "", "seeded fault-injection plan (JSON) applied to shard-bound solve traffic; /v1/statusz grows a chaos section")
		hedge         = fs.Bool("hedge", false, "hedge idempotent solves: arm a duplicate on the next ring replica after a tail-latency delay, first verified answer wins")
		hedgeDelay    = fs.Duration("hedge-delay", 30*time.Millisecond, "hedge arm delay until a shard has a P99 estimate of its own")
		hedgeMax      = fs.Duration("hedge-max-delay", 2*time.Second, "cap on the P99-derived hedge arm delay")
		logFormat     = fs.String("log-format", "text", "log line format: text or json")
		quiet         = fs.Bool("q", false, "log warnings and errors only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := obs.NewLogger(stderr, *logFormat, *quiet)

	// desiredTopology is the reload unit: the topology file (when given)
	// plus the -spawn synthetic shards; the router validates it as a whole.
	// raw is the file as read, what the watcher compares the next read
	// against.
	desiredTopology := func() (topo router.Topology, raw []byte, err error) {
		if *topoPath != "" {
			if raw, err = os.ReadFile(*topoPath); err != nil {
				return topo, raw, err
			}
			if err = json.Unmarshal(raw, &topo); err != nil {
				return topo, raw, fmt.Errorf("topology %s: %w", *topoPath, err)
			}
		}
		for i := 0; i < *spawn; i++ {
			topo.Shards = append(topo.Shards, router.Shard{Name: fmt.Sprintf("spawn%d", i)})
		}
		if len(topo.Shards) == 0 {
			return topo, raw, fmt.Errorf("no shards: provide -topology and/or -spawn")
		}
		return topo, raw, nil
	}
	topo, lastRead, err := desiredTopology()
	if err != nil {
		return err
	}

	var runtime router.ShardRuntime
	var procs *procRuntime
	if *supervise {
		procs = newProcRuntime(procConfig{
			bin:         *shardBin,
			backoff:     *restartBase,
			maxBackoff:  *restartMax,
			maxRestarts: *restartLimit,
			log:         logger,
		})
		runtime = procs
	} else {
		runtime = newLocalRuntime()
	}

	cfg := router.Config{
		ProbeInterval: *probeInterval,
		RetryBudget:   *retryBudget,
		RetryBackoff:  *retryBackoff,
		AdminToken:    *adminToken,
		Runtime:       runtime,
		HedgeEnabled:  *hedge,
		HedgeDelay:    *hedgeDelay,
		HedgeMaxDelay: *hedgeMax,
		Logger:        logger,
	}
	if procs != nil {
		// The watchdog's restart tally joins the router's /metrics page: a
		// scrape sees crash-loop churn next to the routing counters.
		cfg.Observe = func(m *obs.Registry) {
			m.CounterFunc("resilient_router_supervisor_restarts_total",
				"Supervised shard relaunches after a crash or failed start.",
				func() float64 { return float64(procs.restarts.Load()) })
		}
	}
	if *hedge {
		logger.Info("tail-latency hedging enabled", "base_delay", hedgeDelay.String(), "max_delay", hedgeMax.String())
	}
	if *chaosPlan != "" {
		plan, err := chaos.LoadPlan(*chaosPlan)
		if err != nil {
			return err
		}
		var opts []chaos.Option
		if procs != nil {
			// Kill faults SIGKILL the supervised child behind the target
			// address; the watchdog restarts it on its stable port.
			opts = append(opts, chaos.WithKillFunc(procs.KillByAddr))
		}
		inj := chaos.New(plan, nil, opts...)
		cfg.Transport = inj
		cfg.ChaosStats = inj.Stats
		logger.Info("chaos fault injection enabled", "plan", *chaosPlan, "seed", plan.Seed)
	}
	rt, err := router.New(cfg, topo.Shards)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		rt.Shutdown()
		return err
	}
	if started != nil {
		started <- ln.Addr()
	}
	logger.Info("listening", "addr", ln.Addr().String(), "shards", len(topo.Shards))
	for _, sh := range rt.CurrentTopology().Shards {
		logger.Info("shard", "name", sh.Name, "addr", sh.Addr, "state", sh.State)
	}
	if *adminToken != "" {
		logger.Info("admin API enabled", "path", "/v1/admin")
	}

	// Live topology: SIGHUP and the content watch both funnel into one
	// reload path. A reload that fails to parse or validate is rejected
	// whole — the previous ring keeps serving. A reload replaces what the
	// admin verbs did since the last one, so the watch fires on the file's
	// bytes, not its mtime: a touch changes nothing, and two rewrites in
	// one timestamp granule are still two. (The log line's reason stays
	// "mtime": operators grep for it.)
	sighup := make(chan os.Signal, 1)
	signal.Notify(sighup, syscall.SIGHUP)
	defer signal.Stop(sighup)
	reload := func(reason string) {
		next, raw, err := desiredTopology()
		if raw != nil {
			lastRead = raw
		}
		var rep router.ApplyReport
		if err == nil {
			rep, err = rt.Apply(next)
		}
		if err != nil {
			logger.Warn("topology reload rejected, keeping previous ring", "reason", reason, "error", err.Error())
			return
		}
		if rep.Changed() {
			logger.Info("topology reload applied", "reason", reason, "report", rep.String())
		} else {
			logger.Info("topology reload: no change", "reason", reason)
		}
	}
	watcherDone := make(chan struct{})
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go func() {
		defer close(watcherDone)
		var tick <-chan time.Time
		if *topoWatch > 0 && *topoPath != "" {
			t := time.NewTicker(*topoWatch)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-watchCtx.Done():
				return
			case <-sighup:
				reload("SIGHUP")
			case <-tick:
				// An unreadable file is a mid-rewrite window
				// (move-over-rename) or a deletion: keep serving the
				// current ring, try again next tick.
				if raw, err := os.ReadFile(*topoPath); err == nil && !bytes.Equal(raw, lastRead) {
					reload("mtime")
				}
			}
		}
	}()

	hs := &http.Server{Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopWatch()
		<-watcherDone
		rt.Shutdown()
		return err
	case <-ctx.Done():
	}
	logger.Info("draining")
	stopWatch()
	<-watcherDone
	// Drain outside-in: refuse new solves at the router, stop its
	// listener so in-flight forwards deliver, then drain the router's
	// forwards and finally the managed shards (rt.Shutdown stops them
	// through the runtime).
	rt.StartDraining()
	sctx, cancel := context.WithTimeout(context.Background(), router.DrainTimeout)
	defer cancel()
	httpErr := hs.Shutdown(sctx)
	rt.Shutdown()
	logger.Info("drained")
	return httpErr
}
