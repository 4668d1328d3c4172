package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/supervisor"
)

// localRuntime materialises shards as in-process servers: the laptop
// deployment. Each Start builds a full internal/server instance on an
// ephemeral port; Stop drains it like a resilientd receiving SIGTERM.
type localRuntime struct {
	mu     sync.Mutex
	shards map[string]*localShard
}

type localShard struct {
	srv *server.Server
	hs  *http.Server
}

func newLocalRuntime() *localRuntime {
	return &localRuntime{shards: make(map[string]*localShard)}
}

func (l *localRuntime) Start(name string) (string, error) {
	srv := server.New(server.Config{ShardLabel: name})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	l.mu.Lock()
	l.shards[name] = &localShard{srv: srv, hs: hs}
	l.mu.Unlock()
	return "http://" + ln.Addr().String(), nil
}

func (l *localRuntime) Stop(name string) error {
	l.mu.Lock()
	sp := l.shards[name]
	delete(l.shards, name)
	l.mu.Unlock()
	if sp == nil {
		return nil
	}
	sp.srv.StartDraining()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = sp.hs.Shutdown(sctx)
	sp.srv.Shutdown()
	return nil
}

// procRuntime materialises shards as supervised resilientd child
// processes: the -supervise watchdog. A crashed child restarts with
// capped exponential backoff on a stable port — the ring address never
// changes — and rejoins traffic when the router's health probes see it
// answer again, the same re-admission path as any ejected shard.
type procRuntime struct {
	cfg procConfig

	// restarts counts child relaunches after a crash or failed start,
	// exported into the router's /metrics page via Config.Observe.
	restarts atomic.Int64

	mu       sync.Mutex
	children map[string]*procShard
}

type procConfig struct {
	bin        string
	backoff    time.Duration
	maxBackoff time.Duration
	// maxRestarts caps consecutive crash-loop restarts per child
	// (0 = unlimited); see supervisor.Config.MaxRestarts.
	maxRestarts int
	// healthWait bounds how long Start waits for a fresh child's
	// /v1/healthz (0 = 15s).
	healthWait time.Duration
	// log receives the structured lifecycle lines (nil discards them).
	log *slog.Logger
}

type procShard struct {
	child *supervisor.Child
	addr  string
}

func newProcRuntime(cfg procConfig) *procRuntime {
	return &procRuntime{cfg: cfg, children: make(map[string]*procShard)}
}

func (p *procRuntime) Start(name string) (string, error) {
	// Reserve a port once and keep it across restarts: the ring address
	// must stay stable while the supervisor cycles the process behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hostport := ln.Addr().String()
	ln.Close()

	child := supervisor.Supervise(name, func() *exec.Cmd {
		return exec.Command(p.cfg.bin,
			"-addr", hostport,
			"-shard", name,
			"-q",
		)
	}, supervisor.Config{
		Backoff:     p.cfg.backoff,
		MaxBackoff:  p.cfg.maxBackoff,
		MaxRestarts: p.cfg.maxRestarts,
		OnEvent:     p.logEvent,
	})

	addr := "http://" + hostport
	healthWait := p.cfg.healthWait
	if healthWait <= 0 {
		healthWait = 15 * time.Second
	}
	if err := waitHealthy(addr, healthWait); err != nil {
		child.Stop()
		return "", fmt.Errorf("shard %q never became healthy: %w", name, err)
	}
	p.mu.Lock()
	p.children[name] = &procShard{child: child, addr: addr}
	p.mu.Unlock()
	return addr, nil
}

func (p *procRuntime) Stop(name string) error {
	p.mu.Lock()
	ps := p.children[name]
	delete(p.children, name)
	p.mu.Unlock()
	if ps == nil {
		return nil
	}
	ps.child.Stop()
	return nil
}

// KillByAddr SIGKILLs the supervised child listening on hostport
// ("127.0.0.1:9101"), reporting whether one was found alive. This is the
// chaos injector's shard-kill hook: the supervisor observes the death
// like any crash and restarts the child on its stable port.
func (p *procRuntime) KillByAddr(hostport string) bool {
	p.mu.Lock()
	var victim *procShard
	for _, ps := range p.children {
		if ps.addr == "http://"+hostport || ps.addr == "https://"+hostport {
			victim = ps
			break
		}
	}
	p.mu.Unlock()
	if victim == nil {
		return false
	}
	return victim.child.Kill()
}

func (p *procRuntime) logEvent(ev supervisor.Event) {
	// Every crash or failed start schedules a relaunch (until the budget
	// is exhausted): that is the restart tally operators alert on.
	if ev.Kind == "exit" || ev.Kind == "start-error" {
		p.restarts.Add(1)
	}
	if p.cfg.log != nil {
		supervisor.LogEvents(p.cfg.log)(ev)
	}
}

// waitHealthy polls the shard's /v1/healthz until it answers 200 or the
// deadline passes, so a freshly started child is accepting connections
// before the router puts keys on it.
func waitHealthy(base string, within time.Duration) error {
	deadline := time.Now().Add(within)
	client := &http.Client{Timeout: time.Second}
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz answered %s", resp.Status)
		} else {
			lastErr = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return lastErr
}
