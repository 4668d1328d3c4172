// Package supervisor restarts crashed child processes with capped
// exponential backoff: the watchdog half of resrouter's -shard-bin mode.
// It owns only process lifecycle — starting, waiting, backing off,
// stopping — and stays deliberately ignorant of what the children serve;
// the router's health probes decide when a restarted shard is fit to
// take keys again, so supervision and routing converge through the same
// state machine as any other ejection.
package supervisor

import (
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Config tunes one supervised child. Zero values select the defaults.
type Config struct {
	// Backoff is the delay before the first restart (default 250ms);
	// each consecutive crash doubles it up to MaxBackoff (default 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// ResetAfter is the healthy uptime that forgives past crashes: a
	// child that ran at least this long restarts at Backoff again
	// (default 10s).
	ResetAfter time.Duration
	// Grace is how long Stop waits after SIGTERM before SIGKILL
	// (default 5s).
	Grace time.Duration
	// MaxRestarts caps the consecutive restarts a crash-looping child
	// gets: after the cap is spent (the initial run plus MaxRestarts
	// relaunches all died before ResetAfter), supervision gives up with a
	// terminal "exhausted" event instead of relaunching forever. 0 means
	// unlimited. A run of at least ResetAfter forgives the count along
	// with the backoff.
	MaxRestarts int
	// OnEvent, when set, observes every lifecycle transition.
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.ResetAfter <= 0 {
		c.ResetAfter = 10 * time.Second
	}
	if c.Grace <= 0 {
		c.Grace = 5 * time.Second
	}
	return c
}

// Event is one lifecycle transition of a supervised child.
type Event struct {
	// Name labels the child (the shard name in resrouter).
	Name string
	// Kind is "start", "start-error", "exit", "exhausted" or "stop".
	// "exhausted" is terminal: the crash-loop spent MaxRestarts and no
	// further restart follows.
	Kind string
	// PID is set on "start" and "exit".
	PID int
	// Err carries the start error or the exit status ("exit" and "stop").
	Err error
	// Backoff is the delay before the next restart attempt ("start-error"
	// and "exit" events).
	Backoff time.Duration
	// Restarts counts completed restarts so far.
	Restarts int
}

// Child is one supervised process. Construct with Supervise; Stop to
// terminate for good.
type Child struct {
	name  string
	build func() *exec.Cmd
	cfg   Config

	mu       sync.Mutex
	cmd      *exec.Cmd
	stopping bool
	// waitErr is the wait status of the last process that exited.
	waitErr error

	stop chan struct{}
	done chan struct{}
}

// Supervise launches the child and keeps it running: every exit that was
// not requested through Stop triggers a restart after the current
// backoff. build must return a fresh, unstarted command each call (a
// started *exec.Cmd cannot be reused).
func Supervise(name string, build func() *exec.Cmd, cfg Config) *Child {
	c := &Child{
		name:  name,
		build: build,
		cfg:   cfg.withDefaults(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.loop()
	return c
}

func (c *Child) event(kind string, pid int, err error, backoff time.Duration, restarts int) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(Event{Name: c.name, Kind: kind, PID: pid, Err: err, Backoff: backoff, Restarts: restarts})
	}
}

func (c *Child) loop() {
	defer close(c.done)
	backoff := c.cfg.Backoff
	restarts := 0
	// loopCrashes counts consecutive short-lived runs; a run of at least
	// ResetAfter forgives it together with the backoff.
	loopCrashes := 0
	for {
		cmd := c.build()
		c.mu.Lock()
		if c.stopping {
			c.mu.Unlock()
			return
		}
		err := cmd.Start()
		if err == nil {
			c.cmd = cmd
		}
		c.mu.Unlock()

		if err != nil {
			c.event("start-error", 0, err, backoff, restarts)
			loopCrashes++
		} else {
			pid := cmd.Process.Pid
			c.event("start", pid, nil, 0, restarts)
			began := time.Now()
			werr := cmd.Wait()
			c.mu.Lock()
			c.cmd = nil
			c.waitErr = werr
			stopping := c.stopping
			c.mu.Unlock()
			if stopping {
				return
			}
			if time.Since(began) >= c.cfg.ResetAfter {
				// Long enough a run to call the crash fresh, not a loop.
				backoff = c.cfg.Backoff
				loopCrashes = 0
			}
			c.event("exit", pid, werr, backoff, restarts)
			restarts++
			loopCrashes++
		}
		if c.cfg.MaxRestarts > 0 && loopCrashes > c.cfg.MaxRestarts {
			// The initial run plus MaxRestarts relaunches all died young:
			// this child is beyond supervision. Terminal — no relaunch, and
			// nothing (port, process slot) stays reserved behind it.
			c.event("exhausted", 0, nil, 0, restarts)
			return
		}

		select {
		case <-c.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
	}
}

// Kill SIGKILLs the currently running process WITHOUT ending
// supervision: the loop observes the death as a crash and restarts the
// child after backoff. Reports whether a live process was signalled.
// This is the fault-injection hook — a chaos "shard kill" is exactly an
// unplanned death the watchdog must absorb.
func (c *Child) Kill() bool {
	c.mu.Lock()
	cmd := c.cmd
	c.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return false
	}
	return cmd.Process.Kill() == nil
}

// Stop terminates the child for good: SIGTERM, a grace period, then
// SIGKILL. No restart follows. Idempotent; returns once the process is
// gone and the supervision loop has exited. The "stop" event carries the
// process's wait status.
func (c *Child) Stop() {
	c.mu.Lock()
	already := c.stopping
	c.stopping = true
	cmd := c.cmd
	c.mu.Unlock()
	if !already {
		close(c.stop)
	}
	if cmd == nil || cmd.Process == nil {
		<-c.done
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(c.cfg.Grace):
		_ = cmd.Process.Kill()
		<-c.done
	}
	c.mu.Lock()
	werr := c.waitErr
	c.mu.Unlock()
	c.event("stop", cmd.Process.Pid, werr, 0, 0)
}
