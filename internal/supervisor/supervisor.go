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

// The restart policy every supervised child runs: the first restart
// waits backoff, each consecutive crash doubles the delay up to
// maxBackoff, and a run of at least resetAfter forgives past crashes, so
// the next one restarts at backoff again. A crash-looping child is thus
// retried every maxBackoff for as long as it is supervised. Stop waits
// grace after SIGTERM before SIGKILL.
const (
	backoff    = 250 * time.Millisecond
	maxBackoff = 5 * time.Second
	resetAfter = 10 * time.Second
	grace      = 5 * time.Second
)

// Event is one lifecycle transition of a supervised child.
type Event struct {
	// Name labels the child (the shard name in resrouter).
	Name string
	// Kind is "start", "start-error", "exit" or "stop".
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
	name    string
	build   func() *exec.Cmd
	onEvent func(Event)
	// Tests override the fixed schedule of the same names here.
	backoff, maxBackoff, resetAfter, grace time.Duration

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
// started *exec.Cmd cannot be reused). onEvent, when not nil, observes
// every lifecycle transition.
func Supervise(name string, build func() *exec.Cmd, onEvent func(Event)) *Child {
	c := newChild(name, build, onEvent)
	go c.loop()
	return c
}

// newChild returns an unstarted Child on the fixed schedule.
func newChild(name string, build func() *exec.Cmd, onEvent func(Event)) *Child {
	return &Child{
		name: name, build: build, onEvent: onEvent,
		backoff: backoff, maxBackoff: maxBackoff, resetAfter: resetAfter, grace: grace,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

func (c *Child) event(kind string, pid int, err error, delay time.Duration, restarts int) {
	if c.onEvent != nil {
		c.onEvent(Event{Name: c.name, Kind: kind, PID: pid, Err: err, Backoff: delay, Restarts: restarts})
	}
}

func (c *Child) loop() {
	defer close(c.done)
	delay := c.backoff
	restarts := 0
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
			c.event("start-error", 0, err, delay, restarts)
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
			if time.Since(began) >= c.resetAfter {
				// Long enough a run to call the crash fresh, not a loop.
				delay = c.backoff
			}
			c.event("exit", pid, werr, delay, restarts)
			restarts++
		}

		select {
		case <-c.stop:
			return
		case <-time.After(delay):
		}
		delay = min(2*delay, c.maxBackoff)
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
	case <-time.After(c.grace):
		_ = cmd.Process.Kill()
		<-c.done
	}
	c.mu.Lock()
	werr := c.waitErr
	c.mu.Unlock()
	c.event("stop", cmd.Process.Pid, werr, 0, 0)
}
