package supervisor

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain is the package's leak check: once every test has stopped its
// children, the goroutine count must come back to where it started — a
// supervision loop or a Wait that outlives Stop shows up here with its
// stack.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d before the tests, %d after\n", before, after)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}

// alive reports whether a child process is currently running.
func (c *Child) alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cmd != nil
}

// pid returns the running child's pid, or 0.
func (c *Child) pid() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cmd == nil || c.cmd.Process == nil {
		return 0
	}
	return c.cmd.Process.Pid
}

// stopSignal returns the signal that ended the child, read from the wait
// status in the last "stop" event's Err.
func stopSignal(t *testing.T, rec *recorder) syscall.Signal {
	t.Helper()
	events := rec.snapshot()
	if len(events) == 0 || events[len(events)-1].Kind != "stop" {
		t.Fatalf("events %+v do not end with a stop", events)
	}
	var ee *exec.ExitError
	if err := events[len(events)-1].Err; !errors.As(err, &ee) {
		t.Fatalf("stop event Err = %v, want the wait status", err)
	}
	ws := ee.Sys().(syscall.WaitStatus)
	if !ws.Signaled() {
		t.Fatalf("child exited with status %d, not by a signal", ws.ExitStatus())
	}
	return ws.Signal()
}

// recorder collects lifecycle events for assertions.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) observe(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

func (r *recorder) count(kind string) int {
	n := 0
	for _, ev := range r.snapshot() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// loopExited reports whether the child's supervision loop has returned:
// from then on nothing can start a process again.
func loopExited(c *Child) bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRestartsCrashedChildWithCappedBackoff runs a child that exits
// immediately: the supervisor must keep restarting it, doubling the
// backoff per crash up to the cap, and every exit event must carry the
// delay that was actually about to be slept.
func TestRestartsCrashedChildWithCappedBackoff(t *testing.T) {
	rec := &recorder{}
	c := Supervise("crashy", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "exit 3")
	}, Config{
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 40 * time.Millisecond,
		ResetAfter: time.Hour, // a fast-exiting child never earns forgiveness
		OnEvent:    rec.observe,
	})
	defer c.Stop()

	waitUntil(t, "5 crashes", func() bool { return rec.count("exit") >= 5 })
	c.Stop()

	var backoffs []time.Duration
	for _, ev := range rec.snapshot() {
		if ev.Kind == "exit" {
			backoffs = append(backoffs, ev.Backoff)
		}
	}
	want := []time.Duration{10, 20, 40, 40, 40} // ms: doubling, then capped
	for i, w := range want {
		if got := backoffs[i]; got != w*time.Millisecond {
			t.Errorf("crash %d: backoff %s, want %s", i, got, w*time.Millisecond)
		}
	}
	if rec.count("start") < 5 {
		t.Errorf("only %d starts for %d exits", rec.count("start"), rec.count("exit"))
	}
}

// TestResetAfterForgivesLongRuns: a child that stays up past ResetAfter
// restarts at the base backoff again, not at wherever the crash loop
// left off.
func TestResetAfterForgivesLongRuns(t *testing.T) {
	rec := &recorder{}
	c := Supervise("steady", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "sleep 0.2; exit 1")
	}, Config{
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 80 * time.Millisecond,
		ResetAfter: 100 * time.Millisecond, // 200ms uptime counts as healthy
		OnEvent:    rec.observe,
	})
	defer c.Stop()

	waitUntil(t, "3 exits", func() bool { return rec.count("exit") >= 3 })
	c.Stop()
	for _, ev := range rec.snapshot() {
		if ev.Kind == "exit" && ev.Backoff != 10*time.Millisecond {
			t.Errorf("exit after healthy uptime backed off %s, want the base 10ms", ev.Backoff)
		}
	}
}

// TestStopTerminatesAndDoesNotRestart: Stop must bring down a
// long-running child promptly (SIGTERM) and no restart may follow.
func TestStopTerminatesAndDoesNotRestart(t *testing.T) {
	rec := &recorder{}
	c := Supervise("longrun", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "sleep 60")
	}, Config{
		Backoff: 5 * time.Millisecond,
		Grace:   2 * time.Second,
		OnEvent: rec.observe,
	})
	waitUntil(t, "child start", c.alive)
	pid := c.pid()
	if pid == 0 {
		t.Fatal("alive child has pid 0")
	}

	c.Stop()
	if sig := stopSignal(t, rec); sig != syscall.SIGTERM {
		t.Errorf("child stopped by %v, want SIGTERM", sig)
	}
	if c.alive() {
		t.Error("child still alive after Stop")
	}

	// Stop returned, so the loop that restarts must be gone with it.
	if !loopExited(c) {
		t.Error("supervision loop still running after Stop")
	}
	if starts := rec.count("start"); starts != 1 {
		t.Errorf("%d starts, want 1", starts)
	}

	// Stop is idempotent.
	c.Stop()
}

// TestStopKillsStubbornChild: a child that ignores SIGTERM dies by
// SIGKILL after the grace period.
func TestStopKillsStubbornChild(t *testing.T) {
	rec := &recorder{}
	trapped := filepath.Join(t.TempDir(), "trapped")
	c := Supervise("stubborn", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "trap '' TERM; : > \"$0\"; sleep 60 & wait", trapped)
	}, Config{
		Grace:   100 * time.Millisecond,
		OnEvent: rec.observe,
	})
	waitUntil(t, "the shell to install its trap", func() bool {
		_, err := os.Stat(trapped)
		return err == nil
	})

	c.Stop()
	if sig := stopSignal(t, rec); sig != syscall.SIGKILL {
		t.Errorf("child stopped by %v, want SIGKILL after the grace period", sig)
	}
	if c.alive() {
		t.Error("child survived SIGKILL")
	}
}

// TestCrashLoopExhaustion pins the restart-limit contract: a child that
// dies instantly gets its initial run plus MaxRestarts relaunches, then a
// terminal "exhausted" event — no further restarts, nothing left holding
// the port the child was supposed to serve on, and Stop stays safe to
// call on the given-up child.
func TestCrashLoopExhaustion(t *testing.T) {
	// Reserve a port the way resrouter's proc runtime does for a
	// supervised shard: the address must be reusable once supervision
	// gives the child up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hostport := ln.Addr().String()
	ln.Close()

	const maxRestarts = 3
	rec := &recorder{}
	c := Supervise("doomed", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "exit 7")
	}, Config{
		Backoff:     5 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		ResetAfter:  time.Hour, // instant deaths never earn forgiveness
		MaxRestarts: maxRestarts,
		OnEvent:     rec.observe,
	})
	defer c.Stop()

	waitUntil(t, "exhaustion", func() bool { return rec.count("exhausted") == 1 })

	// The supervision loop must have fully exited, not be sleeping toward
	// another relaunch.
	waitUntil(t, "the supervision loop to exit", func() bool { return loopExited(c) })
	if got := rec.count("start"); got != maxRestarts+1 {
		t.Errorf("%d starts, want initial run + %d restarts = %d", got, maxRestarts, maxRestarts+1)
	}
	if got := rec.count("exit"); got != maxRestarts+1 {
		t.Errorf("%d exits, want %d", got, maxRestarts+1)
	}
	if got := rec.count("exhausted"); got != 1 {
		t.Errorf("%d exhausted events, want exactly 1", got)
	}
	if c.alive() {
		t.Error("child alive after exhaustion")
	}
	// Terminal event ordering: nothing follows "exhausted".
	events := rec.snapshot()
	if last := events[len(events)-1]; last.Kind != "exhausted" {
		t.Errorf("last event %q, want exhausted", last.Kind)
	}

	// The reserved port is free again — an exhausted child leaks nothing.
	ln2, err := net.Listen("tcp", hostport)
	if err != nil {
		t.Errorf("reserved port not rebindable after exhaustion: %v", err)
	} else {
		ln2.Close()
	}

	// Stop on an exhausted child signals nothing and is idempotent.
	c.Stop()
	c.Stop()
	if got := rec.count("stop"); got != 0 {
		t.Errorf("%d stop events for an exhausted child, want none: no process is left to stop", got)
	}
}

// TestUnlimitedRestartsWithoutCap: MaxRestarts 0 keeps the pre-limit
// behavior — the crash loop just keeps relaunching.
func TestUnlimitedRestartsWithoutCap(t *testing.T) {
	rec := &recorder{}
	c := Supervise("forever", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "exit 1")
	}, Config{
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		ResetAfter: time.Hour,
		OnEvent:    rec.observe,
	})
	defer c.Stop()
	waitUntil(t, "many restarts", func() bool { return rec.count("start") >= 8 })
	if got := rec.count("exhausted"); got != 0 {
		t.Errorf("%d exhausted events with no cap configured", got)
	}
}
