package supervisor

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
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

// superviseOn is Supervise on a schedule that tune overrides before the
// supervision loop starts.
func superviseOn(name string, build func() *exec.Cmd, onEvent func(Event), tune func(*Child)) *Child {
	c := newChild(name, build, onEvent)
	tune(c)
	go c.loop()
	return c
}

// TestRestartsCrashedChildWithCappedBackoff runs a child that exits
// immediately: the supervisor must keep restarting it, doubling the
// backoff per crash up to the cap, and every exit event must carry the
// delay that was actually about to be slept.
func TestRestartsCrashedChildWithCappedBackoff(t *testing.T) {
	rec := &recorder{}
	c := superviseOn("crashy", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "exit 3")
	}, rec.observe, func(c *Child) {
		c.backoff, c.maxBackoff = 10*time.Millisecond, 40*time.Millisecond
		c.resetAfter = time.Hour // a fast-exiting child never earns forgiveness
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

// TestResetAfterForgivesLongRuns: a child that stays up past resetAfter
// restarts at the base backoff again, not at wherever the crash loop
// left off.
func TestResetAfterForgivesLongRuns(t *testing.T) {
	rec := &recorder{}
	c := superviseOn("steady", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "sleep 0.2; exit 1")
	}, rec.observe, func(c *Child) {
		c.backoff, c.maxBackoff = 10*time.Millisecond, 80*time.Millisecond
		c.resetAfter = 100 * time.Millisecond // 200ms uptime counts as healthy
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
// long-running child promptly (SIGTERM, well inside the grace period) and
// no restart may follow.
func TestStopTerminatesAndDoesNotRestart(t *testing.T) {
	rec := &recorder{}
	c := Supervise("longrun", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "sleep 60")
	}, rec.observe)
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
	c := superviseOn("stubborn", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "trap '' TERM; : > \"$0\"; sleep 60 & wait", trapped)
	}, rec.observe, func(c *Child) { c.grace = 100 * time.Millisecond })
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

// TestUnlimitedRestartsWithoutCap pins the restart policy: every child
// runs the fixed schedule, and a crash-looping child is relaunched for as
// long as it is supervised, at maxBackoff once the doubling reaches it —
// no number of crashes ends supervision.
func TestUnlimitedRestartsWithoutCap(t *testing.T) {
	fixed := newChild("policy", nil, nil)
	got := []time.Duration{fixed.backoff, fixed.maxBackoff, fixed.resetAfter, fixed.grace}
	want := []time.Duration{250 * time.Millisecond, 5 * time.Second, 10 * time.Second, 5 * time.Second}
	if !slices.Equal(got, want) {
		t.Errorf("schedule (backoff, maxBackoff, resetAfter, grace) = %v, want %v", got, want)
	}

	rec := &recorder{}
	c := superviseOn("forever", func() *exec.Cmd {
		return exec.Command("/bin/sh", "-c", "exit 1")
	}, rec.observe, func(c *Child) {
		c.backoff, c.maxBackoff = 2*time.Millisecond, 4*time.Millisecond
		c.resetAfter = time.Hour
	})
	defer c.Stop()
	waitUntil(t, "many restarts", func() bool { return rec.count("exit") >= 8 })
	if loopExited(c) {
		t.Error("supervision ended on its own during a crash loop")
	}
	c.Stop()
	exits := 0
	for _, ev := range rec.snapshot() {
		switch ev.Kind {
		case "start", "stop":
		case "exit":
			if ev.Restarts != exits {
				t.Errorf("exit %d reports %d restarts", exits, ev.Restarts)
			}
			if exits >= 1 && ev.Backoff != 4*time.Millisecond {
				t.Errorf("exit %d backed off %s, want the 4ms cap", exits, ev.Backoff)
			}
			exits++
		default:
			t.Errorf("unexpected %q event in a crash loop", ev.Kind)
		}
	}
}
