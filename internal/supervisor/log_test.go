package supervisor

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncWriter serialises slog output from the supervision goroutine
// against the test's reads.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestLogEventsEmitsStructuredFields crash-loops a child three times
// under a JSON slog handler, then stops it, and asserts the lifecycle
// lines carry the typed fields operators (and the obs tooling) key on:
// child name, kind, restart count, backoff, and severity graded per kind.
// A crash loop is never an ERROR: the child is retried for as long as it
// is supervised.
func TestLogEventsEmitsStructuredFields(t *testing.T) {
	var w syncWriter
	logger := slog.New(slog.NewJSONHandler(&w, nil))
	var c *Child // set by tune, before the loop starts
	builds := 0  // touched by the supervision loop only
	superviseOn("shard-x", func() *exec.Cmd {
		if builds++; builds > 3 {
			<-c.stop // exactly three runs: the fourth waits for Stop
		}
		return exec.Command("/bin/sh", "-c", "exit 3")
	}, LogEvents(logger), func(ch *Child) {
		c = ch
		c.backoff, c.maxBackoff = time.Millisecond, 2*time.Millisecond
	})
	defer c.Stop()

	waitUntil(t, "the third exit line", func() bool {
		return strings.Count(w.String(), `"kind":"exit"`) == 3
	})
	c.Stop()

	type line struct {
		Level    string  `json:"level"`
		Msg      string  `json:"msg"`
		Child    string  `json:"child"`
		Kind     string  `json:"kind"`
		PID      int     `json:"pid"`
		Error    string  `json:"error"`
		Backoff  float64 `json:"backoff_ms"`
		Restarts int     `json:"restarts"`
	}
	byKind := map[string][]line{}
	for _, raw := range strings.Split(strings.TrimSpace(w.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("unparseable slog line %q: %v", raw, err)
		}
		if l.Child != "shard-x" {
			t.Errorf("line %q: child = %q, want shard-x", raw, l.Child)
		}
		byKind[l.Kind] = append(byKind[l.Kind], l)
	}

	starts, exits := byKind["start"], byKind["exit"]
	if len(starts) != 3 {
		t.Errorf("start lines = %d, want 3", len(starts))
	}
	for _, l := range starts {
		if l.Level != "INFO" || l.PID == 0 {
			t.Errorf("start line malformed: %+v", l)
		}
	}
	if len(exits) != 3 {
		t.Errorf("exit lines = %d, want 3", len(exits))
	}
	for _, l := range exits {
		if l.Level != "WARN" {
			t.Errorf("exit line level = %q, want WARN", l.Level)
		}
		if !strings.Contains(l.Error, "exit status 3") {
			t.Errorf("exit line error = %q", l.Error)
		}
		if l.Backoff <= 0 {
			t.Errorf("exit line has no backoff_ms: %+v", l)
		}
	}
	if len(exits) >= 2 && exits[1].Restarts != 1 {
		t.Errorf("second exit restarts = %d, want 1", exits[1].Restarts)
	}
	if len(exits) == 3 && exits[2].Restarts != 2 {
		t.Errorf("third exit restarts = %d, want 2", exits[2].Restarts)
	}
	if strings.Contains(w.String(), `"level":"ERROR"`) {
		t.Errorf("a crash loop logged an ERROR line:\n%s", w.String())
	}
}
