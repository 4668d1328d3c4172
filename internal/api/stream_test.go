package api

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSSERoundTrip streams events through a real HTTP hop — SSEWriter on
// the server, SSEReader on the client — and checks every frame decodes,
// the terminal digest lands in the trailer, and the trailer matches the
// terminal frame's wire bytes.
func TestSSERoundTrip(t *testing.T) {
	want := []*SolveEvent{
		{Kind: EventIteration, Iteration: 1, Rho: 0.5},
		{Kind: EventDetection, Iteration: 2, Detections: 1, Corrections: 1, RolledBack: true},
		{Kind: EventResult, Result: &SolveResponse{Schema: SchemaVersion}},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, err := NewSSEWriter(w)
		if err != nil {
			t.Errorf("NewSSEWriter: %v", err)
			return
		}
		for _, ev := range want {
			cp := *ev
			if err := sw.Send(&cp); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q, want text/event-stream", ct)
	}
	rd := NewSSEReader(resp.Body)
	var got []*SolveEvent
	var lastData []byte
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, ev)
		lastData = append([]byte(nil), rd.LastFrameData()...)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Schema != SchemaVersion {
			t.Errorf("event %d schema %d, want %d", i, ev.Schema, SchemaVersion)
		}
		if ev.Kind != want[i].Kind || ev.Iteration != want[i].Iteration {
			t.Errorf("event %d = %+v, want kind %s iter %d", i, ev, want[i].Kind, want[i].Iteration)
		}
	}
	if !got[len(got)-1].Terminal() {
		t.Error("last event is not terminal")
	}
	// The trailer must repeat the terminal frame's own digest.
	trailer := resp.Trailer.Get(DigestHeader)
	if trailer == "" {
		t.Fatal("no digest trailer after the stream")
	}
	if !VerifyDigest(trailer, lastData) {
		t.Errorf("trailer %q does not verify the terminal frame bytes", trailer)
	}
}

// TestSSEReaderRejectsCorruptFrame flips a byte inside a frame's data
// and requires the per-frame digest in the id field to catch it.
func TestSSEReaderRejectsCorruptFrame(t *testing.T) {
	frame, err := MarshalSSE(&SolveEvent{Kind: EventIteration, Iteration: 3, Rho: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(frame), `"iteration":3`, `"iteration":4`, 1)
	if corrupt == string(frame) {
		t.Fatal("corruption did not apply")
	}
	if _, err := NewSSEReader(strings.NewReader(corrupt)).Next(); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("corrupt frame error = %v, want digest mismatch", err)
	}
	// The pristine frame must still decode.
	if _, err := NewSSEReader(strings.NewReader(string(frame))).Next(); err != nil {
		t.Errorf("pristine frame: %v", err)
	}
}

// TestSSEReaderTruncatedMidFrame distinguishes a clean end of stream
// (io.EOF) from a connection that died inside a frame.
func TestSSEReaderTruncatedMidFrame(t *testing.T) {
	frame, err := MarshalSSE(&SolveEvent{Kind: EventIteration, Iteration: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the frame-terminating blank line: the reader must report a
	// truncation, not a clean EOF.
	cut := strings.TrimRight(string(frame), "\n")
	if _, err := NewSSEReader(strings.NewReader(cut)).Next(); err == nil || err == io.EOF {
		t.Errorf("truncated frame error = %v, want a mid-frame truncation error", err)
	}
	if _, err := NewSSEReader(strings.NewReader("")).Next(); err != io.EOF {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

// testContext is a context canceled when t's test ends. (testing.T's own
// Context method needs Go 1.24, and go.mod admits Go 1.22.)
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

// TestSolveStreamClient runs Client.SolveStream against streaming,
// error-terminating and buffered-fallback servers.
func TestSolveStreamClient(t *testing.T) {
	req := &SolveRequest{Solver: "cg", Scheme: "abft-correction"}

	t.Run("result", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if acc := r.Header.Get("Accept"); !strings.Contains(acc, "text/event-stream") {
				t.Errorf("Accept = %q, want text/event-stream", acc)
			}
			sw, _ := NewSSEWriter(w)
			sw.Send(&SolveEvent{Kind: EventIteration, Iteration: 1, Rho: 2})
			sw.Send(&SolveEvent{Kind: EventIteration, Iteration: 2, Rho: 1})
			res := &SolveResponse{Schema: SchemaVersion}
			res.Result.ResidualHash = "fnv1a:feedbeef"
			sw.Send(&SolveEvent{Kind: EventResult, Result: res})
		}))
		defer ts.Close()
		var events int
		resp, err := NewClient(ts.URL).SolveStream(testContext(t), req, func(ev *SolveEvent) error {
			events++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.ResidualHash != "fnv1a:feedbeef" {
			t.Errorf("hash %q", resp.Result.ResidualHash)
		}
		if events != 3 {
			t.Errorf("saw %d events, want 3 (2 iterations + terminal)", events)
		}
	})

	t.Run("error event", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw, _ := NewSSEWriter(w)
			sw.Send(&SolveEvent{Kind: EventIteration, Iteration: 1})
			sw.Send(&SolveEvent{Kind: EventError, Error: &Error{
				Schema: SchemaVersion, Code: CodeExpired, Message: "deadline exceeded while queued",
			}})
		}))
		defer ts.Close()
		_, err := NewClient(ts.URL).SolveStream(testContext(t), req, nil)
		var ae *Error
		if !errors.As(err, &ae) || ae.Code != CodeExpired {
			t.Fatalf("error = %v, want *Error with code %q", err, CodeExpired)
		}
	})

	t.Run("buffered fallback", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			res := &SolveResponse{Schema: SchemaVersion}
			res.Result.ResidualHash = "fnv1a:0ddba11"
			WriteJSON(w, http.StatusOK, res)
		}))
		defer ts.Close()
		resp, err := NewClient(ts.URL).SolveStream(testContext(t), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.ResidualHash != "fnv1a:0ddba11" {
			t.Errorf("hash %q", resp.Result.ResidualHash)
		}
	})

	t.Run("onEvent abort", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw, _ := NewSSEWriter(w)
			sw.Send(&SolveEvent{Kind: EventIteration, Iteration: 1})
			sw.Send(&SolveEvent{Kind: EventResult, Result: &SolveResponse{Schema: SchemaVersion}})
		}))
		defer ts.Close()
		abort := errors.New("enough")
		if _, err := NewClient(ts.URL).SolveStream(testContext(t), req, func(*SolveEvent) error { return abort }); !errors.Is(err, abort) {
			t.Errorf("error = %v, want the onEvent abort", err)
		}
	})
}

// TestSummarizeLatencies pins the shared estimator, P999 included.
func TestSummarizeLatencies(t *testing.T) {
	if s := SummarizeLatencies(nil); s.Count != 0 || s.P99Ms != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	s := SummarizeLatencies(ms)
	if s.Count != 1000 || s.P50Ms != 500 || s.P90Ms != 900 || s.P99Ms != 990 || s.P999Ms != 999 || s.MaxMs != 1000 {
		t.Errorf("summary over 1..1000 = %+v", s)
	}
	if s.MeanMs != 500.5 {
		t.Errorf("mean = %v, want 500.5", s.MeanMs)
	}
}

// FuzzSSEReader holds the event-stream decoder to what a wire surface owes
// any byte stream: events, then io.EOF or an error wrapping
// errMalformedStream — no panic, no other error (the reader beneath cannot
// fail), in bounded time and memory. Every event it returns carries this
// schema. The seeds are the frames of the tests above, whole, corrupted and
// cut.
func FuzzSSEReader(f *testing.F) {
	var stream []byte
	for _, ev := range []*SolveEvent{
		{Kind: EventIteration, Iteration: 1, Rho: 0.5},
		{Kind: EventDetection, Iteration: 2, Detections: 1, Corrections: 1, RolledBack: true},
		{Kind: EventResult, Result: &SolveResponse{Schema: SchemaVersion}},
		{Kind: EventError, Error: &Error{Schema: SchemaVersion, Code: CodeExpired, Message: "deadline exceeded while queued"}},
	} {
		frame, err := MarshalSSE(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add([]byte(strings.TrimRight(string(frame), "\n")))
		f.Add([]byte(strings.Replace(string(frame), `"schema":`, `"schema":9`, 1)))
		stream = append(stream, frame...)
	}
	f.Add(stream)
	f.Add([]byte("\n\n: keep-alive\n\n" + string(stream)))
	f.Add([]byte("event: iteration\nid: x\ndata: {}\n\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, src []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rd := NewSSEReader(bytes.NewReader(src))
		var err error
		for frames := 0; err == nil; frames++ {
			if frames > len(src) {
				t.Fatalf("%d bytes gave more than %d frames", len(src), frames)
			}
			var ev *SolveEvent
			if ev, err = rd.Next(); err == nil && (ev == nil || ev.Schema != SchemaVersion) {
				t.Fatalf("event %+v without an error", ev)
			}
		}
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != io.EOF && !errors.Is(err, errMalformedStream) {
			t.Fatalf("error %v is neither io.EOF nor errMalformedStream", err)
		}
		if grew, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(src)); grew > ceiling {
			t.Fatalf("%d bytes of input allocated %d, ceiling %d", len(src), grew, ceiling)
		}
		if took > FuzzDeadline {
			t.Fatalf("%d bytes of input took %v", len(src), took)
		}
	})
}
