package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestTracerMintAndReuse(t *testing.T) {
	tr := NewTracer("router", 8)
	a := tr.Start("")
	if a.ID() == "" || !ValidTraceID(a.ID()) {
		t.Fatalf("minted ID invalid: %q", a.ID())
	}
	minted := a.ID()
	tr.Finish(a)

	b := tr.Start("client-supplied_ID-42")
	if b.ID() != "client-supplied_ID-42" {
		t.Fatalf("valid inbound ID not reused: %q", b.ID())
	}
	tr.Finish(b)

	c := tr.Start("bad id with spaces")
	if c.ID() == "bad id with spaces" || !ValidTraceID(c.ID()) {
		t.Fatalf("invalid inbound ID should be replaced, got %q", c.ID())
	}
	if c.ID() == minted {
		t.Fatalf("minted IDs must be unique")
	}
	tr.Finish(c)
}

func TestValidTraceID(t *testing.T) {
	good := []string{"a", "A-Z_0-9", strings.Repeat("x", 64)}
	bad := []string{"", strings.Repeat("x", 65), "has space", "semi;colon", "new\nline", "ünïcode"}
	for _, id := range good {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false, want true", id)
		}
	}
	for _, id := range bad {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true, want false", id)
		}
	}
}

func TestTraceSpansAndSolverEvents(t *testing.T) {
	tr := NewTracer("shard", 4)
	a := tr.Start("trace-1")
	a.AddSpan(SpanQueueWait, "", "", 100, 1000)
	a.AddSpan(SpanSolve, "s0", "pcg", 1100, 5000)
	a.Solver.Iterations = 17
	a.RecordDetection(9, 1, 1, false)
	a.FillSolver(SolverTallies{Iterations: 17, TotalIterations: 19, Detections: 1, Corrections: 1, Checkpoints: 3})
	a.SetError("")
	tr.Finish(a)

	recs := tr.Snapshot(0, "trace-1")
	if len(recs) != 1 {
		t.Fatalf("by-ID snapshot: got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if len(rec.Spans) != 2 || rec.Spans[0].Name != SpanQueueWait || rec.Spans[1].Name != SpanSolve {
		t.Fatalf("spans mangled: %+v", rec.Spans)
	}
	if rec.Spans[1].Shard != "s0" || rec.Spans[1].Detail != "pcg" {
		t.Fatalf("span attribution lost: %+v", rec.Spans[1])
	}
	if rec.Solver == nil || rec.Solver.Iterations != 17 || rec.Solver.TotalIterations != 19 || rec.Solver.Checkpoints != 3 {
		t.Fatalf("solver tallies wrong: %+v", rec.Solver)
	}
	if len(rec.Detections) != 1 || rec.Detections[0].Iteration != 9 {
		t.Fatalf("detection events wrong: %+v", rec.Detections)
	}
}

func TestTraceSpanOverflowCountsDrops(t *testing.T) {
	tr := NewTracer("shard", 2)
	a := tr.Start("overflow")
	for i := 0; i < maxSpans+5; i++ {
		a.AddSpan(SpanRetry, "", "", int64(i), 1)
	}
	tr.Finish(a)
	rec := tr.Snapshot(1, "")[0]
	if len(rec.Spans) != maxSpans || rec.DroppedSpans != 5 {
		t.Fatalf("got %d spans / %d dropped, want %d / 5", len(rec.Spans), rec.DroppedSpans, maxSpans)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer("router", 3)
	for _, id := range []string{"t1", "t2", "t3", "t4"} {
		a := tr.Start(id)
		tr.Finish(a)
	}
	if tr.Total() != 4 {
		t.Fatalf("Total = %d, want 4", tr.Total())
	}
	recs := tr.Snapshot(0, "")
	if len(recs) != 3 {
		t.Fatalf("ring retained %d, want 3", len(recs))
	}
	if recs[0].ID != "t4" || recs[1].ID != "t3" || recs[2].ID != "t2" {
		t.Fatalf("newest-first order wrong: %s %s %s", recs[0].ID, recs[1].ID, recs[2].ID)
	}
	if got := tr.Snapshot(0, "t1"); len(got) != 0 {
		t.Fatalf("evicted trace still visible: %+v", got)
	}
	if got := tr.Snapshot(2, ""); len(got) != 2 || got[0].ID != "t4" {
		t.Fatalf("last-N wrong: %+v", got)
	}
}

func TestTracerPoolReuseResetsState(t *testing.T) {
	tr := NewTracer("shard", 4)
	a := tr.Start("first")
	a.AddSpan(SpanSolve, "", "", 0, 1)
	a.SetError("boom")
	a.Solver.Iterations = 99
	a.RecordDetection(1, 1, 0, true)
	tr.Finish(a)

	b := tr.Start("second")
	defer tr.Finish(b)
	if b.nspans != 0 || b.errMsg != "" || b.Solver.Iterations != 0 || b.ndets != 0 {
		t.Fatalf("pooled Active not reset: %+v", b)
	}
}

func TestAddSpanConcurrent(t *testing.T) {
	tr := NewTracer("router", 4)
	a := tr.Start("race")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.AddSpan(SpanAttempt, "s", "", int64(i), 1)
			}
		}()
	}
	wg.Wait()
	tr.Finish(a)
	rec := tr.Snapshot(1, "")[0]
	if len(rec.Spans)+rec.DroppedSpans != 800 {
		t.Fatalf("lost spans: %d kept + %d dropped != 800", len(rec.Spans), rec.DroppedSpans)
	}
}

func TestNilActiveIsSafe(t *testing.T) {
	var a *Active
	a.AddSpan(SpanSolve, "", "", 0, 0)
	a.SetError("x")
	a.RecordDetection(0, 0, 0, false)
	a.FillSolver(SolverTallies{})
	var tr Tracer
	tr.Finish(nil)
}
