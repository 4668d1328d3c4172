// Package obs is the dependency-free telemetry layer of the solve
// service: per-request distributed traces (Tracer/Active), a small
// Prometheus-text metrics registry (Registry/Histogram) and the shared
// logging and build-info helpers the cmd mains use. It imports nothing
// but the standard library, so every tier — api, server, router, the
// daemons — can depend on it without cycles, and the instrumentation it
// adds to the warm solve path is allocation-free by construction: an
// Active trace is pooled, its spans and solver events live in fixed
// arrays, and the hot-path hooks only increment fields on a struct that
// already exists.
package obs

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span capacity per trace and detection-event capacity per trace. Fixed
// arrays, not slices: recording a span into a live trace never touches
// the heap, and a trace that overflows reports how many it dropped
// instead of growing.
const (
	maxSpans      = 24
	maxDetections = 16
)

// Canonical span names recorded by the tiers. The set is open — a span
// is just a name — but sharing the constants keeps the two tiers'
// vocabularies aligned with the documented contract.
const (
	SpanRoute        = "route"
	SpanAttempt      = "attempt"
	SpanRetry        = "retry"
	SpanHedgeArm     = "hedge-arm"
	SpanStream       = "stream"
	SpanDigestVerify = "digest-verify"
	SpanQueueWait    = "queue-wait"
	SpanCoalesce     = "coalesce"
	SpanCacheFill    = "cache-fill"
	SpanSolve        = "solve"
)

// SolverTallies aggregates the solver-side events of one traced solve:
// the iteration counts and the ABFT fault accounting, exactly the
// numbers core.Stats reports for the same run.
type SolverTallies struct {
	Iterations      int64 `json:"iterations"`
	TotalIterations int64 `json:"total_iterations,omitempty"`
	Detections      int64 `json:"detections,omitempty"`
	Corrections     int64 `json:"corrections,omitempty"`
	Rollbacks       int64 `json:"rollbacks,omitempty"`
	Checkpoints     int64 `json:"checkpoints,omitempty"`
	FaultsInjected  int64 `json:"faults_injected,omitempty"`
}

// SpanRecord is one completed span as exposed at /v1/tracez: a stage
// name, optional shard attribution and detail, and monotonic offsets
// relative to the trace start.
type SpanRecord struct {
	Name           string  `json:"name"`
	Shard          string  `json:"shard,omitempty"`
	Detail         string  `json:"detail,omitempty"`
	OffsetMillis   float64 `json:"offset_ms"`
	DurationMillis float64 `json:"duration_ms"`
}

// DetectionRecord is one fault-detection episode observed live through
// the solver's OnDetection hook, with the iteration it fired at.
type DetectionRecord struct {
	Iteration   int   `json:"iteration"`
	Detections  int64 `json:"detections"`
	Corrections int64 `json:"corrections"`
	RolledBack  bool  `json:"rolled_back"`
}

// TraceRecord is one completed trace in the tracez ring — the wire
// shape served by GET /v1/tracez on both tiers.
type TraceRecord struct {
	ID             string            `json:"id"`
	Tier           string            `json:"tier"`
	StartUnixNanos int64             `json:"start_unix_nanos"`
	DurationMillis float64           `json:"duration_ms"`
	Error          string            `json:"error,omitempty"`
	Spans          []SpanRecord      `json:"spans"`
	DroppedSpans   int               `json:"dropped_spans,omitempty"`
	Solver         *SolverTallies    `json:"solver,omitempty"`
	Detections     []DetectionRecord `json:"detection_events,omitempty"`
}

// span and detection are the fixed-array in-flight representations.
type span struct {
	name, shard, detail   string
	offsetNanos, durNanos int64
}

// Active is one in-flight trace. It is drawn from the owning Tracer's
// pool by Start and returned by Finish; between the two it is owned by
// the request it traces. Spans may be added from concurrent goroutines
// (the router's hedged fetches race) — AddSpan locks. Detection events
// are written only from the solving goroutine, whose completion the
// handler observes through the task's done channel before reading them,
// so recording them takes no lock and allocates nothing.
type Active struct {
	id        string
	start     time.Time // monotonic reference for span offsets
	wallStart int64

	mu           sync.Mutex
	spans        [maxSpans]span
	nspans       int
	droppedSpans int
	errMsg       string

	// Solver holds the solver's tallies, which the handler fills from the
	// exact core.Stats once the solve completes; a streamed solve's hooks
	// append its detection episodes through RecordDetection as it runs.
	Solver       SolverTallies
	solverFilled bool
	dets         [maxDetections]DetectionRecord
	ndets        int
}

// ID returns the trace identifier (inbound or minted).
func (a *Active) ID() string { return a.id }

// Now returns the monotonic offset from the trace start in nanoseconds —
// the time base every span offset is expressed in.
func (a *Active) Now() int64 { return time.Since(a.start).Nanoseconds() }

// AddSpan records one completed stage. Safe for concurrent callers;
// spans beyond maxSpans are counted as dropped instead of grown.
func (a *Active) AddSpan(name, shard, detail string, offsetNanos, durNanos int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.nspans < maxSpans {
		a.spans[a.nspans] = span{name: name, shard: shard, detail: detail, offsetNanos: offsetNanos, durNanos: durNanos}
		a.nspans++
	} else {
		a.droppedSpans++
	}
	a.mu.Unlock()
}

// SetError annotates the trace with its terminal failure (the error
// code or message the request was answered with).
func (a *Active) SetError(msg string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.errMsg = msg
	a.mu.Unlock()
}

// RecordDetection appends one fault-detection episode observed through
// the solver's OnDetection hook. Called from the solving goroutine only;
// allocation-free (fixed array, drop past capacity).
func (a *Active) RecordDetection(iteration int, detections, corrections int64, rolledBack bool) {
	if a == nil {
		return
	}
	if a.ndets < maxDetections {
		a.dets[a.ndets] = DetectionRecord{Iteration: iteration, Detections: detections, Corrections: corrections, RolledBack: rolledBack}
		a.ndets++
	}
}

// FillSolver overwrites the solver tallies with the exact statistics of
// the completed solve. The live hooks count the same events as they
// happen; the stats are authoritative and additionally carry the fields
// the hooks never see (checkpoints, injected faults, re-executed work).
func (a *Active) FillSolver(t SolverTallies) {
	if a == nil {
		return
	}
	a.Solver = t
	a.solverFilled = true
}

// Tracer owns a tier's traces: it mints IDs, pools Active traces and
// keeps the last ringSize completed traces for /v1/tracez.
type Tracer struct {
	tier     string
	idPrefix uint64
	idCtr    atomic.Uint64
	finished atomic.Uint64

	pool sync.Pool

	mu    sync.Mutex
	ring  []TraceRecord
	next  int
	count int
}

// DefaultTraceRing is the completed-trace ring capacity of both tiers.
const DefaultTraceRing = 128

// NewTracer builds a tracer for the tier ("router" or "shard") keeping
// the last ringSize completed traces (<=0 selects DefaultTraceRing).
func NewTracer(tier string, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultTraceRing
	}
	t := &Tracer{
		tier: tier,
		// The prefix makes IDs from distinct processes (and distinct
		// tracers in one process) disjoint without any coordination:
		// start time, pid and the tier label all mix in.
		idPrefix: mixID(uint64(time.Now().UnixNano()), uint64(os.Getpid()), tier),
		ring:     make([]TraceRecord, ringSize),
	}
	t.pool.New = func() any { return new(Active) }
	return t
}

// mixID is a small FNV-1a fold of the seeding material.
func mixID(a, b uint64, s string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(a)
	mix(b)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// newID mints a process-unique trace identifier.
func (t *Tracer) newID() string {
	return fmt.Sprintf("%016x%08x", t.idPrefix, t.idCtr.Add(1))
}

// ValidTraceID reports whether an inbound trace identifier is
// acceptable: 1–64 characters drawn from [A-Za-z0-9_-]. Anything else
// is replaced with a minted ID rather than echoed into logs and
// responses verbatim.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Start begins a trace, reusing the inbound identifier when it is valid
// and minting one otherwise. The returned Active is owned by the caller
// until Finish.
func (t *Tracer) Start(inboundID string) *Active {
	a := t.pool.Get().(*Active)
	if !ValidTraceID(inboundID) {
		inboundID = t.newID()
	}
	a.id = inboundID
	a.start = time.Now()
	a.wallStart = a.start.UnixNano()
	a.nspans = 0
	a.droppedSpans = 0
	a.errMsg = ""
	a.Solver = SolverTallies{}
	a.solverFilled = false
	a.ndets = 0
	return a
}

// Finish completes the trace: the Active's content is copied into the
// ring as a TraceRecord and the Active returns to the pool. The Active
// must not be used after Finish.
func (t *Tracer) Finish(a *Active) {
	if a == nil {
		return
	}
	a.mu.Lock()
	rec := TraceRecord{
		ID:             a.id,
		Tier:           t.tier,
		StartUnixNanos: a.wallStart,
		DurationMillis: float64(a.Now()) / 1e6,
		Error:          a.errMsg,
		DroppedSpans:   a.droppedSpans,
	}
	rec.Spans = make([]SpanRecord, a.nspans)
	for i := 0; i < a.nspans; i++ {
		s := a.spans[i]
		rec.Spans[i] = SpanRecord{
			Name:           s.name,
			Shard:          s.shard,
			Detail:         s.detail,
			OffsetMillis:   float64(s.offsetNanos) / 1e6,
			DurationMillis: float64(s.durNanos) / 1e6,
		}
	}
	a.mu.Unlock()
	if a.solverFilled || a.Solver != (SolverTallies{}) {
		st := a.Solver
		rec.Solver = &st
	}
	if a.ndets > 0 {
		rec.Detections = append([]DetectionRecord(nil), a.dets[:a.ndets]...)
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.mu.Unlock()
	t.finished.Add(1)
	t.pool.Put(a)
}

// Total is the number of traces finished since the tracer started
// (monotonic; the ring keeps only the most recent of them).
func (t *Tracer) Total() uint64 { return t.finished.Load() }

// Snapshot returns completed traces, newest first. With a non-empty id
// only traces with that exact identifier are returned (a request that
// crossed a tier twice — retried through another path — may legitimately
// appear more than once); otherwise the most recent n (<=0 = all
// retained).
func (t *Tracer) Snapshot(n int, id string) []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, t.count)
	for i := 0; i < t.count; i++ {
		// Walk backwards from the most recently written slot.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		rec := t.ring[idx]
		if id != "" && rec.ID != id {
			continue
		}
		out = append(out, rec)
		if id == "" && n > 0 && len(out) >= n {
			break
		}
	}
	return out
}
