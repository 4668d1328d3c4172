package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Streaming solve contract. POST /v1/solve with "Accept:
// text/event-stream" answers with schema-versioned server-sent events:
// one frame per solver iteration (kind "iteration"), one per
// detection/correction episode (kind "detection"), and exactly one
// terminal frame — the full SolveResponse (kind "result") or the unified
// error envelope (kind "error"). Every frame carries its own content
// digest in the SSE id field, and the terminal frame's digest is repeated
// in the X-Resilient-Digest HTTP trailer so a buffered client and a
// streaming client verify the same end-to-end integrity contract.

// WantsStream reports whether the request asked for the event stream —
// the one reading of the Accept header, for the shard that answers it, the
// router that passes it through and the mock shard that stands in.
func WantsStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// SolveEvent kinds.
const (
	// EventIteration reports one solver iteration: Iteration and the
	// current residual Rho.
	EventIteration = "iteration"
	// EventDetection reports a fault-detection episode: the detection and
	// correction deltas since the previous episode, and whether the solver
	// rolled back to a checkpoint.
	EventDetection = "detection"
	// EventResult is the terminal success frame; Result carries the same
	// SolveResponse a buffered request would have received, bit-identical
	// deterministic fields included.
	EventResult = "result"
	// EventError is the terminal failure frame; Error carries the same
	// envelope a buffered request would have received as a non-200 body.
	EventError = "error"
)

// Hedging headers. Hedging is transparent to correctness (replicas are
// bit-identical by construction) so it defaults on when the router
// enables it; a client opts a single request out with "X-Resilient-Hedge:
// off" (e.g. resload's unhedged baseline pass).
const (
	// HedgeHeader is the request header controlling per-request hedging.
	HedgeHeader = "X-Resilient-Hedge"
	// HedgeOff is the HedgeHeader value that disables hedging for one
	// request.
	HedgeOff = "off"
	// HedgedHeader is set to "1" on relayed responses that were won by the
	// hedge (the second, late-armed request) rather than the primary.
	HedgedHeader = "X-Resilient-Hedged"
)

// SolveEvent is one frame of a streamed solve. Kind selects which fields
// are meaningful; Schema stamps every frame like any other wire body.
type SolveEvent struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Iteration and Rho report solver progress (kinds iteration and
	// detection).
	Iteration int     `json:"iteration,omitempty"`
	Rho       float64 `json:"rho,omitempty"`
	// Detections/Corrections are the episode deltas (kind detection).
	Detections  int64 `json:"detections,omitempty"`
	Corrections int64 `json:"corrections,omitempty"`
	// RolledBack reports whether the episode rolled back to a checkpoint.
	RolledBack bool `json:"rolled_back,omitempty"`
	// Result is the terminal payload (kind result).
	Result *SolveResponse `json:"result,omitempty"`
	// Error is the terminal failure payload (kind error).
	Error *Error `json:"error,omitempty"`
}

// Terminal reports whether this event ends the stream.
func (e *SolveEvent) Terminal() bool {
	return e.Kind == EventResult || e.Kind == EventError
}

// MarshalSSE encodes one event as a complete SSE frame:
//
//	event: <kind>
//	id: <digest of the data line>
//	data: <compact JSON>
//	<blank line>
//
// The id field carries the frame's own content digest so a decoder can
// verify every frame, not only the terminal one.
func MarshalSSE(ev *SolveEvent) ([]byte, error) {
	if ev.Schema == 0 {
		ev.Schema = SchemaVersion
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "event: %s\nid: %s\ndata: %s\n\n", ev.Kind, DigestBytes(data), data)
	return b.Bytes(), nil
}

// SSEWriter emits SolveEvents as server-sent events over an HTTP
// response, flushing each frame so clients observe progress live. The
// terminal frame's content digest is recorded in the DigestHeader
// trailer (NewSSEWriter declares it before headers go out).
type SSEWriter struct {
	w       http.ResponseWriter
	f       http.Flusher
	started bool
}

// NewSSEWriter prepares w for an event stream. It returns an error —
// before any header is written — when the ResponseWriter cannot flush, so
// the caller can fall back to the buffered path. Send writes the status
// and stream headers lazily on the first frame.
func NewSSEWriter(w http.ResponseWriter) (*SSEWriter, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("response writer cannot stream (no http.Flusher)")
	}
	return &SSEWriter{w: w, f: f}, nil
}

// Send emits one frame and flushes it. For terminal frames (result,
// error) it also stamps the frame's content digest into the DigestHeader
// trailer.
func (s *SSEWriter) Send(ev *SolveEvent) error {
	if !s.started {
		h := s.w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		// Declared before WriteHeader, assigned after the body: net/http
		// sends it as a proper HTTP trailer.
		h.Set("Trailer", DigestHeader)
		s.w.WriteHeader(http.StatusOK)
		s.started = true
	}
	if ev.Schema == 0 {
		ev.Schema = SchemaVersion
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	digest := DigestBytes(data)
	if ev.Terminal() {
		s.w.Header().Set(DigestHeader, digest)
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\nid: %s\ndata: %s\n\n", ev.Kind, digest, data); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// errMalformedStream is wrapped by every error SSEReader.Next returns for the
// bytes of a stream — a malformed line or frame, a digest mismatch, a frame
// cut off by the end of the stream — as opposed to the error of the
// transport beneath it.
var errMalformedStream = errors.New("malformed event stream")

// SSEReader decodes a solve event stream frame by frame, verifying each
// frame's id digest against its data bytes.
type SSEReader struct {
	sc       *bufio.Scanner
	lastData []byte
}

// LastFrameData returns the raw data bytes of the most recent frame Next
// decoded — the exact wire bytes the stream trailer's digest covers.
func (r *SSEReader) LastFrameData() []byte { return r.lastData }

// NewSSEReader wraps an event-stream body.
func NewSSEReader(r io.Reader) *SSEReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxResponseBytes)
	return &SSEReader{sc: sc}
}

// Next returns the next decoded event, io.EOF at a clean end of stream,
// an error wrapping errMalformedStream for malformed or corrupt frames, or
// the transport's error. A frame whose id digest does not match its data
// bytes is corrupt — the streaming analogue of a body-digest mismatch.
func (r *SSEReader) Next() (*SolveEvent, error) {
	var kind, id string
	var data []byte
	seen := false
	for r.sc.Scan() {
		line := r.sc.Text()
		if line == "" {
			if !seen {
				continue // leading keep-alive blank
			}
			return r.assemble(kind, id, data)
		}
		seen = true
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		case strings.HasPrefix(line, ":"):
			// comment/keep-alive line, ignore
		default:
			return nil, fmt.Errorf("%w: SSE line %q", errMalformedStream, line)
		}
	}
	if err := r.sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("%w: %v", errMalformedStream, err)
	} else if err != nil {
		return nil, err
	}
	if seen {
		// Connection died inside a frame.
		return nil, fmt.Errorf("%w: stream truncated mid-frame", errMalformedStream)
	}
	return nil, io.EOF
}

func (r *SSEReader) assemble(kind, id string, data []byte) (*SolveEvent, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: SSE frame %q has no data", errMalformedStream, kind)
	}
	if !VerifyDigest(id, data) {
		return nil, fmt.Errorf("%w: SSE frame digest mismatch (corrupt frame)", errMalformedStream)
	}
	r.lastData = data
	var ev SolveEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		return nil, fmt.Errorf("%w: decoding SSE frame: %v", errMalformedStream, err)
	}
	if ev.Schema != SchemaVersion {
		return nil, fmt.Errorf("%w: SSE frame schema %d, want %d", errMalformedStream, ev.Schema, SchemaVersion)
	}
	if kind != "" && ev.Kind != kind {
		return nil, fmt.Errorf("%w: SSE frame kind %q does not match event line %q", errMalformedStream, ev.Kind, kind)
	}
	return &ev, nil
}
