package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call it makes into the program. Start and End are
// nanoseconds since the tracer began; Parent indexes the span that caused
// this one (-1 for a root) and Op names the operation all spans of one
// request or solve share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval is already known (durations the
// program reported about itself, placed inside the round trip that carried
// them).
func (t *tracer) add(name string, start, end int64, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	t.mu.Unlock()
}

// startOf reads back a span's start (to place reported children).
func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other, so the
// covered part is the length of their union clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// byLayer folds spans by name, largest self time first.
func byLayer(spans []span) []layerTime {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerTime
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, layerTime{Name: s.Name})
		}
		rows[j].Count++
		rows[j].TotalNs += s.End - s.Start
		rows[j].SelfNs += self[i]
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfNs > rows[b].SelfNs })
	return rows
}

// selfOf collects the self times (ns) of every span with the given name.
func selfOf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Spans    []span      `json:"spans"`
}

// writeJSONLine writes v as one line of JSON to the file at path, created
// with its directory if need be and appended to or truncated as how
// (os.O_APPEND, os.O_TRUNC) says. A trace is written this way once, when the
// run ends.
func writeJSONLine(path string, how int, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|how, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
