package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/wire_golden.json")

// The wire golden pins what a client of the shard sees on every request
// edge (buffered single, batch, SSE stream, coalesced singles) and on every
// refusal, byte for byte: status, envelope code, the trace and digest
// headers, and the body with only its clock fields blanked. It exists so
// the handlers can be restructured freely — the file was generated before
// the three hand-copied paths were merged and must not move when they are.
// Regenerate (only for an intended wire change) with
//
//	go test ./internal/server -run TestWireGolden -update

// wireCell is one recorded exchange.
type wireCell struct {
	Name   string `json:"name"`
	Status int    `json:"status"`
	// Code is the envelope code of a refusal (non-200 body or terminal
	// error frame).
	Code string `json:"code,omitempty"`
	// Trace reports whether the answer carried X-Resilient-Trace; Digest
	// whether the stamped digest (header, or frame id + trailer on a stream)
	// verified over the received bytes.
	Trace       bool   `json:"trace_header"`
	Digest      string `json:"digest"`
	ContentType string `json:"content_type"`
	RetryAfter  string `json:"retry_after,omitempty"`
	// Body is the JSON body (the terminal frame's data on a stream) with
	// the clock fields blanked, key order and number formatting as sent.
	Body json.RawMessage `json:"body"`
}

var (
	clockNumber = regexp.MustCompile(`"(wall_seconds|queue_ms|solve_ms|uptime_seconds)":[-+0-9.eE]+`)
	clockTrace  = regexp.MustCompile(`"trace_id":"[^"]*"`)
)

func blankClocks(raw []byte) json.RawMessage {
	raw = clockNumber.ReplaceAll(bytes.TrimSpace(raw), []byte(`"$1":0`))
	return clockTrace.ReplaceAll(raw, []byte(`"trace_id":""`))
}

// exchange issues one request and records the answer. A streamed answer is
// read to its terminal frame, which becomes the body. It reports failures
// with t.Errorf only, so it may run off the test goroutine.
func exchange(t *testing.T, name, method, url string, body []byte, stream bool) wireCell {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	cell := wireCell{Name: name}
	if err != nil {
		t.Error(err)
		return cell
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if stream {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return cell
	}
	defer resp.Body.Close()
	cell = wireCell{
		Name:        name,
		Status:      resp.StatusCode,
		Trace:       resp.Header.Get(api.TraceHeader) != "",
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
	}
	var raw []byte
	stamp := resp.Header.Get(api.DigestHeader)
	if strings.HasPrefix(cell.ContentType, "text/event-stream") {
		rd := api.NewSSEReader(resp.Body) // verifies every frame's id digest
		for {
			ev, err := rd.Next()
			if err != nil {
				t.Errorf("%s: stream ended without a terminal frame: %v", name, err)
				return cell
			}
			if ev.Terminal() {
				raw = append(raw, rd.LastFrameData()...)
				if ev.Error != nil {
					cell.Code = ev.Error.Code
				}
				break
			}
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Errorf("%s: draining stream: %v", name, err)
		}
		stamp = resp.Trailer.Get(api.DigestHeader)
	} else {
		if raw, err = io.ReadAll(resp.Body); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			var e api.Error
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Errorf("%s: status %d body is not an envelope: %s", name, resp.StatusCode, raw)
			}
			cell.Code = e.Code
		}
	}
	switch {
	case stamp == "":
		cell.Digest = "absent"
	case api.VerifyDigest(stamp, raw):
		cell.Digest = "ok"
	default:
		cell.Digest = "MISMATCH"
	}
	if id := resp.Header.Get(api.TraceHeader); id != "" && cell.Code == "" &&
		!bytes.Contains(raw, []byte(`"trace_id":"`+id+`"`)) {
		t.Errorf("%s: body does not carry the header's trace id %s", name, id)
	}
	cell.Body = blankClocks(raw)
	return cell
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func specRequest(t *testing.T, gen string, n int, alpha float64) api.SolveRequest {
	t.Helper()
	spec, err := harness.NewMatrixSpec(gen, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return api.SolveRequest{Matrix: &spec, Seed: 7, Alpha: alpha}
}

// holdWorkers parks every solve inside the pre-solve hook until release is
// closed; entered receives once per parked solve.
func holdWorkers(s *Server) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 16)
	release = make(chan struct{})
	s.testHookPreSolve = func() {
		entered <- struct{}{}
		<-release
	}
	return entered, release
}

func TestWireGolden(t *testing.T) {
	var cells []wireCell
	add := func(c wireCell) { cells = append(cells, c) }

	for _, mode := range []struct {
		tag   string
		alpha float64
	}{{"clean", 0}, {"alpha", 1.0 / 16}} {
		_, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8, ShardLabel: "g0"})
		solveURL, batchURL := ts.URL+"/v1/solve", ts.URL+"/v1/solve/batch"
		name := func(n string) string { return mode.tag + "/" + n }

		single := mustJSON(t, specRequest(t, "poisson2d", 225, mode.alpha))
		add(exchange(t, name("single miss"), http.MethodPost, solveURL, single, false))
		add(exchange(t, name("single hit"), http.MethodPost, solveURL, single, false))

		rhs := []api.BatchRHS{{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4}}
		for _, solver := range []string{"cg", "pcg"} {
			breq := api.BatchSolveRequest{SolveRequest: specRequest(t, "poisson2d", 100, mode.alpha), RHS: rhs}
			breq.Solver = solver
			add(exchange(t, name("batch k=4 "+solver), http.MethodPost, batchURL, mustJSON(t, breq), false))
		}

		streamed := mustJSON(t, specRequest(t, "tridiag", 64, mode.alpha))
		add(exchange(t, name("stream terminal frame"), http.MethodPost, solveURL, streamed, true))

		// Two same-identity singles queue behind a blocker on another
		// matrix and are merged into one 2-wide block (a second server, so
		// the hook is in place before its workers ever read it).
		s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8, ShardLabel: "g0"})
		solveURL = ts.URL + "/v1/solve"
		entered, release := holdWorkers(s)
		blocker := make(chan wireCell, 1)
		blocking := mustJSON(t, specRequest(t, "poisson2d", 64, mode.alpha))
		go func() { blocker <- exchange(t, name("blocker"), http.MethodPost, solveURL, blocking, false) }()
		<-entered
		pair := make([]chan wireCell, 2)
		for i := range pair {
			pair[i] = make(chan wireCell, 1)
			req := specRequest(t, "poisson2d", 225, mode.alpha)
			req.Seed = int64(i + 1)
			body := mustJSON(t, req)
			go func(i int) {
				pair[i] <- exchange(t, name("coalesced pair seed "+string(rune('1'+i))), http.MethodPost, solveURL, body, false)
			}(i)
			waitFor(t, func() bool { return s.sched.depth() >= i+1 })
		}
		close(release)
		<-blocker
		add(<-pair[0])
		add(<-pair[1])
	}

	// Inline matrices are labelled by content fingerprint, not by spec, and
	// an exhausted iteration budget is a 200 with solve_error set.
	{
		_, ts := testServer(t, Config{Concurrency: 1, ShardLabel: "g0"})
		inline := api.SolveRequest{Seed: 7, Inline: &api.InlineCSR{
			Rows: 3, Cols: 3,
			Rowidx: []int{0, 2, 5, 7},
			Colid:  []int{0, 1, 0, 1, 2, 1, 2},
			Val:    []float64{4, -1, -1, 4, -1, -1, 4},
		}}
		add(exchange(t, "single inline", http.MethodPost, ts.URL+"/v1/solve", mustJSON(t, inline), false))

		// An operand that breaks the method down by itself — not positive
		// definite, or with ‖b‖² outside the normal range — is a 200 with a
		// typed solve_error as well: it takes the solve to find out.
		for _, edge := range []struct {
			tag string
			f   float64
		}{{"not SPD", -1}, {"out of scale", 1e-170}} {
			broken := inline
			broken.Inline = &api.InlineCSR{Rows: 3, Cols: 3, Rowidx: inline.Inline.Rowidx, Colid: inline.Inline.Colid}
			for _, v := range inline.Inline.Val {
				broken.Inline.Val = append(broken.Inline.Val, edge.f*v)
			}
			add(exchange(t, "single inline "+edge.tag, http.MethodPost, ts.URL+"/v1/solve", mustJSON(t, broken), false))
			add(exchange(t, "batch inline "+edge.tag, http.MethodPost, ts.URL+"/v1/solve/batch",
				mustJSON(t, api.BatchSolveRequest{SolveRequest: broken, RHS: []api.BatchRHS{{Seed: 1}, {Seed: 2}}}), false))
		}

		starved := specRequest(t, "poisson2d", 225, 0)
		starved.MaxIters = 3
		add(exchange(t, "single solve error", http.MethodPost, ts.URL+"/v1/solve", mustJSON(t, starved), false))
		add(exchange(t, "stream solve error", http.MethodPost, ts.URL+"/v1/solve", mustJSON(t, starved), true))
		add(exchange(t, "batch k=2 solve error", http.MethodPost, ts.URL+"/v1/solve/batch",
			mustJSON(t, api.BatchSolveRequest{SolveRequest: starved, RHS: []api.BatchRHS{{Seed: 1}, {Seed: 2}}}), false))
	}

	// Refusals that never reach the queue.
	{
		_, ts := testServer(t, Config{Concurrency: 1, ShardLabel: "g0"})
		badInline := mustJSON(t, api.SolveRequest{Inline: &api.InlineCSR{
			Rows: 2, Cols: 2, Rowidx: []int{0, 1}, Colid: []int{0}, Val: []float64{1},
		}})
		for _, edge := range []struct{ tag, path string }{{"single", "/v1/solve"}, {"batch", "/v1/solve/batch"}} {
			url := ts.URL + edge.path
			add(exchange(t, edge.tag+" 405", http.MethodGet, url, nil, false))
			add(exchange(t, edge.tag+" bad json", http.MethodPost, url, []byte("{not json"), false))
			add(exchange(t, edge.tag+" failed validation", http.MethodPost, url,
				[]byte(`{"matrix":{"gen":"poisson2d","n":16},"solver":"chebyshev","rhs":[{"seed":1}]}`), false))
		}
		add(exchange(t, "single bad inline csr", http.MethodPost, ts.URL+"/v1/solve", badInline, false))
		// Finite values (1e308, 1e308, 1), a column sum that is not: no ABFT
		// scheme can encode it.
		noShift := `{"inline":{"rows":2,"cols":2,"rowidx":"AAAAAAEAAAADAAAA","colid":"AAAAAAAAAAABAAAA","val":"oMjrhfPM4X+gyOuF88zhfwAAAAAAAPA/"}`
		add(exchange(t, "single inline without a shift", http.MethodPost, ts.URL+"/v1/solve", []byte(noShift+`}`), false))
		add(exchange(t, "batch inline without a shift", http.MethodPost, ts.URL+"/v1/solve/batch", []byte(noShift+`,"rhs":[{"seed":1}]}`), false))
		add(exchange(t, "batch empty rhs", http.MethodPost, ts.URL+"/v1/solve/batch",
			[]byte(`{"matrix":{"gen":"poisson2d","n":16},"rhs":[]}`), false))
		// A file spec is the command line's: refused unopened on every edge.
		fileSpec := `{"matrix":{"gen":"file","path":"/srv/a.mtx"}`
		add(exchange(t, "single file spec", http.MethodPost, ts.URL+"/v1/solve", []byte(fileSpec+`}`), false))
		add(exchange(t, "batch file spec", http.MethodPost, ts.URL+"/v1/solve/batch", []byte(fileSpec+`,"rhs":[{"seed":1}]}`), false))
		add(exchange(t, "stream file spec", http.MethodPost, ts.URL+"/v1/solve", []byte(fileSpec+`}`), true))
	}

	// Refusals decided at or after admission to the queue: a full queue, a
	// deadline that expires while queued (buffered, batched and streamed),
	// and a draining server.
	{
		s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 4, ShardLabel: "g0"})
		entered, release := holdWorkers(s)
		held := mustJSON(t, specRequest(t, "poisson2d", 64, 0))
		done := make(chan wireCell, 2)
		go func() { done <- exchange(t, "held", http.MethodPost, ts.URL+"/v1/solve", held, false) }()
		<-entered

		timed := specRequest(t, "poisson2d", 64, 0)
		timed.TimeoutMillis = 40
		add(exchange(t, "504 queued expiry", http.MethodPost, ts.URL+"/v1/solve", mustJSON(t, timed), false))
		add(exchange(t, "batch 504 queued expiry", http.MethodPost, ts.URL+"/v1/solve/batch",
			mustJSON(t, api.BatchSolveRequest{SolveRequest: timed, RHS: []api.BatchRHS{{Seed: 1}, {Seed: 2}}}), false))
		add(exchange(t, "stream expiry frame", http.MethodPost, ts.URL+"/v1/solve", mustJSON(t, timed), true))

		// The three expired tasks still occupy their slots until a worker
		// drops them; one more fills the queue.
		go func() { done <- exchange(t, "queued", http.MethodPost, ts.URL+"/v1/solve", held, false) }()
		waitFor(t, func() bool { return s.sched.depth() >= 4 })
		add(exchange(t, "429 full queue", http.MethodPost, ts.URL+"/v1/solve", held, false))
		add(exchange(t, "stream 429 full queue", http.MethodPost, ts.URL+"/v1/solve", held, true))

		s.StartDraining()
		add(exchange(t, "503 draining", http.MethodPost, ts.URL+"/v1/solve", held, false))
		add(exchange(t, "batch 503 draining", http.MethodPost, ts.URL+"/v1/solve/batch",
			mustJSON(t, api.BatchSolveRequest{SolveRequest: specRequest(t, "poisson2d", 64, 0), RHS: []api.BatchRHS{{Seed: 1}}}), false))
		close(release)
		for i := 0; i < 2; i++ {
			if c := <-done; c.Status != http.StatusOK {
				t.Errorf("%s: status %d, want 200 once released", c.Name, c.Status)
			}
		}
	}

	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "wire_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantCells []wireCell
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("golden file does not parse: %v", err)
	}
	if len(wantCells) != len(cells) {
		t.Fatalf("golden has %d cells, run produced %d", len(wantCells), len(cells))
	}
	for i := range cells {
		g, _ := json.Marshal(cells[i])
		w, _ := json.Marshal(wantCells[i])
		if !bytes.Equal(g, w) {
			t.Errorf("cell %q differs:\n got %s\nwant %s", cells[i].Name, g, w)
		}
	}
	if !t.Failed() {
		t.Fatal("golden file differs from the run only in formatting; regenerate with -update")
	}
}
