// Command resload is the load generator for resilientd and resrouter:
// it drives a running service with a deterministic concurrent mix of
// solve requests (matrices × solvers × schemes), measures throughput and
// latency percentiles, and cross-checks determinism — every response for
// the same request cell must carry the same residual-history hash.
//
//	resload -addr http://127.0.0.1:8723 -n 64 -c 8
//	resload -addr ... -json -out load.json
//	resload -addr ... -check        # nonzero exit unless all OK and deterministic
//
// After every run resload reads the target's /v1/statusz. A resrouter
// answers with its router section, which is folded into the record; when
// that section carries chaos counters (the router runs -chaos-plan), -check
// also fails unless the router caught at least one of the injected bit
// flips. Sharded deployments are verified end to end against the router:
//
//	resload -addr http://127.0.0.1:8900 -check
//	resload -addr ... -shards http://127.0.0.1:9001,http://127.0.0.1:9002 -check
//
// -shards re-issues one request per cell directly against the listed shard
// addresses and fails -check unless every direct residual hash is
// bit-identical to the routed one — the determinism gate across routing
// paths, before and after failover.
//
// Recorded campaigns replace the flag axes for production-shaped replay:
//
//	resload -addr ... -record campaign.json     # write the mix + observed hashes
//	resload -addr ... -replay campaign.json -check
//
// A replayed run drives the recorded request mix (and request count and
// concurrency, unless overridden) and fails -check unless every cell
// reproduces its recorded residual hash. A campaign recorded at schema 1
// replays unless a cell carries an inline operand or a lane's zero hash,
// which schema 2 changed; such a campaign is refused by the cell's name
// and must be recorded again.
//
// Streamed solves:
//
//	resload -addr ... -stream -check          # every solve streamed as SSE
//
// -stream issues every request with Accept: text/event-stream, verifies
// each frame and the stream trailer, and re-checks every terminal hash
// against a buffered solve.
//
// The emitted record is schema-versioned JSON in the same style as the
// campaign and benchmark tooling, so a script or a test can gate on it.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Schema identifies the resload record layout; bump on incompatible
// changes. Schema 2 came with api schema 2, which changed what a campaign
// cell's request and hash may hold (parseCampaign).
const Schema = 2

// Record is one load run.
type Record struct {
	Schema   int    `json:"schema"`
	Addr     string `json:"addr"`
	Requests int    `json:"requests"`
	// Concurrency is the number of client workers that issued them.
	Concurrency int `json:"concurrency"`
	// Outcome counts. OK are HTTP 200 with no solve error; Rejected are
	// 429 (queue full), Expired are 504 (deadline), SolveErrors are 200s
	// whose solver failed, TransportErrors never got a response.
	OK              int `json:"ok"`
	SolveErrors     int `json:"solve_errors"`
	Rejected        int `json:"rejected"`
	Expired         int `json:"expired"`
	TransportErrors int `json:"transport_errors"`
	OtherErrors     int `json:"other_errors"`
	// DigestMismatches counts responses whose stamped content digest did
	// not match the received bytes — corrupt bytes that reached this
	// client. Must be zero: the router discards corrupt shard responses
	// before relay, so any count here means the last hop corrupted data
	// or the router's verification failed.
	DigestMismatches int `json:"digest_mismatches"`
	// ErrorCodes counts refusals by the machine-readable code of the
	// unified error envelope (e.g. "saturated" vs "expired" vs
	// "draining"), so a mixed failure mode is attributable without
	// guessing from HTTP statuses.
	ErrorCodes map[string]int `json:"error_codes,omitempty"`
	// CacheHits counts responses served from a warm per-matrix entry.
	CacheHits int `json:"cache_hits"`
	// WallSeconds spans first send to last response; Throughput is
	// OK / WallSeconds.
	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"throughput_rps"`
	// Latency summarises the per-request round-trip times of all
	// responses (errors included — they consumed client time too).
	Latency api.LatencySummary `json:"latency"`
	// Mix reports per-cell determinism: DistinctHashes must be 1 for
	// every cell with at least one OK response.
	Mix           []MixCell `json:"mix"`
	Deterministic bool      `json:"deterministic"`
	// Replay is set when the mix came from a recorded campaign file.
	Replay *ReplayCheck `json:"replay,omitempty"`
	// Direct is set when -shards cross-checked routed hashes against
	// direct single-shard serving.
	Direct *DirectCheck `json:"direct,omitempty"`
	// Batch is set when the mix carried batched cells: each deterministic
	// batched cell's per-RHS hashes re-checked against single solves.
	Batch *BatchCheck `json:"batch,omitempty"`
	// Router is set when the target is a resrouter: the router section of
	// its /v1/statusz after the run.
	Router *RouterSummary `json:"router,omitempty"`
	// Stream is set in -stream mode: streamed terminal results
	// cross-checked against buffered answers for the same cells.
	Stream *StreamCheck `json:"stream,omitempty"`
}

// StreamCheck reports the -stream mode gates: every request of the main
// pass was a streamed solve, and each deterministic cell's terminal
// hash is re-checked against a buffered solve of the same request.
type StreamCheck struct {
	// Requests counts streamed solves issued; Events the SSE frames
	// decoded (and digest-verified) across all of them.
	Requests int64 `json:"requests"`
	Events   int64 `json:"events"`
	crossCheck
}

// crossCheck is the tally every cross-check shares: Checks counts the
// requests re-issued (buffered, one at a time), Mismatches those whose
// residual hash differed from the one the run answered, Errors those that
// failed outright.
type crossCheck struct {
	Checks     int `json:"checks"`
	Mismatches int `json:"mismatches"`
	Errors     int `json:"errors"`
}

// recheck re-issues one cell and scores it against the hash the run
// answered.
func (c *crossCheck) recheck(ac *api.Client, cl *cell, want string) {
	c.Checks++
	switch out := post(ac, 0, cl, false); {
	case out.transport || out.digestBad || out.code != "" || out.solveErr:
		c.Errors++
	case out.hash != want:
		c.Mismatches++
	}
}

// ReplayCheck reports how a replayed campaign compared to its recording.
type ReplayCheck struct {
	Source string `json:"source"`
	// RecordedCells counts mix cells that carried a recorded hash;
	// Mismatches counts those whose replayed hash differed.
	RecordedCells int `json:"recorded_cells"`
	Mismatches    int `json:"mismatches"`
}

// BatchCheck reports the batched-vs-single determinism cross-check: every
// right-hand side of a deterministic batched cell is re-solved alone via
// /v1/solve and its residual hash must be bit-identical to the one the
// batch answered for that RHS.
type BatchCheck struct {
	crossCheck
}

// DirectCheck reports the routed-vs-direct hash cross-check.
type DirectCheck struct {
	Shards []string `json:"shards"`
	crossCheck
}

// RouterSummary condenses the target's statusz router section after the run.
type RouterSummary struct {
	Shards        int   `json:"shards"`
	HealthyShards int   `json:"healthy_shards"`
	Routed        int64 `json:"routed"`
	Failovers     int64 `json:"failovers"`
	Unroutable    int64 `json:"unroutable"`
	DistinctKeys  int   `json:"distinct_keys"`
	// Integrity echoes the router's end-to-end verification counters;
	// Chaos is present when the router runs a fault-injection plan.
	Integrity api.IntegrityStats `json:"integrity"`
	Chaos     *api.ChaosStats    `json:"chaos,omitempty"`
}

// Campaign is the recorded request mix (-record / -replay): the
// schema-versioned file format that lets a production traffic shape be
// replayed against a candidate build or routing topology.
type Campaign struct {
	Schema int `json:"schema"`
	// Requests and Concurrency reproduce the run shape on replay (flags
	// override them when set explicitly).
	Requests    int            `json:"requests"`
	Concurrency int            `json:"concurrency"`
	Cells       []CampaignCell `json:"cells"`
}

// CampaignCell is one recorded request template.
type CampaignCell struct {
	Name    string           `json:"name"`
	Request api.SolveRequest `json:"request"`
	// RHS, when set, makes this a batched cell: the request is posted to
	// /v1/solve/batch with these per-RHS seeds (Request's own seeds are
	// ignored, matching the server's batch semantics).
	RHS []api.BatchRHS `json:"rhs,omitempty"`
	// ResidualHash is the hash the cell answered with when recorded
	// (set only if the cell was deterministic); on replay it becomes
	// the expected value. Batched cells join their per-RHS hashes with
	// "+" in RHS order.
	ResidualHash string `json:"residual_hash,omitempty"`
}

// MixCell is one request template of the mix and its aggregate outcome.
type MixCell struct {
	Name           string `json:"name"`
	Requests       int    `json:"requests"`
	OK             int    `json:"ok"`
	DistinctHashes int    `json:"distinct_hashes"`
	// ResidualHash is the (unique) hash when the cell is deterministic.
	ResidualHash string `json:"residual_hash,omitempty"`
	// RecordedHash echoes the campaign's expected hash in replay mode.
	RecordedHash string `json:"recorded_hash,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "resload: %v\n", err)
		os.Exit(1)
	}
}

// cell is one template of the request mix.
type cell struct {
	name string
	req  api.SolveRequest
	// rhs, when non-empty, posts the cell to /v1/solve/batch with these
	// per-RHS seeds; the cell's hash is the per-RHS hashes joined with "+".
	rhs []api.BatchRHS
	// wantHash is the recorded residual hash in replay mode ("" = none).
	wantHash string
}

// outcome is one request's result.
type outcome struct {
	cell int
	// code is the machine-readable error-envelope code of a refusal (a
	// non-200 answer or a stream's terminal error frame); "" means the
	// solve was answered.
	code      string
	hash      string
	cacheHit  bool
	solveErr  bool
	transport bool
	// digestBad marks a response whose stamped X-Resilient-Digest did not
	// match the received bytes: corrupt bytes reached this client.
	digestBad bool
	// events counts the SSE frames a streamed solve delivered.
	events  int64
	latency time.Duration
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("resload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8723", "base URL of the resilientd service")
		n         = fs.Int("n", 48, "total requests to issue")
		c         = fs.Int("c", 8, "concurrent client workers")
		matrices  = fs.String("matrices", "poisson2d:225,tridiag:400", "comma-separated gen:n matrix specs")
		solvers   = fs.String("solvers", "cg,pcg,bicgstab", "comma-separated solvers")
		schemes   = fs.String("schemes", "abft-correction,unprotected", "comma-separated protection schemes")
		alpha     = fs.Float64("alpha", 0, "expected silent errors per iteration (protected cells only)")
		seed      = fs.Int64("seed", 7, "request seed (shared by all cells)")
		batchK    = fs.Int("batch", 1, "right-hand sides per request: >1 posts each cell to /v1/solve/batch with this many per-RHS seeds and cross-checks every RHS against a single solve")
		timeoutMS = fs.Int("timeout-ms", 0, "per-request deadline sent to the server (0 = server default)")
		jsonOut   = fs.Bool("json", false, "emit the JSON record on stdout instead of the text summary")
		outPath   = fs.String("out", "", "also write the JSON record to this file")
		check     = fs.Bool("check", false, "exit nonzero unless every request succeeded, every cell hashed identically, and every enabled cross-check passed")
		logFormat = fs.String("log-format", "text", "log line format: text or json")
		quiet     = fs.Bool("q", false, "suppress progress output")
		shardsCSV = fs.String("shards", "", "comma-separated direct shard base URLs: re-issue each cell directly and cross-check residual hashes against the routed run")
		streamOn  = fs.Bool("stream", false, "issue every solve as a streamed (SSE) request and cross-check each terminal hash against a buffered solve")
		recordTo  = fs.String("record", "", "write the request mix and observed hashes as a replayable campaign file")
		replayOf  = fs.String("replay", "", "drive the mix from a recorded campaign file instead of the flag axes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streamOn && *batchK > 1 {
		return fmt.Errorf("-stream drives /v1/solve only; it cannot be combined with -batch > 1")
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var mix []cell
	var replay *ReplayCheck
	if *replayOf != "" {
		camp, err := loadCampaign(*replayOf)
		if err != nil {
			return err
		}
		replay = &ReplayCheck{Source: *replayOf}
		for _, cc := range camp.Cells {
			mix = append(mix, cell{name: cc.Name, req: cc.Request, rhs: cc.RHS, wantHash: cc.ResidualHash})
			if cc.ResidualHash != "" {
				replay.RecordedCells++
			}
		}
		// The campaign reproduces its run shape unless overridden.
		if !explicit["n"] && camp.Requests > 0 {
			*n = camp.Requests
		}
		if !explicit["c"] && camp.Concurrency > 0 {
			*c = camp.Concurrency
		}
	} else {
		var err error
		mix, err = buildMix(*matrices, *solvers, *schemes, *alpha, *seed, *batchK, *timeoutMS)
		if err != nil {
			return err
		}
	}
	if *n < 1 || *c < 1 {
		return fmt.Errorf("need -n ≥ 1 and -c ≥ 1")
	}
	logger := obs.NewLogger(stderr, *logFormat, *quiet)
	logger.Info("firing", "requests", *n, "cells", len(mix), "workers", *c, "target", *addr)

	ac := clientFor(*addr, *timeoutMS)
	outcomes, wall := fire(ac, mix, *n, *c, *streamOn)
	rec := aggregate(*addr, *c, mix, outcomes, wall)
	rec.Replay = replay
	if replay != nil {
		for _, cl := range rec.Mix {
			// A replayed cell fails only when it answered with a single,
			// different hash; nondeterminism is already Deterministic=false.
			if cl.RecordedHash != "" && cl.ResidualHash != "" && cl.ResidualHash != cl.RecordedHash {
				replay.Mismatches++
			}
		}
	}
	if *streamOn {
		rec.Stream = streamCheck(ac, mix, rec.Mix, outcomes)
	}
	if *shardsCSV != "" {
		rec.Direct = directCheck(splitList(*shardsCSV), mix, rec.Mix, *timeoutMS)
	}
	for i := range mix {
		if len(mix[i].rhs) > 0 {
			rec.Batch = batchCheck(ac, mix, rec.Mix)
			break
		}
	}
	// A statusz that does not answer only warns: this run's own failures
	// already surface under -check.
	rs, err := fetchRouterz(*addr)
	if err != nil {
		logger.Warn("target statusz unreachable", "error", err.Error())
	}
	rec.Router = rs
	if *recordTo != "" {
		if err := writeCampaign(*recordTo, *n, *c, rec.Mix, mix); err != nil {
			return err
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	} else if err := writeSummary(stdout, rec); err != nil {
		return err
	}

	if *check {
		switch {
		case rec.DigestMismatches > 0:
			return fmt.Errorf("check failed: %d corrupt responses reached the client (content digest mismatch)", rec.DigestMismatches)
		case rec.OK != rec.Requests:
			return fmt.Errorf("check failed: %d of %d requests did not succeed (rejected=%d expired=%d transport=%d solve=%d other=%d)",
				rec.Requests-rec.OK, rec.Requests, rec.Rejected, rec.Expired, rec.TransportErrors, rec.SolveErrors, rec.OtherErrors)
		case !rec.Deterministic:
			return fmt.Errorf("check failed: repeated identical requests returned differing residual hashes")
		case rec.Throughput <= 0:
			return fmt.Errorf("check failed: zero throughput")
		case rec.Replay != nil && rec.Replay.Mismatches > 0:
			return fmt.Errorf("check failed: %d of %d replayed cells did not reproduce their recorded residual hash",
				rec.Replay.Mismatches, rec.Replay.RecordedCells)
		case rec.Direct != nil && (rec.Direct.Mismatches > 0 || rec.Direct.Errors > 0):
			return fmt.Errorf("check failed: direct-vs-routed cross-check: %d mismatches, %d errors over %d checks",
				rec.Direct.Mismatches, rec.Direct.Errors, rec.Direct.Checks)
		case rec.Batch != nil && (rec.Batch.Mismatches > 0 || rec.Batch.Errors > 0):
			return fmt.Errorf("check failed: batched-vs-single cross-check: %d mismatches, %d errors over %d checks",
				rec.Batch.Mismatches, rec.Batch.Errors, rec.Batch.Checks)
		case rec.Stream != nil && (rec.Stream.Checks == 0 || rec.Stream.Mismatches > 0 || rec.Stream.Errors > 0):
			return fmt.Errorf("check failed: streamed-vs-buffered cross-check: %d mismatches, %d errors over %d checks",
				rec.Stream.Mismatches, rec.Stream.Errors, rec.Stream.Checks)
		}
		// Router counters (failovers, unroutable) are cumulative over the
		// router's lifetime, not this run's, so they are reported but
		// never gated on — this run's own failures already surface above.
		// The chaos gate is the exception: a chaos campaign runs against
		// a router started fresh for the experiment.
		if rs != nil && rs.Chaos != nil && rs.Chaos.BitFlips > 0 && rs.Integrity.CorruptResponses == 0 {
			return fmt.Errorf("check failed: chaos injected %d bit flips but the router detected no corrupt responses — the digest check is vacuous",
				rs.Chaos.BitFlips)
		}
	}
	return nil
}

// loadCampaign reads and validates a recorded campaign file. A
// truncated or partially-written file — the torn-write shapes a crashed
// recorder or interrupted copy leaves behind — fails with a clean error
// naming the byte offset where decoding stopped, never a panic.
func loadCampaign(path string) (Campaign, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, err
	}
	return parseCampaign(path, raw)
}

// changedAtSchema2 names the first cell of a schema-1 campaign that
// schema 2 reads differently, or "" when there is none, so that every
// other schema-1 campaign loads as it was recorded. A cell differs when
// its request carries an inline operand, whose arrays were decimal numbers
// and are base64 words since, or when its hash pins the zero hash a batch
// lane that could not start answered before it answered its empty
// history's, as a single request does.
func changedAtSchema2(raw []byte) string {
	var old struct {
		Cells []struct {
			Name    string `json:"name"`
			Request struct {
				Inline json.RawMessage `json:"inline"`
			} `json:"request"`
			ResidualHash string `json:"residual_hash"`
		} `json:"cells"`
	}
	json.Unmarshal(raw, &old) // the full decode reports what this one cannot read
	for _, c := range old.Cells {
		if c.Request.Inline != nil || strings.Contains(c.ResidualHash, "fnv1a:0000000000000000") {
			return c.Name
		}
	}
	return ""
}

// parseCampaign decodes and validates the bytes of the campaign file named
// path.
func parseCampaign(path string, raw []byte) (Campaign, error) {
	var camp Campaign
	if len(bytes.TrimSpace(raw)) == 0 {
		return camp, fmt.Errorf("campaign %s: file is empty (truncated or never written?)", path)
	}
	var head struct {
		Schema int `json:"schema"`
	}
	if json.Unmarshal(raw, &head) == nil && head.Schema == 1 {
		if name := changedAtSchema2(raw); name != "" {
			return camp, fmt.Errorf("campaign %s: schema 1, this resload speaks %d: cell %q holds an inline operand or a lane's zero hash, "+
				"whose meaning changed in schema %d; record the campaign again", path, Schema, name, Schema)
		}
	}
	if err := json.Unmarshal(raw, &camp); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return camp, fmt.Errorf("campaign %s: malformed JSON at byte offset %d of %d (truncated or partially-written file?): %v",
				path, syn.Offset, len(raw), err)
		case errors.As(err, &typ):
			return camp, fmt.Errorf("campaign %s: unexpected %s at byte offset %d (field %q)",
				path, typ.Value, typ.Offset, typ.Field)
		default:
			return camp, fmt.Errorf("campaign %s: %w", path, err)
		}
	}
	if camp.Schema != Schema && camp.Schema != 1 {
		return camp, fmt.Errorf("campaign %s: schema %d, this resload speaks %d", path, camp.Schema, Schema)
	}
	if len(camp.Cells) == 0 {
		return camp, fmt.Errorf("campaign %s: no cells", path)
	}
	for i := range camp.Cells {
		cc := &camp.Cells[i]
		cc.Request.WithDefaults()
		if len(cc.RHS) > 0 {
			breq := api.BatchSolveRequest{SolveRequest: cc.Request, RHS: cc.RHS}
			if err := breq.Validate(); err != nil {
				return camp, fmt.Errorf("campaign %s: cell %q: %w", path, cc.Name, err)
			}
			continue
		}
		if err := cc.Request.Validate(); err != nil {
			return camp, fmt.Errorf("campaign %s: cell %q: %w", path, cc.Name, err)
		}
	}
	return camp, nil
}

// writeCampaign records the run's mix as a replayable campaign: each
// cell's request template plus the hash it answered with (when the cell
// was deterministic — a cell that never got an OK, or disagreed with
// itself, records no hash).
func writeCampaign(path string, n, c int, cells []MixCell, mix []cell) error {
	camp := Campaign{Schema: Schema, Requests: n, Concurrency: c}
	for i, m := range mix {
		cc := CampaignCell{Name: m.name, Request: m.req, RHS: m.rhs}
		if cells[i].DistinctHashes == 1 {
			cc.ResidualHash = cells[i].ResidualHash
		}
		camp.Cells = append(camp.Cells, cc)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(camp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clientFor builds the typed client of one target. It carries a hard
// timeout above any server-side deadline, so a wedged server surfaces as
// transport errors instead of hanging the run forever.
func clientFor(addr string, timeoutMS int) *api.Client {
	timeout := 2 * time.Minute
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS)*time.Millisecond + 30*time.Second
	}
	return api.NewClient(addr, api.WithTimeout(timeout))
}

// directCheck re-issues one request per deterministic cell straight at
// the listed shard addresses (round-robin) and compares the direct
// residual hash with the routed one: the determinism gate across routing
// paths. Any shard can serve any cell — the solve is a pure function of
// the request — so shard choice only spreads the load.
func directCheck(shards []string, mix []cell, cells []MixCell, timeoutMS int) *DirectCheck {
	dc := &DirectCheck{Shards: shards}
	if len(shards) == 0 {
		return dc
	}
	for i := range mix {
		if cells[i].OK == 0 || cells[i].DistinctHashes != 1 {
			continue
		}
		dc.recheck(clientFor(shards[i%len(shards)], timeoutMS), &mix[i], cells[i].ResidualHash)
	}
	return dc
}

// batchCheck re-solves every right-hand side of each deterministic batched
// cell as a single /v1/solve and compares hashes per RHS: the gate that
// batched serving answers exactly what single serving would, bit for bit.
func batchCheck(ac *api.Client, mix []cell, cells []MixCell) *BatchCheck {
	bc := &BatchCheck{}
	for i := range mix {
		m := &mix[i]
		if len(m.rhs) == 0 || cells[i].OK == 0 || cells[i].DistinctHashes != 1 {
			continue
		}
		parts := strings.Split(cells[i].ResidualHash, "+")
		if len(parts) != len(m.rhs) {
			bc.Errors++
			continue
		}
		for j, rh := range m.rhs {
			single := cell{req: m.req}
			single.req.Seed = rh.Seed
			single.req.RHSSeed = rh.RHSSeed
			bc.recheck(ac, &single, parts[j])
		}
	}
	return bc
}

// fetchRouterz snapshots the target's /v1/statusz after the run and
// returns its router section, nil when the target is not a router.
func fetchRouterz(addr string) (*RouterSummary, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sz, err := api.NewClient(addr).Statusz(ctx)
	if err != nil {
		return nil, err
	}
	rz := sz.Router
	if rz == nil {
		return nil, nil
	}
	return &RouterSummary{
		Shards:        len(rz.Shards),
		HealthyShards: rz.HealthyShards,
		Routed:        rz.Routed,
		Failovers:     rz.Failovers,
		Unroutable:    rz.Unroutable,
		DistinctKeys:  rz.Keys.Distinct,
		Integrity:     rz.Integrity,
		Chaos:         rz.Chaos,
	}, nil
}

// buildMix crosses matrices × solvers × schemes, dropping combinations
// the harness rejects (e.g. BiCGstab × online-detection, fault-injected
// unprotected), so the mix is always runnable. batch > 1 makes every cell
// a batched request of that many consecutively-seeded right-hand sides.
func buildMix(matrices, solvers, schemes string, alpha float64, seed int64, batch, timeoutMS int) ([]cell, error) {
	var specs []harness.MatrixSpec
	for _, tok := range strings.Split(matrices, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		gen, nStr, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("matrix %q: want gen:n", tok)
		}
		dim, err := strconv.Atoi(nStr)
		if err != nil || dim < 1 {
			return nil, fmt.Errorf("matrix %q: bad dimension", tok)
		}
		spec, err := harness.NewMatrixSpec(gen, dim, 0)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	var mix []cell
	for _, spec := range specs {
		for _, sv := range splitList(solvers) {
			for _, sch := range splitList(schemes) {
				spec := spec
				req := api.SolveRequest{
					Matrix: &spec, Solver: sv, Scheme: sch, Seed: seed,
					TimeoutMillis: timeoutMS,
				}
				if sch != "unprotected" {
					req.Alpha = alpha
				}
				req.WithDefaults()
				name := sv + "/" + sch + "/" + spec.String()
				if err := req.Validate(); err != nil {
					continue // unsupported axis combination
				}
				cl := cell{name: name, req: req}
				if batch > 1 {
					cl.name += fmt.Sprintf("/k%d", batch)
					for i := 0; i < batch; i++ {
						cl.rhs = append(cl.rhs, api.BatchRHS{Seed: seed + int64(i)})
					}
				}
				mix = append(mix, cl)
			}
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty request mix (every combination invalid?)")
	}
	return mix, nil
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// fire issues n requests round-robin over the mix from c workers and
// returns one outcome per request plus the measured wall time.
func fire(ac *api.Client, mix []cell, n, c int, stream bool) ([]outcome, time.Duration) {
	outcomes := make([]outcome, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				outcomes[j] = post(ac, j%len(mix), &mix[j%len(mix)], stream)
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return outcomes, time.Since(start)
}

// post issues one cell's request through the typed client, which verifies
// the stamped content digest over exactly what arrived (the client-side end
// of the integrity pipeline) and decodes refusals into the unified
// envelope: /v1/solve/batch when the cell carries per-RHS seeds, otherwise
// /v1/solve — as an event stream when stream is set, every frame
// digest-verified as it arrives and the terminal frame against the trailer.
// A batched outcome's hash is the per-RHS hashes joined with "+" in RHS
// order, so the per-cell determinism and replay machinery gate every
// right-hand side at once.
func post(ac *api.Client, cellIdx int, cl *cell, stream bool) outcome {
	out := outcome{cell: cellIdx}
	ctx := context.Background()
	var sr *api.SolveResponse
	var br *api.BatchSolveResponse
	var err error
	start := time.Now()
	switch {
	case len(cl.rhs) > 0:
		br, err = ac.SolveBatch(ctx, &api.BatchSolveRequest{SolveRequest: cl.req, RHS: cl.rhs})
	case stream:
		sr, err = ac.SolveStream(ctx, &cl.req, func(*api.SolveEvent) error {
			out.events++
			return nil
		})
	default:
		sr, err = ac.Solve(ctx, &cl.req)
	}
	out.latency = time.Since(start)
	var refusal *api.Error
	switch {
	case errors.As(err, &refusal):
		// The code tells saturation from expiry from draining regardless
		// of which tier answered.
		out.code = cmp.Or(refusal.Code, api.CodeInternal)
	case errors.Is(err, api.ErrDigestMismatch):
		out.digestBad = true
	case err != nil || (br != nil && len(br.Results) != len(cl.rhs)):
		out.transport = true
	case br != nil:
		parts := make([]string, len(br.Results))
		for i := range br.Results {
			parts[i] = br.Results[i].Result.ResidualHash
			if br.Results[i].SolveError != "" {
				out.solveErr = true
			}
		}
		out.hash = strings.Join(parts, "+")
		out.cacheHit = br.CacheHit
	default:
		out.hash = sr.Result.ResidualHash
		out.cacheHit = sr.CacheHit
		out.solveErr = sr.SolveError != ""
	}
	return out
}

// streamCheck re-issues one buffered request per deterministic cell and
// compares its hash against the streamed terminal hash: the gate that a
// streamed solve answers exactly what a buffered one would, bit for
// bit. Requests and Events aggregate the streamed pass itself.
func streamCheck(ac *api.Client, mix []cell, cells []MixCell, outcomes []outcome) *StreamCheck {
	sc := &StreamCheck{}
	for _, o := range outcomes {
		sc.Requests++
		sc.Events += o.events
	}
	for i := range mix {
		if cells[i].OK == 0 || cells[i].DistinctHashes != 1 {
			continue
		}
		sc.recheck(ac, &mix[i], cells[i].ResidualHash)
	}
	return sc
}

func aggregate(addr string, c int, mix []cell, outcomes []outcome, wall time.Duration) Record {
	rec := Record{
		Schema: Schema, Addr: addr,
		Requests: len(outcomes), Concurrency: c,
		Deterministic: true,
	}
	latencies := make([]float64, 0, len(outcomes))
	hashes := make([]map[string]int, len(mix))
	cells := make([]MixCell, len(mix))
	for i, m := range mix {
		cells[i].Name = m.name
		cells[i].RecordedHash = m.wantHash
		hashes[i] = make(map[string]int)
	}
	for _, o := range outcomes {
		cells[o.cell].Requests++
		latencies = append(latencies, float64(o.latency)/1e6)
		if o.code != "" {
			if rec.ErrorCodes == nil {
				rec.ErrorCodes = make(map[string]int)
			}
			rec.ErrorCodes[o.code]++
		}
		// Classification is by envelope code, never by HTTP status: a
		// router relaying backpressure and a shard refusing directly stamp
		// the same code even where statuses could blur (the client derives
		// the code from the status for a body that is no envelope).
		switch {
		case o.transport:
			rec.TransportErrors++
		case o.digestBad:
			rec.DigestMismatches++
		case o.code == api.CodeSaturated:
			rec.Rejected++
		case o.code == api.CodeExpired:
			rec.Expired++
		case o.code != "":
			rec.OtherErrors++
		case o.solveErr:
			rec.SolveErrors++
		default:
			rec.OK++
			cells[o.cell].OK++
			hashes[o.cell][o.hash]++
			if o.cacheHit {
				rec.CacheHits++
			}
		}
	}
	for i := range cells {
		cells[i].DistinctHashes = len(hashes[i])
		if len(hashes[i]) == 1 {
			for h := range hashes[i] {
				cells[i].ResidualHash = h
			}
		}
		if len(hashes[i]) > 1 {
			rec.Deterministic = false
		}
	}
	rec.Mix = cells
	rec.WallSeconds = wall.Seconds()
	if rec.WallSeconds > 0 {
		rec.Throughput = float64(rec.OK) / rec.WallSeconds
	}
	rec.Latency = api.SummarizeLatencies(latencies)
	return rec
}

func writeSummary(w io.Writer, rec Record) error {
	if _, err := fmt.Fprintf(w,
		"requests=%d ok=%d rejected=%d expired=%d errors=%d cache_hits=%d\nthroughput=%.1f req/s  latency p50=%.2fms p90=%.2fms p99=%.2fms p99.9=%.2fms max=%.2fms\n",
		rec.Requests, rec.OK, rec.Rejected, rec.Expired,
		rec.SolveErrors+rec.TransportErrors+rec.OtherErrors, rec.CacheHits,
		rec.Throughput, rec.Latency.P50Ms, rec.Latency.P90Ms, rec.Latency.P99Ms, rec.Latency.P999Ms, rec.Latency.MaxMs); err != nil {
		return err
	}
	if len(rec.ErrorCodes) > 0 {
		codes := make([]string, 0, len(rec.ErrorCodes))
		for c := range rec.ErrorCodes {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		parts := make([]string, len(codes))
		for i, c := range codes {
			parts[i] = fmt.Sprintf("%s=%d", c, rec.ErrorCodes[c])
		}
		if _, err := fmt.Fprintf(w, "error codes: %s\n", strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	for _, cell := range rec.Mix {
		mark := "ok"
		if cell.DistinctHashes > 1 {
			mark = "NONDETERMINISTIC"
		}
		if _, err := fmt.Fprintf(w, "%-45s n=%-3d ok=%-3d hashes=%d %s %s\n",
			cell.Name, cell.Requests, cell.OK, cell.DistinctHashes, cell.ResidualHash, mark); err != nil {
			return err
		}
	}
	if rec.Replay != nil {
		if _, err := fmt.Fprintf(w, "replay source=%s recorded_cells=%d mismatches=%d\n",
			rec.Replay.Source, rec.Replay.RecordedCells, rec.Replay.Mismatches); err != nil {
			return err
		}
	}
	if rec.Direct != nil {
		if _, err := fmt.Fprintf(w, "direct cross-check shards=%d checks=%d mismatches=%d errors=%d\n",
			len(rec.Direct.Shards), rec.Direct.Checks, rec.Direct.Mismatches, rec.Direct.Errors); err != nil {
			return err
		}
	}
	if rec.Batch != nil {
		if _, err := fmt.Fprintf(w, "batch cross-check checks=%d mismatches=%d errors=%d\n",
			rec.Batch.Checks, rec.Batch.Mismatches, rec.Batch.Errors); err != nil {
			return err
		}
	}
	if rec.Stream != nil {
		if _, err := fmt.Fprintf(w, "stream requests=%d events=%d checks=%d mismatches=%d errors=%d\n",
			rec.Stream.Requests, rec.Stream.Events, rec.Stream.Checks, rec.Stream.Mismatches, rec.Stream.Errors); err != nil {
			return err
		}
	}
	if rec.DigestMismatches > 0 {
		if _, err := fmt.Fprintf(w, "DIGEST MISMATCHES: %d corrupt responses reached this client\n", rec.DigestMismatches); err != nil {
			return err
		}
	}
	if rec.Router != nil {
		if _, err := fmt.Fprintf(w, "router shards=%d healthy=%d routed=%d failovers=%d unroutable=%d distinct_keys=%d\n",
			rec.Router.Shards, rec.Router.HealthyShards, rec.Router.Routed,
			rec.Router.Failovers, rec.Router.Unroutable, rec.Router.DistinctKeys); err != nil {
			return err
		}
		in := rec.Router.Integrity
		if _, err := fmt.Fprintf(w, "integrity digest_verified=%d corrupt_responses=%d retries_spent=%d budget_exhausted=%d\n",
			in.DigestVerified, in.CorruptResponses, in.RetriesSpent, in.BudgetExhausted); err != nil {
			return err
		}
		if ch := rec.Router.Chaos; ch != nil {
			if _, err := fmt.Fprintf(w, "chaos seed=%d requests=%d resets=%d storms_503=%d kills=%d truncations=%d bit_flips=%d latency_spikes=%d trace=%s\n",
				ch.Seed, ch.Requests, ch.Resets, ch.Storms503, ch.Kills, ch.Truncations, ch.BitFlips, ch.LatencySpikes, ch.TraceHash); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "deterministic=%v\n", rec.Deterministic)
	return err
}
