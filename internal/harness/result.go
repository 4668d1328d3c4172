package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sparse"
)

// SchemaVersion identifies the result record layout. Bump it on any
// incompatible change to Result's JSON shape; the golden-file test pins the
// current layout.
const SchemaVersion = 1

// MatrixInfo echoes the materialised matrix so records are interpretable
// without rebuilding it.
type MatrixInfo struct {
	Label   string  `json:"label"`
	N       int     `json:"n"`
	NNZ     int     `json:"nnz"`
	Density float64 `json:"density"`
}

// Result is the machine-readable record of one scenario run: the scenario
// echo, the materialised matrix, and the aggregate of the independent
// trials. All fields except WallSeconds are deterministic in the scenario
// seed for any worker count (the Canonical method zeroes the rest).
type Result struct {
	// Schema is SchemaVersion at the time the record was produced.
	Schema int `json:"schema"`
	// Scenario echoes the exact scenario that produced the record (with
	// defaults resolved), so it can be replayed from the JSON alone.
	Scenario Scenario `json:"scenario"`
	// Workers is the size of the trial fan-out the run used (0 = shared
	// default pool; a shard, which runs one solve per record, stamps 1); it
	// never changes the record's deterministic fields.
	Workers int `json:"workers"`
	// Matrix describes the materialised matrix.
	Matrix MatrixInfo `json:"matrix"`
	// Reps is the number of trials aggregated below; Converged of them
	// reached the tolerance and Failures did not (failed trials still
	// contribute their accumulated time, like the paper's campaigns).
	Reps      int `json:"reps"`
	Converged int `json:"converged"`
	Failures  int `json:"failures"`
	// D and S are the verification and checkpoint intervals actually used
	// (after model optimisation), from trial 0.
	D int `json:"d"`
	S int `json:"s"`
	// MeanUsefulIters and MeanTotalIters average the converging work and
	// the total executed work (including rolled-back iterations).
	MeanUsefulIters float64 `json:"mean_useful_iters"`
	MeanTotalIters  float64 `json:"mean_total_iters"`
	// Fault accounting, summed over all trials.
	Detections     int64 `json:"detections"`
	Corrections    int64 `json:"corrections"`
	Rollbacks      int64 `json:"rollbacks"`
	Checkpoints    int64 `json:"checkpoints"`
	FaultsInjected int64 `json:"faults_injected"`
	// MeanSimTime is the mean modeled execution time over the trials with
	// the half-width of its 95% confidence interval; SimTimes keeps the raw
	// per-trial samples so shard merges can recompute exact statistics.
	MeanSimTime float64   `json:"mean_sim_time"`
	CI95SimTime float64   `json:"ci95_sim_time"`
	SimTimes    []float64 `json:"sim_times"`
	// MaxFinalResidual is the worst true relative residual over the trials.
	MaxFinalResidual float64 `json:"max_final_residual"`
	// FlopsPerIter is the raw per-iteration flop count on this matrix (the
	// quantity the modeled times are priced from).
	FlopsPerIter int64 `json:"flops_per_iter"`
	// ResidualHash is an FNV-1a fingerprint of trial 0's per-iteration
	// recurrence history — the determinism and regression gate: it must be
	// identical across worker counts and stable across commits.
	ResidualHash string `json:"residual_hash"`
	// BaselineTime and Overhead are reported when the scenario requested
	// the unprotected reference: Overhead = MeanSimTime/BaselineTime − 1.
	// If the reference solve itself failed, BaselineError records why and
	// the other two fields are absent.
	BaselineTime  float64 `json:"baseline_time,omitempty"`
	Overhead      float64 `json:"overhead,omitempty"`
	BaselineError string  `json:"baseline_error,omitempty"`
	// WallSeconds is the measured wall-clock time of the run — the only
	// non-deterministic field besides Shard.
	WallSeconds float64 `json:"wall_seconds"`
	// Shard is provenance, not content: the label of the service process
	// that produced the record in a sharded deployment (empty outside
	// one). After a failover the same scenario may legitimately be served
	// by different shards, so Canonical ignores it.
	Shard string `json:"shard,omitempty"`
	// TraceID is provenance like Shard: the distributed trace the solve
	// was recorded under (query it at /v1/tracez on the tier that served
	// the request). Canonical ignores it.
	TraceID string `json:"trace_id,omitempty"`
}

// Trial is one rep's contribution to the aggregate record.
type Trial struct {
	Stats  core.Stats
	Failed bool
}

// NewResult aggregates trial outcomes into a record — the one constructor
// behind campaign records and the solve service's responses. label names
// the matrix (a spec's String, or a content fingerprint where there is no
// spec to name) and hash is HashBits of trial 0's recurrence history. The
// caller stamps what only it knows: Workers, WallSeconds and provenance.
func NewResult(sc Scenario, label string, a *sparse.CSR, trials []Trial, hash uint64) Result {
	r := Result{
		Schema:   SchemaVersion,
		Scenario: sc,
		Matrix: MatrixInfo{
			Label:   label,
			N:       a.Rows,
			NNZ:     a.NNZ(),
			Density: a.Density(),
		},
		Reps:         len(trials),
		FlopsPerIter: core.CGFlopsPerIter(a),
		ResidualHash: FormatHash(hash),
	}
	if sc.Solver == "bicgstab" {
		r.FlopsPerIter *= 2
	}
	var useful, total float64
	r.SimTimes = make([]float64, len(trials))
	for i, o := range trials {
		if o.Failed {
			r.Failures++
		}
		if o.Stats.Converged {
			r.Converged++
		}
		if i == 0 {
			r.D, r.S = o.Stats.D, o.Stats.S
		}
		useful += float64(o.Stats.UsefulIterations)
		total += float64(o.Stats.TotalIterations)
		r.Detections += o.Stats.Detections
		r.Corrections += o.Stats.Corrections
		r.Rollbacks += o.Stats.Rollbacks
		r.Checkpoints += o.Stats.Checkpoints
		r.FaultsInjected += o.Stats.FaultsInjected
		r.SimTimes[i] = o.Stats.SimTime
		if o.Stats.FinalResidual > r.MaxFinalResidual {
			r.MaxFinalResidual = o.Stats.FinalResidual
		}
	}
	if n := float64(len(trials)); n > 0 {
		r.MeanUsefulIters = useful / n
		r.MeanTotalIters = total / n
	}
	r.MeanSimTime, r.CI95SimTime = meanCI(r.SimTimes)
	return r
}

// HashHistory fingerprints a per-iteration scalar history with FNV-1a over
// the IEEE-754 bit patterns, prefixed by the length.
func HashHistory(hist []float64) string {
	return FormatHash(HashBits(hist))
}

// HashBits is the allocation-free core of HashHistory: it returns the raw
// 64-bit FNV-1a state instead of the formatted string, so a request hot
// path can fingerprint a trajectory without touching the heap and defer
// the formatting (FormatHash) to response encoding.
func HashBits(hist []float64) uint64 {
	h := uint64(sparse.FNV1aOffset64)
	h = sparse.FNVMix64(h, uint64(len(hist)))
	for _, v := range hist {
		h = sparse.FNVMix64(h, math.Float64bits(v))
	}
	return h
}

// FormatHash renders HashBits in the canonical record form.
func FormatHash(bits uint64) string {
	return fmt.Sprintf("fnv1a:%016x", bits)
}

// Canonical returns the record with its non-deterministic fields zeroed:
// two canonical records from the same scenario and seed must be identical
// for any worker count. Tests and Merge compare these.
func (r Result) Canonical() Result {
	r.WallSeconds = 0
	r.Workers = 0
	r.Shard = ""
	r.TraceID = ""
	return r
}

// WriteResults encodes records as an indented JSON array (the resbench
// on-disk format).
func WriteResults(w io.Writer, rs []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadResults decodes a resbench JSON array.
func ReadResults(r io.Reader) ([]Result, error) {
	var rs []Result
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, fmt.Errorf("harness: decoding results: %w", err)
	}
	return rs, nil
}

// Merge combines shard outputs from a campaign split across processes into
// one sorted record set. Records for the same scenario must agree in
// canonical form (they are deduplicated); a conflict — two shards claiming
// the same scenario with different deterministic content — is an error,
// because it means the shards did not run the same code or seeds.
func Merge(shards ...[]Result) ([]Result, error) {
	byName := make(map[string]Result)
	var order []string
	for _, shard := range shards {
		for _, r := range shard {
			name := r.Scenario.Name
			prev, ok := byName[name]
			if !ok {
				byName[name] = r
				order = append(order, name)
				continue
			}
			a, err := json.Marshal(prev.Canonical())
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(r.Canonical())
			if err != nil {
				return nil, err
			}
			if string(a) != string(b) {
				return nil, fmt.Errorf("harness: conflicting results for scenario %q", name)
			}
		}
	}
	sort.Strings(order)
	out := make([]Result, 0, len(order))
	for _, name := range order {
		out = append(out, byName[name])
	}
	return out, nil
}
