// Package fault implements the silent-error injector used by the
// experiments, following Section 5.1 of the paper:
//
//   - Faults are bit flips striking independently at each iteration, with an
//     exponential distribution of inter-arrival times. With the iteration
//     cost Titer normalised to 1, the number of flips per iteration is
//     Poisson with mean α, where the per-word rate is λ = α/M and M is the
//     total number of corruptible memory words.
//   - Flips can strike the matrix representation (the Val, Colid and Rowidx
//     arrays of the CSR structure) or any entry of the solver vectors
//     (r, p, q, x for CG).
//   - Selective reliability: checksums, checksum operations, verification,
//     checkpoint and recovery are never corrupted. The injector therefore
//     never touches those — they are simply not registered as targets.
//
// The injector is deterministic for a fixed seed, making every experiment
// reproducible.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitflip"
	"repro/internal/sparse"
)

// Target identifies a corruptible memory region.
type Target uint8

// The corruptible regions of the resilient CG state.
const (
	TargetVal     Target = iota // matrix nonzero values (float64)
	TargetColid                 // matrix column indices (int)
	TargetRowidx                // matrix row pointers (int)
	TargetVecR                  // residual vector r
	TargetVecP                  // search direction p
	TargetVecQ                  // SpMxV output q = Ap
	TargetVecX                  // iterate x
	TargetVecZ                  // preconditioned residual z = M·r (PCG)
	TargetMVal                  // preconditioner nonzero values (float64)
	TargetMColid                // preconditioner column indices (int)
	TargetMRowidx               // preconditioner row pointers (int)
	numTargets
)

// indexBits caps the bits flipped in index words (Colid, Rowidx): bits 0–29
// give both in-range corruptions, which ABFT corrects, and far out-of-range
// ones, which it detects. Every campaign and golden is drawn with this cap.
const indexBits = 30

// String returns the short name used in logs and statistics.
func (t Target) String() string {
	switch t {
	case TargetVal:
		return "Val"
	case TargetColid:
		return "Colid"
	case TargetRowidx:
		return "Rowidx"
	case TargetVecR:
		return "r"
	case TargetVecP:
		return "p"
	case TargetVecQ:
		return "q"
	case TargetVecX:
		return "x"
	case TargetVecZ:
		return "z"
	case TargetMVal:
		return "MVal"
	case TargetMColid:
		return "MColid"
	case TargetMRowidx:
		return "MRowidx"
	default:
		return fmt.Sprintf("Target(%d)", uint8(t))
	}
}

// Event records one injected bit flip.
type Event struct {
	Target Target
	Index  int  // element index within the target array
	Bit    uint // flipped bit position
}

// State is the corruptible memory image the injector strikes. Vector slots
// may be nil (e.g. q outside the SpMxV), in which case they are skipped.
type State struct {
	A *sparse.CSR
	// M is the explicit sparse preconditioner of the PCG drivers (nil for
	// plain CG).
	M *sparse.CSR
	R []float64
	P []float64
	Q []float64
	X []float64
	// Z is the preconditioned residual z = M·r of the PCG drivers.
	Z []float64
}

// vector returns the slice backing a vector target, or nil.
func (s *State) vector(t Target) []float64 {
	switch t {
	case TargetVecR:
		return s.R
	case TargetVecP:
		return s.P
	case TargetVecQ:
		return s.Q
	case TargetVecX:
		return s.X
	case TargetVecZ:
		return s.Z
	default:
		return nil
	}
}

// Config parameterises an Injector.
type Config struct {
	// Alpha is the expected number of faults per iteration (the paper's α;
	// the per-word rate is λ = α/M with Titer normalised to 1).
	Alpha float64
	// Seed drives the deterministic RNG.
	Seed int64
	// Disabled lists targets that must never be struck (used by ablations,
	// e.g. matrix-only or vector-only campaigns).
	Disabled []Target
}

// Stats aggregates what the injector has done.
type Stats struct {
	Iterations int64 // iterations advanced
	Flips      int64 // total bit flips injected
	PerTarget  [numTargets]int64
}

// Injector draws fault counts and applies bit flips to a State.
type Injector struct {
	alpha    float64
	rng      *rand.Rand
	disabled [numTargets]bool
	stats    Stats
}

// New returns an injector for the given configuration.
func New(cfg Config) *Injector {
	if cfg.Alpha < 0 {
		panic("fault: negative Alpha")
	}
	in := &Injector{alpha: cfg.Alpha, rng: rand.New(rand.NewSource(cfg.Seed))}
	for _, t := range cfg.Disabled {
		in.disabled[t] = true
	}
	return in
}

// Alpha returns the configured expected faults per iteration.
func (in *Injector) Alpha() float64 { return in.alpha }

// Stats returns a copy of the accumulated statistics.
func (in *Injector) Stats() Stats { return in.stats }

// poissonCount draws the number of faults striking one iteration
// (mean Alpha). Uses Knuth's method, which is exact and fast for the small
// means used by the experiments (α ≤ 1).
func (in *Injector) poissonCount() int {
	if in.alpha == 0 {
		return 0
	}
	l := math.Exp(-in.alpha)
	k := 0
	p := 1.0
	for {
		p *= in.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// InjectIterationSplit advances one iteration: it draws a Poisson count of
// faults, each at a uniformly random corruptible word of st, and applies
// them. The drivers' q (and, for PCG, z) vectors are produced mid-iteration
// by a protected product, so faults drawn against TargetVecQ or TargetVecZ
// are *not* applied (the buffer would be overwritten) but returned
// separately, to be applied by the caller right after the corresponding
// product via ApplyEvent. This models a silent error in the product
// computation itself, struck with probability proportional to the buffer's
// share of the memory — still one uniform draw over all M words, as in the
// paper's setup.
func (in *Injector) InjectIterationSplit(st *State) (applied, deferred []Event) {
	in.stats.Iterations++
	k := in.poissonCount()
	for i := 0; i < k; i++ {
		ev, ok := in.choose(st)
		if !ok {
			continue
		}
		if ev.Target == TargetVecQ || ev.Target == TargetVecZ {
			deferred = append(deferred, ev)
			continue
		}
		in.apply(st, ev)
		applied = append(applied, ev)
	}
	return applied, deferred
}

// ApplyEvent applies a previously chosen event (used for deferred q faults).
func (in *Injector) ApplyEvent(st *State, ev Event) {
	in.apply(st, ev)
}

// choose picks a uniformly random enabled word and bit without applying the
// flip.
func (in *Injector) choose(st *State) (Event, bool) {
	// Build the cumulative layout of enabled regions.
	type region struct {
		t    Target
		size int
	}
	var regions []region
	add := func(t Target, size int) {
		if size > 0 && !in.disabled[t] {
			regions = append(regions, region{t, size})
		}
	}
	if st.A != nil {
		add(TargetVal, len(st.A.Val))
		add(TargetColid, len(st.A.Colid))
		add(TargetRowidx, len(st.A.Rowidx))
	}
	if st.M != nil {
		add(TargetMVal, len(st.M.Val))
		add(TargetMColid, len(st.M.Colid))
		add(TargetMRowidx, len(st.M.Rowidx))
	}
	add(TargetVecR, len(st.R))
	add(TargetVecP, len(st.P))
	add(TargetVecQ, len(st.Q))
	add(TargetVecX, len(st.X))
	add(TargetVecZ, len(st.Z))

	total := 0
	for _, r := range regions {
		total += r.size
	}
	if total == 0 {
		return Event{}, false
	}
	w := in.rng.Intn(total)
	var tgt Target
	idx := 0
	for _, r := range regions {
		if w < r.size {
			tgt, idx = r.t, w
			break
		}
		w -= r.size
	}

	ev := Event{Target: tgt, Index: idx}
	if tgt == TargetColid || tgt == TargetRowidx || tgt == TargetMColid || tgt == TargetMRowidx {
		ev.Bit = uint(in.rng.Intn(indexBits))
	} else {
		ev.Bit = uint(in.rng.Intn(bitflip.Float64Bits))
	}
	return ev, true
}

// apply performs the bit flip described by ev and records it in the stats.
func (in *Injector) apply(st *State, ev Event) {
	switch ev.Target {
	case TargetVal:
		st.A.Val[ev.Index] = bitflip.Float64(st.A.Val[ev.Index], ev.Bit)
	case TargetColid:
		st.A.Colid[ev.Index] = bitflip.Int(st.A.Colid[ev.Index], ev.Bit)
	case TargetRowidx:
		st.A.Rowidx[ev.Index] = bitflip.Int(st.A.Rowidx[ev.Index], ev.Bit)
	case TargetMVal:
		st.M.Val[ev.Index] = bitflip.Float64(st.M.Val[ev.Index], ev.Bit)
	case TargetMColid:
		st.M.Colid[ev.Index] = bitflip.Int(st.M.Colid[ev.Index], ev.Bit)
	case TargetMRowidx:
		st.M.Rowidx[ev.Index] = bitflip.Int(st.M.Rowidx[ev.Index], ev.Bit)
	default:
		v := st.vector(ev.Target)
		v[ev.Index] = bitflip.Float64(v[ev.Index], ev.Bit)
	}
	in.stats.Flips++
	in.stats.PerTarget[ev.Target]++
}
