package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/sparse"
)

// Scheme identifies how a solve is protected: one of the three resilient
// methods compared in the paper, or not at all — the baseline every result of
// the paper is a quotient against, which the same engine runs.
type Scheme int

const (
	// OnlineDetection is Chen's verification scheme extended with matrix
	// checkpointing (paper Section 4.2.1).
	OnlineDetection Scheme = iota
	// ABFTDetection verifies every iteration with single checksums and
	// rolls back on detection (Section 4.2.2).
	ABFTDetection
	// ABFTCorrection verifies every iteration with double checksums and
	// corrects single errors forward (Section 4.2.3).
	ABFTCorrection
	// Unprotected is the baseline: the same recurrences on the strict product
	// and the plain vector kernels, reading the caller's matrices in place —
	// no verification, no checkpoint, no confirmation product, no injector
	// (there is nothing to recover with), and a scalar that breaks down ends
	// the solve. Appended, so no stored scheme value moved.
	Unprotected
)

// abft reports one of the two ABFT schemes.
func (s Scheme) abft() bool { return s == ABFTDetection || s == ABFTCorrection }

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case OnlineDetection:
		return "Online-Detection"
	case ABFTDetection:
		return "ABFT-Detection"
	case ABFTCorrection:
		return "ABFT-Correction"
	case Unprotected:
		return "Unprotected"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists the three resilient methods, in the paper's presentation
// order.
var Schemes = []Scheme{OnlineDetection, ABFTDetection, ABFTCorrection}

// Recurrence selects the Krylov method a solve runs (recurrence.go). Its zero
// value is CG.
type Recurrence int

const (
	// CG is the Conjugate Gradient, paper Algorithm 1 — PCG when Config.M is
	// set.
	CG Recurrence = iota
	// BiCGstab is for general, possibly nonsymmetric A, under the ABFT schemes
	// or Unprotected: Chen's orthogonality test is CG-specific, so
	// Online-Detection has no faithful BiCGstab counterpart; neither has the
	// preconditioner slot.
	BiCGstab
)

// Config parameterises a solve of k systems on one matrix; a single system is
// a block of one (Solve).
type Config struct {
	// Scheme selects the resilience method.
	Scheme Scheme
	// Recurrence selects the method: CG (the zero value) or BiCGstab.
	Recurrence Recurrence
	// M, when non-nil, is an explicit sparse SPD preconditioner M ≈ A⁻¹
	// (e.g. precond.Jacobi or precond.Neumann output): CG then runs PCG,
	// M protected and recovered exactly like A — read in place by a
	// fault-free system, struck in a working copy under an injector.
	// BiCGstab takes none.
	M *sparse.CSR
	// S is the checkpoint interval in chunks (the paper's s). 0 means
	// model-optimal via Eq. (6).
	S int
	// D is the verification interval in iterations (the paper's d, only
	// meaningful for OnlineDetection; ABFT schemes verify every iteration).
	// 0 means model-optimal.
	D int
	// Tol is the relative residual tolerance ‖r‖ ≤ Tol·‖b‖ (default 1e-8).
	Tol float64
	// MaxIters caps the useful iterations (default 20·n).
	MaxIters int
	// Injectors holds the injector of system j at index j: it strikes that
	// solve's live state with bit flips each iteration. A nil entry, or none
	// past the end of the slice, runs the system fault-free. Unprotected
	// refuses one.
	Injectors []*fault.Injector
	// Costs calibrates the time accounting; zero value means defaults.
	Costs CostParams
	// OnIteration, when non-nil, is called after every useful iteration of
	// system rhs with the iteration count and the current recurrence quantity
	// ρ (‖r‖² for CG, rᵀz for PCG). Tests use it to compare residual
	// histories across execution modes.
	OnIteration func(rhs, it int, rho float64)
	// OnDetection, when non-nil, is called after every fault-detection
	// episode of system rhs with the detection/correction deltas since its
	// previous episode. Streaming solves surface these as live events; nil
	// costs nothing on the hot path.
	OnDetection func(rhs int, ev DetectionEvent)
	// Ws, when non-nil, supplies the working matrix copies, iteration
	// vectors, checksum encodings and checkpoint stores from a reusable
	// arena: a warm workspace makes repeated solves allocation-free. The
	// arithmetic is identical with or without a workspace. Must not be shared
	// by concurrent solves, and the returned solutions alias workspace memory
	// — copy them out before the next solve on the same workspace overwrites
	// them.
	Ws *Workspace
}

// injector is system j's injector, nil when it runs fault-free.
func (c *Config) injector(j int) *fault.Injector {
	if j < len(c.Injectors) {
		return c.Injectors[j]
	}
	return nil
}

// label is the error-message prefix naming the recurrence.
func (c *Config) label() string {
	switch {
	case c.Recurrence == BiCGstab:
		return "BiCGstab "
	case c.M != nil:
		return "PCG "
	}
	return ""
}

func (c Config) withDefaults(n int) Config {
	if c.Tol == 0 {
		c.Tol = 1e-8
	}
	if c.MaxIters == 0 {
		c.MaxIters = 20 * n
	}
	if c.Costs == (CostParams{}) {
		c.Costs = DefaultCostParams()
	}
	return c
}

// DetectionEvent is one fault-detection episode of one system, reported
// through Config.OnDetection: the counter deltas since the previous episode and
// whether the solver recovered by rolling back to a checkpoint (false
// means it corrected forward).
type DetectionEvent struct {
	// Iteration is the useful-iteration count when the episode surfaced.
	Iteration int
	// Detections and Corrections are deltas since the last event.
	Detections  int64
	Corrections int64
	// RolledBack reports checkpoint recovery (vs. forward correction).
	RolledBack bool
}

// Stats reports everything the experiments need about one resilient solve.
type Stats struct {
	Scheme Scheme
	// D and S are the intervals actually used (after model optimisation).
	D, S int
	// UsefulIterations is the number of iterations contributing to the
	// returned solution; TotalIterations includes re-executed work.
	UsefulIterations int
	TotalIterations  int64
	// Detections counts iterations where some test failed; Corrections the
	// subset repaired forward; Rollbacks the subset that recovered from the
	// checkpoint.
	Detections  int64
	Corrections int64
	Rollbacks   int64
	Checkpoints int64
	// Rereads counts the detections ABFT-Correction's decoder could not pin
	// on a single word and the engine answered by restoring the matrix from
	// the caller's copy and running the product again, before any rollback.
	// One that came out clean or repairable is among Corrections, one that
	// did not among Rollbacks.
	Rereads int64
	// SimTime is the modeled execution time in seconds, with its breakdown.
	SimTime      float64
	TimeIter     float64
	TimeVerif    float64
	TimeCkpt     float64
	TimeRecovery float64
	Converged    bool
	// FinalResidual is the true relative residual ‖b − Ax‖/‖b‖ of the
	// returned solution, recomputed on the pristine matrix.
	FinalResidual float64
	// FaultsInjected is the number of bit flips applied by the injector.
	FaultsInjected int64
}

// OnlineMaxD caps the verification interval of Online-Detection. The
// periodic tests compare the maintained recurrence residual against a
// recomputation: the comparison threshold must cover the drift accumulated
// since the last verification, and the window of state that can silently
// carry sub-threshold corruption into a checkpoint grows with d. Chen-style
// implementations therefore verify over short windows regardless of how far
// pure amortisation arguments would stretch d; the experiments in the paper
// behave accordingly (Online-Detection's verification overhead does not
// vanish at low fault rates — the paper attributes its low-λ slowness to
// exactly this overhead).
const OnlineMaxD = 4

// OptimalIntervals returns the model-optimal (d, s) for the scheme on this
// matrix at fault rate alpha (expected faults per iteration), using the
// paper's Eq. (6). For ABFT schemes d is always 1; for Online-Detection d
// is additionally capped at OnlineMaxD (see its comment).
func OptimalIntervals(a *sparse.CSR, scheme Scheme, alpha float64, cp CostParams) (d, s int) {
	costs := NewCosts(a, scheme, cp)
	// Work in units of Titer, like the paper (Titer normalised to 1, λ = α).
	switch scheme {
	case OnlineDetection:
		op := model.OnlineParams{
			Titer:  1,
			Tverif: costs.Tverif / costs.Titer,
			Tcp:    costs.Tcp / costs.Titer,
			Trec:   costs.Trec / costs.Titer,
			Lambda: alpha,
		}
		d, s, _ = op.Optimal(OnlineMaxD, 4096)
		return d, s
	default:
		p := model.Params{
			T:          1,
			Tverif:     costs.Tverif / costs.Titer,
			Tcp:        costs.Tcp / costs.Titer,
			Trec:       costs.Trec / costs.Titer,
			Lambda:     alpha,
			Correcting: scheme == ABFTCorrection,
		}
		s, _ = p.OptimalS(16384)
		return 1, s
	}
}
