package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/abft"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/tmr"
	"repro/internal/vec"
)

// maxFinalCheckRetries bounds the convergence re-verification loop: a
// latent corruption that was checkpointed (a sub-tolerance flip in an
// iteration vector) can make the final residual check fail repeatedly;
// after this many failures the solve aborts.
const maxFinalCheckRetries = 20

// stuckLimit is the number of no-progress rollbacks tolerated before
// escalating to the initial state: a checkpoint whose vectors carry
// (sub-tolerance) corruption can fail verification deterministically on
// every retry, so the engine then rebuilds the initial state instead
// ("re-reading the input data", which the paper notes is how the first frame
// recovers).
const stuckLimit = 5

// ErrNotConverged is wrapped by the error of a solve that used up its budget:
// Config.MaxIters useful iterations, or ten times that and a thousand with the
// re-executed ones.
var ErrNotConverged = errors.New("not converged")

// ErrBreakdown is wrapped by the error of a solve that ended on a failure no
// fault can explain (engine.rollback) — a recurrence scalar that is not finite
// or has the wrong sign, a verification that fails: the problem itself breaks
// the method down — CG on a matrix that is not positive definite or not
// symmetric, values whose products leave the floating-point range — and no
// number of rollbacks would change that.
var ErrBreakdown = errors.New("recurrence breakdown")

// ErrScale is wrapped by the error of a solve refused at its start because
// ‖b‖ is not finite or ‖b‖² is not a normal float64: the recurrences square
// the residual, so its norm would overflow, or underflow to a ρ that passes
// the convergence test on x = 0.
var ErrScale = errors.New("right-hand side out of floating-point range")

// recurrence is what a solver contributes to the engine. The engine owns
// everything the paper's model owns — scheme, d/s cadence, fault injection,
// ABFT settlement, Chen's verification, checkpoint, rollback, escalation,
// hooks, modeled time — over the state every Krylov recurrence here shares:
// the iterate x, the residual r, a direction p with its product q = A·p,
// and the scalar ρ. A recurrence adds its own vectors and scalars, says
// which norm decides convergence, and advances one iteration in slices cut
// at its protected products.
type recurrence interface {
	// init draws the recurrence's own vectors from e.ws, registers what a
	// checkpoint must carry beyond x, r, p and ρ (keep, keepScalar), arms its
	// own guards (guard) and folds its per-iteration work into e.costs and
	// e.confirm.
	init(e *engine)
	// reset completes the initial state from the input: the engine has set
	// x = 0 and r = b; p, ρ and everything init registered are the
	// recurrence's to initialise. It runs when the solve starts and again when
	// a rollback escalates, on matrices just restored from the caller's.
	reset(e *engine)
	// resNorm is the residual norm tested against Tol·‖b‖.
	resNorm(e *engine) float64
	// step runs slice number stage of the current iteration. It returns
	// stepProduct after describing a protected product with e.product (the
	// engine multiplies, applies deferred faults, verifies, settles, and
	// calls step again with stage+1), or one of the terminal verdicts.
	step(e *engine, stage int) verdict
}

// verdict is the result of one recurrence slice.
type verdict int

const (
	stepProduct verdict = iota // a protected product is pending in e.prod
	stepDone                   // iteration complete
	stepHalf                   // complete by an early exit: counted and reported, but no chunk bookkeeping
	stepFail                   // an error was detected: roll back
)

// product describes one protected sparse product y ← (A or M)·x.
type product struct {
	slot int               // 0 = A, 1 = M
	y, x []float64         // output and input
	out  *abft.VectorGuard // guard of y: takes the checksum its verification summed
	ref  *abft.VectorGuard // guard holding the reference checksum of x
	// hit is the deferred-fault target struck in y right after the product
	// (TargetVecQ or TargetVecZ). The zero value, a matrix target, is never
	// deferred and so means none.
	hit fault.Target
}

// scalar is a recurrence scalar that broke the iteration in flight down.
type scalar struct {
	name string
	v    float64
	hint string
}

// scalarRef names one recurrence scalar carried by checkpoints.
type scalarRef struct {
	name string
	p    *float64
}

// armed pairs a vector guard with the vector it shadows.
type armed struct {
	g *abft.VectorGuard
	v []float64
}

// engine is the one solve state machine, under every scheme: the solve of one
// system, which SolveBlock advances. It lives in the system's arena of the
// Workspace, so its helpers are methods instead of capturing closures and a
// workspace-carrying warm solve allocates nothing.
type engine struct {
	cfg     Config
	lane    int             // the system's index in its block, passed to the observers
	inj     *fault.Injector // the system's injector, nil when fault-free
	label   string          // error-message prefix naming the recurrence
	abft    bool            // an ABFT scheme
	plain   bool            // Unprotected: no working copies, no verification, no checkpoint
	costs   Costs
	confirm float64 // modeled cost of the convergence-confirmation product
	rec     recurrence
	ws      *arena

	src  [2]*sparse.CSR     // the caller's A, and M or nil: read-only input, the valid copy
	mat  [2]*sparse.CSR     // working copies of src, which the injector strikes (src itself without an injector)
	prot [2]*abft.Protected // their ABFT wrappers (ABFT schemes only)
	b    []float64          // the caller's right-hand side
	x, r []float64          // iterate and recurrence residual
	p, q []float64          // direction and its product A·p
	rr   []float64          // scratch: recomputed residuals
	rho  float64            // the recurrence scalar reported by OnIteration
	exec *tmr.Executor      // kept across solves
	view *checkpoint.State  // reusable live-state view for save/rollback

	rGuard, pGuard, xGuard, qGuard *abft.VectorGuard
	guards                         []armed // every guard, re-armed after a rollback
	guardBuf                       [6]armed
	extra                          []scalarRef // recurrence scalars checkpointed beside ρ
	extraBuf                       [2]scalarRef

	store            *checkpoint.Store
	stats            Stats
	normB            float64
	it               int // useful iterations completed (rolls back with the state)
	d, s             int
	last             int // iteration of the last checkpoint
	highWater, stuck int
	fromInput        int64 // injector flips when an escalated rollback last rebuilt the state from the input; -1 before
	finalRetries     int
	maxTotal         int64
	lastD, lastC     int64 // counters at the previous OnDetection event
	undecided        int64 // exec's votes without a majority, as of the last slice

	// The iteration in flight.
	inIter   bool
	stage    int
	deferred []fault.Event
	prod     product
	scalar   scalar // what breakdown reported, if it did

	done bool
	err  error

	pcg  pcgRec
	bicg bicgRec
}

// start validates system lane of the block and builds its initial resilient
// state in the arena ws. A fault-free system reads the caller's matrices and,
// under ABFT, the wrappers of shared, which SolveBlock armed over them; a
// system with an injector passes nil and works on its arena's own copies.
func (e *engine) start(ws *arena, lane int, a *sparse.CSR, b []float64, cfg Config, shared *[2]*abft.Protected) error {
	if bicg := cfg.Recurrence == BiCGstab; bicg && cfg.Scheme == OnlineDetection {
		return fmt.Errorf("core: BiCGstab supports the ABFT schemes only")
	} else if bicg && cfg.M != nil {
		return fmt.Errorf("core: BiCGstab takes no preconditioner")
	}
	label, n := cfg.label(), a.Rows
	if a.Cols != n || len(b) != n {
		return fmt.Errorf("core: %sdimension mismatch: A %dx%d, len(b)=%d", label, a.Rows, a.Cols, len(b))
	}
	if cfg.M != nil && (cfg.M.Rows != n || cfg.M.Cols != n) {
		return fmt.Errorf("core: %sneeds an n×n preconditioner", label)
	}
	cfg = cfg.withDefaults(n)
	plain, inj := cfg.Scheme == Unprotected, cfg.injector(lane)
	if plain && inj != nil {
		return fmt.Errorf("core: %s%v takes no injector: nothing would recover from a flip", label, cfg.Scheme)
	}

	exec := e.exec
	if exec == nil {
		exec = new(tmr.Executor)
	}
	*e = engine{cfg: cfg, lane: lane, inj: inj, label: label, abft: cfg.Scheme.abft(), plain: plain, ws: ws, b: b, exec: exec}
	e.rec = &e.pcg
	if cfg.Recurrence == BiCGstab {
		e.rec = &e.bicg
	}
	ws.next = 0
	e.src = [2]*sparse.CSR{a, cfg.M}
	e.fromInput = -1
	_, _, e.undecided = exec.Stats()

	e.mat = e.src
	for slot, src := range e.src {
		if src != nil && !plain && shared == nil {
			e.mat[slot] = ws.liveCopy(slot, src)
		}
	}
	e.costs = NewCosts(e.mat[0], cfg.Scheme, cfg.Costs)
	if cfg.M != nil {
		// The paper's checkpoint carries every matrix, so M is priced as well.
		extraCp := float64(e.mat[1].MemoryWords()) * cfg.Costs.WordTime
		e.costs.Tcp += extraCp
		e.costs.Trec += extraCp
	}

	e.d, e.s = cfg.D, cfg.S
	if plain {
		e.d, e.s = 0, 0 // no verification, no checkpoint: no cadence
	} else if e.d == 0 || e.s == 0 {
		alpha := 0.0
		if inj != nil {
			alpha = inj.Alpha()
		}
		od, os := OptimalIntervals(a, cfg.Scheme, alpha, cfg.Costs)
		if e.d == 0 {
			e.d = od
		}
		if e.s == 0 {
			e.s = os
		}
	}
	if e.abft {
		e.d = 1 // ABFT schemes verify every iteration by construction
	}
	e.stats = Stats{Scheme: cfg.Scheme, D: e.d, S: e.s}
	e.maxTotal = int64(cfg.MaxIters)*10 + 1000

	e.x = ws.take(n)
	e.r = ws.take(n)
	e.p = ws.take(n)
	e.q = ws.take(n)
	e.rr = ws.take(n)
	ws.state = fault.State{A: e.mat[0], M: e.mat[1], R: e.r, P: e.p, Q: e.q, X: e.x}
	e.view = ws.liveView()
	e.keep("x", e.x)
	e.keep("r", e.r)
	e.keep("p", e.p)
	e.guards = e.guardBuf[:0]
	e.extra = e.extraBuf[:0]
	e.normB = vec.Norm2(b)
	if sq := vec.Norm2Sq(b); sq == 0 && e.normB == 0 {
		e.normB = 1
	} else if !(sq >= 0x1p-1022 && sq <= math.MaxFloat64) {
		return fmt.Errorf("core: %s%v: %w: ‖b‖² = %.3g", label, cfg.Scheme, ErrScale, sq)
	}

	e.rec.init(e)
	e.restart()

	if e.abft {
		for slot, m := range e.mat {
			switch {
			case m == nil:
				continue
			case shared != nil:
				e.prot[slot] = shared[slot]
			default:
				e.prot[slot] = rearm(&ws.prot[slot], m, e.src[slot], abftMode(cfg.Scheme))
			}
			e.stats.SimTime += setupCost(m, cfg.Scheme, cfg.Costs)
			// A matrix without an encoding (checksum.ErrNoShift) cannot be protected.
			if err := e.prot[slot].CS.Err; err != nil {
				return fmt.Errorf("core: %s%v: %w", label, cfg.Scheme, err)
			}
		}
		// Armed over the completed initial state.
		e.rGuard, e.pGuard, e.xGuard, e.qGuard = e.guard(e.r), e.guard(e.p), e.guard(e.x), e.guard(e.q)
	}

	if !plain {
		e.store = ws.checkpoints()
		e.save(false) // initial state; re-reading inputs is free
	}
	return nil
}

// restart builds the initial state from the input data: x0 = 0, hence
// r0 = b, and the recurrence's own part.
func (e *engine) restart() {
	clear(e.x)
	copy(e.r, e.b)
	e.rec.reset(e)
	e.it = 0
}

// keep registers a vector the checkpoint must carry.
func (e *engine) keep(name string, v []float64) { e.view.Vectors[name] = v }

// keepScalar registers a recurrence scalar the checkpoint must carry.
func (e *engine) keepScalar(name string, p *float64) {
	e.extra = append(e.extra, scalarRef{name, p})
}

// guard arms the next workspace guard over v; it is re-armed after every
// rollback. Online-Detection has no guards and gets nil.
func (e *engine) guard(v []float64) *abft.VectorGuard {
	if !e.abft {
		return nil
	}
	g := e.ws.guard(len(e.guards), v, abftMode(e.cfg.Scheme))
	e.guards = append(e.guards, armed{g, v})
	return g
}

// The vector kernels of a recurrence run in reliable mode under the ABFT
// schemes (internal/tmr) and as the deterministic blocked kernels otherwise.
// A dot product is voted. An update z ← a + α·b is executed once, with the
// checksum of z accumulated as it is written, and verified by linearity
// against the references of its operands (abft.VectorGuard.Linear): every
// vector an update reads or writes has a guard — a product's output takes its
// reference from the sums its verification read — and the updates name the
// guard of each operand. They return false after an error that was detected
// and not repaired: the slice must end with stepFail. Online-Detection has no
// guards; all of them are nil and none is read.

func (e *engine) dot(a, b []float64) float64 {
	if e.abft {
		return e.exec.Dot(a, b)
	}
	return vec.DotBlocked(a, b)
}

// axpy is y ← y + alpha·x.
func (e *engine) axpy(alpha float64, x []float64, gx *abft.VectorGuard, y []float64, gy *abft.VectorGuard) bool {
	if !e.abft {
		vec.Axpy(alpha, x, y)
		return true
	}
	got := e.exec.AxpyGuarded(gy.Rows(), alpha, x, y)
	return e.held(gy.Linear(y, got, y, gy.Ref(), alpha, x, gx.Ref()), armed{gx, x}, armed{})
}

// axpyTo is dst ← y + alpha·x, dst distinct from both.
func (e *engine) axpyTo(dst []float64, gd *abft.VectorGuard, alpha float64, x []float64, gx *abft.VectorGuard, y []float64, gy *abft.VectorGuard) bool {
	if !e.abft {
		vec.AxpyTo(dst, alpha, x, y)
		return true
	}
	got := e.exec.AxpyToGuarded(gd.Rows(), dst, alpha, x, y)
	return e.held(gd.Linear(dst, got, y, gy.Ref(), alpha, x, gx.Ref()), armed{gx, x}, armed{gy, y})
}

// xpay is y ← x + alpha·y.
func (e *engine) xpay(alpha float64, x []float64, gx *abft.VectorGuard, y []float64, gy *abft.VectorGuard) bool {
	if !e.abft {
		vec.Xpay(alpha, x, y)
		return true
	}
	got := e.exec.XpayGuarded(gy.Rows(), alpha, x, y)
	return e.held(gy.Linear(y, got, x, gx.Ref(), alpha, y, gy.Ref()), armed{gx, x}, armed{})
}

// held settles the verdict of an update's linear check; a and b name the
// operands the update did not overwrite (b is empty when there is only one). A rebuilt element is a forward repair
// only while those operands still match their references. One that does not
// was struck in memory after the kernel that last verified it — the injector
// never strikes there: its flips meet a verification before any update reads
// them — and a dot product may have read the struck word since, so a scalar
// of this iteration is in doubt, which no repair of a vector reaches: the
// iteration rolls back.
func (e *engine) held(out abft.Outcome, a, b armed) bool {
	if out.Corrected && (a.g.Check(a.v).Detected || (b.g != nil && b.g.Check(b.v).Detected)) {
		out = abft.Outcome{Detected: true, Class: abft.ClassMultiple}
	}
	return e.settle(out, nil)
}

// refresh re-captures a guard after a write that is not a verified update.
func (e *engine) refresh(g *abft.VectorGuard, v []float64) {
	if g != nil {
		g.Refresh(v)
	}
}

// product records the next protected product for the engine to run.
func (e *engine) product(slot int, y []float64, out *abft.VectorGuard, x []float64, ref *abft.VectorGuard, hit fault.Target) verdict {
	e.prod = product{slot: slot, y: y, out: out, x: x, ref: ref, hit: hit}
	return stepProduct
}

// breakdown reports a non-finite or sign-violating recurrence scalar. A fault
// may have produced it, so it is a detected error like any other and rolls
// back; the scalar is remembered for the error of a solve that ends on it
// (rollback).
func (e *engine) breakdown(name string, v float64, hint string) verdict {
	e.scalar = scalar{name, v, hint}
	return e.detected()
}

// detected fails the slice on an error no checksum flagged.
func (e *engine) detected() verdict {
	e.stats.Detections++
	return stepFail
}

// unexplained is the error of a solve that ended on a failure no fault can
// explain. It names the scalar when the last iteration broke down, and
// otherwise says what is left: a verification the problem itself fails —
// Chen's tests on a matrix that is not symmetric, checksums whose sums
// overflow.
func (e *engine) unexplained() error {
	what := "a verification fails on a state no fault has struck"
	if sc := e.scalar; sc.name != "" {
		what = fmt.Sprintf("%s = %.3g%s", sc.name, sc.v, sc.hint)
	}
	return fmt.Errorf("core: %s%v: %w after %d iterations: %s", e.label, e.cfg.Scheme, ErrBreakdown, e.it, what)
}

// flips is the number of bit flips the injector has landed so far.
func (e *engine) flips() int64 {
	if e.inj == nil {
		return 0
	}
	return e.inj.Stats().Flips
}

// unvouched turns the verdict of a recurrence slice into a failure when one
// of its voted kernels found no two executions agreeing (tmr.Executor.Stats):
// the slice went on with a value nobody vouched for, which every scheme
// treats like a breakdown — one detection, unless the slice reported its own.
func (e *engine) unvouched(v verdict) verdict {
	_, _, u := e.exec.Stats()
	if u == e.undecided {
		return v
	}
	e.undecided = u
	if v == stepFail {
		return v
	}
	return e.detected()
}

// advance runs the solve forward until it is over (true) or a protected
// product is pending in e.prod (false); complete resumes it.
func (e *engine) advance() bool {
	for !e.done {
		if !e.inIter && !e.begin() {
			continue
		}
		switch e.unvouched(e.rec.step(e, e.stage)) {
		case stepProduct:
			e.stage++
			return false
		case stepDone:
			e.end(true)
		case stepHalf:
			e.end(false)
		case stepFail:
			e.rollback()
		}
	}
	return true
}

// begin opens the next iteration: the convergence test with its confirmed
// true residual, the iteration budget, fault injection and the per-iteration
// charges. It returns false when it instead ended the solve or rolled back.
func (e *engine) begin() bool {
	cfg, st := &e.cfg, &e.stats
	// Convergence on the recurrence residual, confirmed against a recomputed
	// true residual so grossly corrupted state cannot be returned. The
	// confirmation threshold is floored at the detection capability of the
	// verification mechanisms (~1e-6 relative): sub-threshold false
	// negatives leave a drift the paper explicitly accepts ("the algorithm
	// still converges towards the correct answer"), and demanding more here
	// would loop forever on a consistently-corrupted-but-harmless system.
	if e.rec.resNorm(e) <= cfg.Tol*e.normB {
		if e.plain || e.confirmed() {
			st.Converged = true
			e.stop(nil)
			return false
		}
		e.finalRetries++
		if e.finalRetries >= maxFinalCheckRetries {
			e.stop(fmt.Errorf("core: %s%v: convergence confirmation kept failing (latent corruption)", e.label, cfg.Scheme))
			return false
		}
		e.rollback()
		return false
	}
	if e.it >= cfg.MaxIters || st.TotalIterations >= e.maxTotal {
		e.stop(fmt.Errorf("core: %s%v: %w after %d useful (%d total) iterations",
			e.label, cfg.Scheme, ErrNotConverged, e.it, st.TotalIterations))
		return false
	}

	st.TotalIterations++
	e.deferred = nil
	if e.inj != nil {
		_, e.deferred = e.inj.InjectIterationSplit(&e.ws.state)
	}
	st.TimeIter += e.costs.Titer
	if e.abft {
		st.TimeVerif += e.costs.Tverif
	}
	e.inIter, e.stage, e.scalar = true, 0, scalar{}
	return true
}

// confirmed recomputes the true residual of the iterate on the caller's A —
// the valid copy, as for a rollback — and holds it to the confirmation
// threshold (begin), at the modeled cost of one product. On the live copy it
// would confirm a solve of whatever A had become: a matrix flip while x = 0
// leaves Chen's residual test consistent with the struck matrix ever after.
func (e *engine) confirmed() bool {
	e.stats.TimeVerif += e.confirm
	e.src[0].MulVec(e.rr, e.x)
	return e.verified(e.residualNorm())
}

// verified holds a recomputed true residual norm to the confirmation
// threshold.
func (e *engine) verified(tr float64) bool {
	return tr <= math.Max(10*e.cfg.Tol, 1e-6)*e.normB && !math.IsNaN(tr)
}

func (e *engine) stop(err error) {
	e.stats.UsefulIterations = e.it
	e.done, e.err = true, err
}

// residualNorm turns the product A·x just written to the scratch vector
// into the true residual b − Ax and returns its norm.
func (e *engine) residualNorm() float64 {
	vec.Sub(e.rr, e.b, e.rr)
	return vec.Norm2(e.rr)
}

// multiply runs the pending product: fused with the runtime Rowidx checksums
// under ABFT, robust against corrupted indices under Online-Detection, strict
// where nothing corrupts them.
func (e *engine) multiply() (sr abft.RowSums) {
	p := &e.prod
	switch {
	case e.abft:
		return e.prot[p.slot].MulVec(p.y, p.x)
	case e.plain:
		e.mat[p.slot].MulVec(p.y, p.x)
	default:
		e.mat[p.slot].MulVecRobust(p.y, p.x)
	}
	return sr
}

// complete is the post-product half of a protected product: the deferred
// faults drawn against its output strike now, and under ABFT the product is
// verified against the runtime Rowidx sums and settled; the sums that
// verification read off the output and the input become their references —
// the output's first, the input's again: what Verify accepted is what later
// checks hold it to. A product run alone and one of a blocked group share it,
// so their detection behaviour is identical by construction.
func (e *engine) complete(sr abft.RowSums) {
	p := &e.prod
	for _, ev := range e.deferred {
		if ev.Target == p.hit {
			e.inj.ApplyEvent(&e.ws.state, ev)
		}
	}
	if !e.abft {
		return
	}
	prot := e.prot[p.slot]
	out := prot.Verify(p.y, p.x, p.ref.Ref(), sr)
	if out.Detected && !out.Corrected && e.cfg.Scheme == ABFTCorrection {
		out = e.reread(p)
	}
	if !e.settle(out, p) {
		e.rollback()
		return
	}
	p.out.Install(prot.OutputSums())
	p.ref.Install(prot.InputSums())
}

// reread is ABFT-Correction's last forward step, taken when the decoder could
// not pin the failed product p on a single word: the matrix the product read
// is restored from the caller's copy — what a rollback does first anyway —
// and the product runs and is verified once more, whatever struck its output
// the first time being overwritten. Errors that were the matrix's, however
// many, are gone by then: a sub-tolerance flip still sitting in the live
// arrays when the next error arrives (Eq. (9)'s accepted false negative,
// which the decoder's bit-for-bit column comparison counts as a second
// error), or two flips in one iteration. The episode counts as one detection
// and, clean or repaired the second time, one correction; if the second
// verification cannot settle it either, the vectors are the suspects and the
// caller rolls back. The model is charged the words re-read, one product and
// one verification.
func (e *engine) reread(p *product) abft.Outcome {
	st, cp, prot := &e.stats, &e.cfg.Costs, e.prot[p.slot]
	st.Rereads++
	e.restore(p.slot)
	st.TimeRecovery += float64(e.src[p.slot].MemoryWords()) * cp.WordTime
	st.TimeIter += float64(prot.FlopsMulVec()) * cp.FlopTime
	st.TimeVerif += float64(prot.FlopsVerify()) * cp.FlopTime
	out := prot.Verify(p.y, p.x, p.ref.Ref(), prot.MulVec(p.y, p.x))
	if !out.Detected {
		// Several errors, all of them the matrix's or the output's, and gone.
		return abft.Outcome{Detected: true, Corrected: true, Class: abft.ClassMultiple}
	}
	return out
}

// settle accounts one detection outcome — of a vector's check (p == nil) or
// of product p. A forward repair is counted and charged; an uncorrectable
// error returns false and the iteration must roll back. Nothing is
// re-encoded after a matrix repair: the decoder finished it against the
// caller's copy (abft.Protected.Valid), so the repaired word holds the bits
// the encoding was derived from.
func (e *engine) settle(out abft.Outcome, p *product) bool {
	if !out.Detected {
		return true
	}
	st := &e.stats
	st.Detections++
	if !out.Corrected {
		return false
	}
	st.Corrections++
	// Repairs of a vector — a guarded one, or a product's input — are O(n);
	// the other product repairs recompute the O(nnz) column checksums, and a
	// re-read (ClassMultiple, corrected) has been charged already.
	switch {
	case p == nil || out.Class == abft.ClassX:
		st.TimeVerif += tcorrectVector(e.mat[0], e.cfg.Costs)
	case out.Class != abft.ClassMultiple:
		st.TimeVerif += e.costs.Tcorrect
	}
	return true
}

// end closes a successful iteration: hooks, progress tracking and — unless
// the recurrence left by an early exit — the chunk boundary with Chen's
// verification (Online-Detection) and the checkpoint cadence.
func (e *engine) end(full bool) {
	cfg, st := &e.cfg, &e.stats
	e.inIter = false
	e.it++
	if cfg.OnIteration != nil {
		cfg.OnIteration(e.lane, e.it, e.rho)
	}
	e.emit(false)
	if !full || e.plain {
		return
	}
	if e.it > e.highWater {
		e.highWater = e.it
		e.stuck = 0
	}
	if e.it%e.d != 0 {
		return
	}
	if !e.abft {
		st.TimeVerif += e.costs.Tverif
		if !e.onlineVerify() {
			st.Detections++
			e.rollback()
			return
		}
	}
	if (e.it/e.d)%e.s == 0 && e.it > e.last {
		e.save(true)
	}
}

// emit reports the detection/correction deltas since the previous episode
// through OnDetection.
func (e *engine) emit(rolledBack bool) {
	if e.cfg.OnDetection == nil {
		return
	}
	d, c := e.stats.Detections-e.lastD, e.stats.Corrections-e.lastC
	if d == 0 && c == 0 {
		return
	}
	e.lastD, e.lastC = e.stats.Detections, e.stats.Corrections
	e.cfg.OnDetection(e.lane, DetectionEvent{Iteration: e.it, Detections: d, Corrections: c, RolledBack: rolledBack})
}

// onlineVerify implements Chen's periodic tests (paper Section 3.1): the
// residual is recomputed as b − Ax and compared with the recurrence
// residual, and the A-orthogonality of the current direction p against the
// last product q = A·p_prev is checked. Any discrepancy — including
// non-finite values — reports an error.
func (e *engine) onlineVerify() bool {
	e.mat[0].MulVecRobust(e.rr, e.x)
	normRR := e.residualNorm()
	normR := vec.Norm2(e.r)
	if math.IsNaN(normRR) || math.IsNaN(normR) || math.IsInf(normRR, 0) || math.IsInf(normR, 0) {
		return false
	}
	diff := vec.MaxAbsDiff(e.rr, e.r)
	scale := math.Max(e.normB, math.Max(normRR, normR))
	if diff > 1e-6*scale {
		return false
	}

	// Orthogonality: after the p-update, p_{i+1}ᵀ A p_i = 0 up to rounding.
	normP := vec.Norm2(e.p)
	normQ := vec.Norm2(e.q)
	if normP == 0 || normQ == 0 || math.IsNaN(normP) || math.IsNaN(normQ) {
		return false
	}
	ortho := math.Abs(vec.Dot(e.p, e.q)) / (normP * normQ)
	return ortho <= 1e-6 && !math.IsNaN(ortho)
}

// save snapshots what the recurrence cannot recompute — its vectors and
// scalars — through the reusable live-state view. No matrix is written: A and
// M are read-only input whose valid copy is the caller's (rollback), while
// Tcp goes on pricing the paper's checkpoint, matrix included (costs.go).
func (e *engine) save(charge bool) {
	e.view.Iteration = e.it
	e.view.Scalars["rho"] = e.rho
	for _, sc := range e.extra {
		e.view.Scalars[sc.name] = *sc.p
	}
	e.store.Save(e.view)
	e.last = e.it
	if charge {
		e.stats.Checkpoints++
		e.stats.TimeCkpt += e.costs.Tcp
	}
}

// rollback abandons any iteration in flight after a detection, restores the
// live matrices and the last checkpoint — escalating to the initial state
// after stuckLimit no-progress retries — and re-arms the guards. An escalation
// is tried once: when the retries from the rebuilt state are used up as well
// and no flip has landed since it was built, they were a function of the input
// alone and would fail the same way for ever, so the solve ends with
// ErrBreakdown. So does an Unprotected solve at once: it has nothing to
// restore and no fault model to blame.
func (e *engine) rollback() {
	e.inIter = false
	if e.plain || (e.stuck >= stuckLimit && e.fromInput == e.flips()) {
		e.stop(e.unexplained())
		return
	}
	e.emit(true)
	e.stats.Rollbacks++
	e.stats.TimeRecovery += e.costs.Trec
	// A rollback finds the live matrices suspect, and the caller's are the
	// valid copy the paper asks recovery to find. The encodings were derived
	// from those very bits, and no repair moves them, so they stand.
	for slot, src := range e.src {
		if src != nil {
			e.restore(slot)
		}
	}
	e.stuck++
	if e.stuck > stuckLimit {
		// Re-read the input. The rolling checkpoint has just been judged
		// unusable, so the initial state replaces it: the next detection
		// before a new checkpoint must not jump back to it.
		e.restart()
		e.save(false)
		e.stuck = 0
		e.highWater = 0
		e.fromInput = e.flips()
	} else {
		e.store.Restore(e.view)
		e.it = e.view.Iteration
		e.rho = e.view.Scalars["rho"]
		for _, sc := range e.extra {
			*sc.p = e.view.Scalars[sc.name]
		}
	}
	for _, a := range e.guards {
		a.g.Refresh(a.v)
	}
}

// finish composes the modeled time and recomputes the reported residual on
// the caller's pristine matrix.
func (e *engine) finish() ([]float64, Stats, error) {
	st := &e.stats
	if e.plain {
		// What the paper normalises by is a product, not a running sum.
		st.TimeIter = float64(st.TotalIterations) * e.costs.Titer
	}
	st.SimTime = st.TimeIter + st.TimeVerif + st.TimeCkpt + st.TimeRecovery + st.SimTime
	if e.inj != nil {
		st.FaultsInjected = e.inj.Stats().Flips
	}
	e.src[0].MulVec(e.rr, e.x)
	tr := e.residualNorm()
	st.FinalResidual = tr / e.normB
	if e.plain && st.Converged && !e.verified(tr) {
		// Nothing confirmed the recurrence residual on the way, and on an
		// ill-conditioned operand it can part from the true one (BiCGstab's
		// does): the product the report needs anyway says so.
		st.Converged = false
		e.err = fmt.Errorf("core: %s%v: %w: the recurrence residual met the tolerance, the true relative residual is %.3g",
			e.label, e.cfg.Scheme, ErrNotConverged, st.FinalResidual)
	}
	return e.x, *st, e.err
}
