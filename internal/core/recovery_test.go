package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/abft"
	"repro/internal/bitflip"
	"repro/internal/checksum"
	"repro/internal/fault"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/tmr"
)

// The tests of this file pin where recovery finds its valid copy of the
// matrices: in the caller's A and M, not in a checkpoint. They strike the
// live state from the OnIteration hook — between iterations, where the
// injector strikes too — so every scenario is exact, not drawn. A fault-free
// system has no matrix of its own to strike: it reads the caller's. A
// scenario that strikes a matrix runs on a system that owns working copies —
// one whose injector never draws a flip (owning) — or strikes the private
// copy a shared wrapper takes before its first repair (cow).

// owning returns the configuration of a block of one whose system owns
// working copies of A and M that only the test strikes: its injector runs at
// α = 0.
func owning() Config {
	return Config{Injectors: []*fault.Injector{fault.New(fault.Config{})}}
}

// cow gives a shared wrapper the private copy of the caller's matrix that
// its first repair would take (abft.Protected.own) and returns it, for a
// test to strike.
func cow(p *abft.Protected) *sparse.CSR {
	p.A = p.Valid.Clone()
	return p.A
}

// lastBit flips the lowest mantissa bit: an error far below every tolerance,
// the kind that used to ride along in checkpoints.
func lastBit(v float64) float64 { return bitflip.Float64(v, 0) }

// strikeTwice corrupts two entries of v grossly: no scheme corrects a double
// error forward, so the next verification rolls back. The amounts neither
// cancel in the plain sum nor put the ratio of the weighted defect to the
// plain one — (1 + 2π)/(1 + π) — near an integer, where the two-row code
// would take them for a single error elsewhere.
func strikeTwice(v []float64) {
	v[0] += 1e6
	v[1] += math.Pi * 1e6
}

// smallEntry returns the position of the smallest nonzero of a row. Rebuilt
// from a column checksum that its diagonal dominates, such an entry comes back
// equal to the original only to rounding: the repair leaves a residue.
func smallEntry(a *sparse.CSR, row int) int {
	k := a.Rowidx[row]
	for j := k; j < a.Rowidx[row+1]; j++ {
		if math.Abs(a.Val[j]) < math.Abs(a.Val[k]) {
			k = j
		}
	}
	return k
}

// pristineEncoding reports whether p's checksum encoding is, bit for bit, the
// one derived from a.
func pristineEncoding(p *abft.Protected, a *sparse.CSR) bool {
	return reflect.DeepEqual(p.CS, checksum.NewMatrix(a))
}

// TestRollbackRestoresTheCallersMatrices: a sub-tolerance flip in a system's
// working copy of A and of M before a checkpoint stays there through that
// checkpoint, and is gone after the next rollback, under every scheme — and
// an ABFT-Detection solve, which never repairs, encodes nothing beyond the
// arming. A fault-free system rolled back the same way copies nothing: it
// holds no working copy before, during or after the rollback, and its
// wrappers still read the caller's matrices.
func TestRollbackRestoresTheCallersMatrices(t *testing.T) {
	a := sparse.Poisson2D(14, 14)
	b, _ := rhsFor(a, 7)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	pristineA, pristineM := a.Clone(), m.Clone()
	for _, scheme := range Schemes {
		for _, pre := range []*sparse.CSR{nil, m} {
			for _, owns := range []bool{true, false} {
				name := fmt.Sprintf("%v/M=%v/owns=%v", scheme, pre != nil, owns)
				ws := NewWorkspace()
				live := func() string {
					l := ws.lanes[0].live
					if !l[0].Equal(a) {
						return "A"
					}
					if pre != nil && !l[1].Equal(pre) {
						return "M"
					}
					return ""
				}
				rollbacks, afterRollback := 0, false
				cfg := Config{Scheme: scheme, M: pre, S: 4, D: 1, Tol: 1e-8, Ws: ws}
				if owns {
					cfg.Injectors = owning().Injectors
				}
				cfg.OnDetection = func(_ int, ev DetectionEvent) {
					if ev.RolledBack {
						rollbacks++
						afterRollback = true
					}
				}
				cfg.OnIteration = func(_, it int, _ float64) {
					if afterRollback && owns {
						// First iteration since the rollback; nothing has struck since.
						afterRollback = false
						if which := live(); which != "" {
							t.Errorf("%s: live %s differs from the caller's after rollback %d", name, which, rollbacks)
						}
					}
					if rollbacks > 0 {
						return
					}
					switch {
					case it == 3 && owns: // before the checkpoint of iteration 4
						l := ws.lanes[0].live
						l[0].Val[10] = lastBit(l[0].Val[10])
						if pre != nil {
							l[1].Val[20] = lastBit(l[1].Val[20])
						}
					case it == 5 && owns: // after it: the flips were checkpointed, had checkpoints carried matrices
						if live() == "" {
							t.Errorf("%s: the latent flips did not survive to iteration 5", name)
						}
					case it == 6:
						strikeTwice(ws.lanes[0].run.x)
					}
				}
				_, st, err := Solve(a, b, cfg)
				if err != nil || !st.Converged {
					t.Fatalf("%s: err %v, stats %+v", name, err, st)
				}
				if rollbacks != 1 || st.Rollbacks != 1 {
					t.Errorf("%s: %d rollback events, Stats.Rollbacks %d, want 1", name, rollbacks, st.Rollbacks)
				}
				if st.Checkpoints == 0 {
					t.Errorf("%s: no checkpoint taken", name)
				}
				prots := ws.shared
				if owns {
					prots = ws.lanes[0].prot
				}
				if scheme == ABFTDetection {
					for slot, p := range prots { // fresh workspace: slot 1 is armed only under M
						if p != nil && p.Stats().Encodings != 1 {
							t.Errorf("%s: matrix %d encoded %d times, want once", name, slot, p.Stats().Encodings)
						}
					}
				}
				if owns {
					continue
				}
				if l := ws.lanes[0].live; l != [2]*sparse.CSR{} {
					t.Errorf("%s: a fault-free system holds working copies", name)
				}
				for slot, src := range [2]*sparse.CSR{a, pre} {
					if p := prots[slot]; p != nil && (p.A != src || p.Valid != src) {
						t.Errorf("%s: after the rollback wrapper %d reads a copy, not the caller's matrix", name, slot)
					}
				}
			}
		}
	}
	if !a.Equal(pristineA) || !m.Equal(pristineM) {
		t.Fatal("a solve wrote to the caller's matrices")
	}
}

// rebuiltByExclusion is what the Val decoder computes for entry k: the
// reliable checksum of its column less the column's other entries.
func rebuiltByExclusion(a *sparse.CSR, k int) float64 {
	f := a.Colid[k]
	var rest float64
	for j, c := range a.Colid {
		if j != k && c == f {
			rest += a.Val[j]
		}
	}
	return checksum.NewMatrix(a).C1[f] - rest
}

// TestRollbackAfterRepairKeepsTheEncoding: under ABFT-Correction a forward
// repair of a matrix entry is finished against the caller's matrix, so the
// working word holds the caller's bits again — not the value exclusion
// rebuilds, which is off by rounding — and the encoding built when the solve
// was armed describes the working matrix through the repair and the rollback
// after it: it is built once, and the solve runs on without a single further
// detection. The system owns its working copy of A.
func TestRollbackAfterRepairKeepsTheEncoding(t *testing.T) {
	a, b, _ := testMatrix(200, 3)
	k := smallEntry(a, 30)
	if rebuiltByExclusion(a, k) == a.Val[k] {
		t.Fatal("exclusion rebuilds the entry exactly: the scenario does not tell a finished repair from an unfinished one")
	}
	ws := NewWorkspace()
	struck, rolled := false, false
	cfg := owning()
	cfg.Scheme, cfg.S, cfg.Tol, cfg.Ws = ABFTCorrection, 4, 1e-8, ws
	cfg.OnIteration = func(_, it int, _ float64) {
		live := ws.lanes[0].live[0]
		switch {
		case it == 2 && !struck:
			struck = true
			live.Val[k] = bitflip.Float64(live.Val[k], 54) // an exponent bit: gross, single, correctable
		case it == 6 && !rolled:
			rolled = true
			if !live.Equal(a) {
				t.Error("after the repair the live matrix is not bit-equal to the caller's")
			}
			strikeTwice(ws.lanes[0].run.x)
		}
	}
	_, st, err := Solve(a, b, cfg)
	if err != nil || !st.Converged {
		t.Fatalf("err %v, stats %+v", err, st)
	}
	if st.Corrections != 1 || st.Rollbacks != 1 || st.Detections != 2 || st.Rereads != 0 {
		t.Fatalf("corrections %d, rollbacks %d, detections %d, re-reads %d; want 1, 1, 2, 0 (a third detection is a false positive)",
			st.Corrections, st.Rollbacks, st.Detections, st.Rereads)
	}
	prot := ws.lanes[0].prot[0]
	if got := prot.Stats().Encodings; got != 1 {
		t.Errorf("encoded %d times, want once: neither the repair nor the rollback moves the matrix off its encoding", got)
	}
	if !ws.lanes[0].live[0].Equal(a) || !pristineEncoding(prot, a) {
		t.Error("after the rollback the live matrix or its encoding is not the caller's")
	}
}

// TestBlockLaneRollbackAfterAnotherLanesRepair: blocked lanes share one
// wrapper of A and one encoding, and the lane that rolls back need not be
// the lane that repaired. Lane 0 repairs a struck word of the wrapper's
// private copy; lane 2's rollback drops the copy, and the shared wrapper
// reads the caller's A again. Neither touches the encoding: it is built once
// per block.
func TestBlockLaneRollbackAfterAnotherLanesRepair(t *testing.T) {
	a, _, _ := testMatrix(200, 3)
	const k = 4
	bs := make([][]float64, k)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(20+j))
	}
	bw := NewWorkspace()
	repaired, rolled := false, false
	cfg := Config{Scheme: ABFTCorrection, S: 4, Tol: 1e-8, Ws: bw}
	cfg.OnIteration = func(rhs, it int, _ float64) {
		switch {
		case rhs == 0 && it == 2 && !repaired:
			// Lane 0 is the first to verify the next product and repairs.
			repaired = true
			live, e := cow(bw.shared[0]), smallEntry(a, 30)
			live.Val[e] = bitflip.Float64(live.Val[e], 54)
		case rhs == 2 && it == 6 && !rolled:
			rolled = true
			if p := bw.shared[0]; p.A == a || !p.A.Equal(a) {
				t.Error("after lane 0's repair the shared wrapper does not read a copy bit-equal to the caller's")
			}
			strikeTwice(bw.lanes[2].run.x)
		}
	}
	sts, errs := make([]Stats, k), make([]error, k)
	if _, err := SolveBlock(a, bs, cfg, sts, errs); err != nil {
		t.Fatal(err)
	}
	for j := range sts {
		if errs[j] != nil || !sts[j].Converged {
			t.Fatalf("lane %d: err %v, stats %+v", j, errs[j], sts[j])
		}
		want := int64(0)
		if j == 2 {
			want = 1
		}
		if sts[j].Rollbacks != want {
			t.Errorf("lane %d: %d rollbacks, want %d", j, sts[j].Rollbacks, want)
		}
	}
	if sts[0].Corrections == 0 {
		t.Fatalf("lane 0 repaired nothing: %+v", sts[0])
	}
	prot := bw.shared[0]
	if got := prot.Stats().Encodings; got != 1 {
		t.Errorf("shared encoding built %d times, want once", got)
	}
	if prot.A != a || !pristineEncoding(prot, a) {
		t.Error("after lane 2's rollback the shared wrapper does not read the caller's A under its encoding")
	}
}

// TestBlockLanesPendOnAAndMInOneRound: a PCG lane that rolls back after its
// product of A restarts its iteration there, while the other lanes go on to
// their product of M — so a round holds products of both matrices, two
// groups, the lone lane's product of A running through its own kernel. Every
// lane still equals its single solve, the struck one struck the same way.
// The test drives SolveBlock's own loop to see the rounds.
func TestBlockLanesPendOnAAndMInOneRound(t *testing.T) {
	a, _, _ := testMatrix(200, 3)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	const k, struck, at = 4, 2, 6
	bs := make([][]float64, k)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(20+j))
	}
	// strike corrupts x twice at the end of the struck lane's iteration at,
	// once; the x-update of the next iteration cannot repair it and rolls
	// back.
	strike := func(rhs, it int, x []float64, done *bool) {
		if rhs == struck && it == at && !*done {
			*done = true
			strikeTwice(x)
		}
	}

	bw := NewWorkspace()
	hists := make([][]float64, k)
	struckBlock := false
	cfg := Config{Scheme: ABFTCorrection, M: m, S: 4, Tol: 1e-8, Ws: bw}
	cfg.OnIteration = func(rhs, it int, rho float64) {
		hists[rhs] = append(hists[rhs], rho)
		strike(rhs, it, bw.lanes[struck].run.x, &struckBlock)
	}
	if err := bw.start(a, bs, cfg); err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for bw.pending() {
		if len(bw.pend[0]) > 0 && len(bw.pend[1]) > 0 {
			mixed++
		}
		bw.multiply()
	}
	sts, errs := make([]Stats, k), make([]error, k)
	xs := bw.finish(sts, errs)
	if mixed == 0 {
		t.Error("no round had lanes pending on A and on M at once")
	}

	for j := range bs {
		ws := NewWorkspace()
		var hist []float64
		struckSingle := false
		single := Config{Scheme: ABFTCorrection, M: m, S: 4, Tol: 1e-8, Ws: ws}
		single.OnIteration = func(_, it int, rho float64) {
			hist = append(hist, rho)
			strike(j, it, ws.lanes[0].run.x, &struckSingle)
		}
		x, st, err := Solve(a, bs[j], single)
		if err != nil || !st.Converged {
			t.Fatalf("lane %d alone: err %v, stats %+v", j, err, st)
		}
		want := int64(0)
		if j == struck {
			want = 1
		}
		if sts[j].Rollbacks != want {
			t.Errorf("lane %d: %d rollbacks, want %d", j, sts[j].Rollbacks, want)
		}
		if errs[j] != nil || sts[j] != st || !bitsEqual(hists[j], hist) || !bitsEqual(xs[j], x) {
			t.Errorf("lane %d: err %v, stats %+v, %d iterations; alone: %+v, %d iterations", j, errs[j], sts[j], len(hists[j]), st, len(hist))
		}
	}
}

// TestRereadSettlesMatrixErrorsForward pins ABFT-Correction's step between a
// decoder that cannot name a single error and a rollback. Each scenario puts
// two errors in front of one product of A, which no two-row code decodes;
// where both sit in the matrix, or in the matrix and the product's output,
// restoring A from the caller's copy and running the product once more ends
// the episode forward — one detection, one correction, no iteration executed
// twice, M untouched — and where the vectors carry them it ends in the
// rollback it always did, one re-read dearer. The system owns its working
// copies of A and M.
func TestRereadSettlesMatrixErrorsForward(t *testing.T) {
	a := sparse.Poisson2D(14, 14)
	b, _ := rhsFor(a, 7)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	type strike func(ws *Workspace)
	// Mantissa bit 20 moves a value by 2⁻³² of itself: under Eq. (9)'s
	// tolerance, yet visible bit for bit in the column's checksums (the last
	// bit of a stencil's −1 rounds away in its column sum).
	latent := func(v float64) float64 { return bitflip.Float64(v, 20) }
	gross := func(ws *Workspace) { ws.lanes[0].live[0].Val[40] = bitflip.Float64(ws.lanes[0].live[0].Val[40], 54) }
	scenarios := []struct {
		name    string
		at      map[int]strike // useful iteration → what strikes after it
		forward bool
	}{
		{"a sub-tolerance flip still live when the next error comes", map[int]strike{
			3: func(ws *Workspace) { ws.lanes[0].live[0].Val[10] = latent(ws.lanes[0].live[0].Val[10]) },
			9: gross,
		}, true},
		{"two matrix flips in one iteration", map[int]strike{
			5: func(ws *Workspace) {
				gross(ws)
				ws.lanes[0].live[0].Colid[100] = bitflip.Int(ws.lanes[0].live[0].Colid[100], 3)
			},
		}, true},
		{"a row pointer and a value in one iteration", map[int]strike{
			5: func(ws *Workspace) {
				gross(ws)
				ws.lanes[0].live[0].Rowidx[60] = bitflip.Int(ws.lanes[0].live[0].Rowidx[60], 2)
			},
		}, true},
		{"two entries of the product's input", map[int]strike{
			5: func(ws *Workspace) { strikeTwice(ws.lanes[0].run.p) },
		}, false},
	}
	for _, sc := range scenarios {
		for _, pre := range []*sparse.CSR{nil, m} {
			name := fmt.Sprintf("%s/M=%v", sc.name, pre != nil)
			ws := NewWorkspace()
			var events []DetectionEvent
			done := map[int]bool{}
			cfg := owning()
			cfg.Scheme, cfg.M, cfg.S, cfg.Tol, cfg.Ws = ABFTCorrection, pre, 4, 1e-8, ws
			cfg.OnDetection = func(_ int, ev DetectionEvent) { events = append(events, ev) }
			cfg.OnIteration = func(_, it int, _ float64) {
				if it == 1 && pre != nil && !done[it] {
					// Rides along: a re-read of A is one CopyFrom of one matrix.
					ws.lanes[0].live[1].Val[20] = lastBit(ws.lanes[0].live[1].Val[20])
				}
				if hit := sc.at[it]; hit != nil && !done[it] {
					hit(ws)
				}
				done[it] = true
			}
			_, st, err := Solve(a, b, cfg)
			if err != nil || !st.Converged {
				t.Fatalf("%s: err %v, stats %+v", name, err, st)
			}
			cp := DefaultCostParams()
			reread := float64(a.MemoryWords()) * cp.WordTime
			products := st.TotalIterations + 1 // each iteration's product of A, and the re-read's
			wantCorr, wantRb, wantRec := int64(1), int64(0), reread
			if !sc.forward {
				wantCorr, wantRb = 0, 1
				wantRec += float64(a.MemoryWords()+3*a.Rows) * cp.WordTime
				if pre != nil {
					wantRec += float64(pre.MemoryWords()) * cp.WordTime
				}
			}
			if st.Rereads != 1 || st.Detections != 1 || st.Corrections != wantCorr || st.Rollbacks != wantRb {
				t.Errorf("%s: %d re-reads, %d detections, %d corrections, %d rollbacks; want 1, 1, %d, %d",
					name, st.Rereads, st.Detections, st.Corrections, st.Rollbacks, wantCorr, wantRb)
			}
			if sc.forward && st.TotalIterations != int64(st.UsefulIterations) {
				t.Errorf("%s: %d iterations run for %d useful", name, st.TotalIterations, st.UsefulIterations)
			}
			if len(events) != 1 || events[0].RolledBack == sc.forward || events[0].Detections != 1 || events[0].Corrections != wantCorr {
				t.Errorf("%s: detection events %+v", name, events)
			}
			if math.Abs(st.TimeRecovery-wantRec) > 1e-12*wantRec {
				t.Errorf("%s: TimeRecovery %g, want %g", name, st.TimeRecovery, wantRec)
			}
			ps := ws.lanes[0].prot[0].Stats()
			if ps.Encodings != 1 || ps.Products != products {
				t.Errorf("%s: A encoded %d times and verified %d times; want once and %d times", name, ps.Encodings, ps.Products, products)
			}
			if !ws.lanes[0].live[0].Equal(a) {
				t.Errorf("%s: the live A is not the caller's after the re-read", name)
			}
			if pre != nil && sc.forward && ws.lanes[0].live[1].Equal(pre) {
				t.Errorf("%s: the re-read of A restored M as well", name)
			}
		}
	}
}

// heapHeld returns the bytes of heap that build's result keeps alive.
func heapHeld(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestWorkspaceHoldsNoMatrixCopy bounds what a warm workspace keeps alive
// against the bytes of the CSR it solves on (the benchmark's suite:341
// operand): vectors, stores and encodings worth less than half of it, and no
// copy of the matrix — for a block of one and for a block of four. With a
// working copy per workspace the two read ≈ 1.1× and ≈ 1.4×, with a matrix in
// every checkpoint store > 3× and ≈ 9×.
func TestWorkspaceHoldsNoMatrixCopy(t *testing.T) {
	// harness.SuiteByID(341).Generate(8), spelled out: harness imports core.
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 23052 / 8, Density: 2.15e-3 * 8, Seed: 341})
	csr := int64(8 * a.MemoryWords())
	const k = 4
	bs := make([][]float64, k)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(j))
	}
	limit := csr / 2

	clone := heapHeld(func() any { return a.Clone() })
	single := heapHeld(func() any {
		ws := NewWorkspace()
		if _, _, err := Solve(a, bs[0], Config{Scheme: ABFTCorrection, Ws: ws}); err != nil {
			t.Fatal(err)
		}
		return ws
	})
	block := heapHeld(func() any {
		ws := NewWorkspace()
		if _, err := SolveBlock(a, bs, Config{Scheme: ABFTCorrection, Ws: ws}, make([]Stats, k), make([]error, k)); err != nil {
			t.Fatal(err)
		}
		return ws
	})
	t.Logf("CSR %d bytes (n = %d), a held Clone %.2f×; warm Workspace %.2f× for one system, %.2f× for k = %d",
		csr, a.Rows, float64(clone)/float64(csr), float64(single)/float64(csr), float64(block)/float64(csr), k)
	if clone < csr {
		t.Fatalf("measured %d bytes held by a Clone of the %d-byte CSR: the measurement is broken", clone, csr)
	}
	if single > limit {
		t.Errorf("warm Workspace holds %d bytes for one system, limit %d (CSR / 2)", single, limit)
	}
	if block > limit {
		t.Errorf("warm Workspace holds %d bytes for k = %d, limit %d (CSR / 2)", block, k, limit)
	}
}

// TestInjectedWorkspaceRefreshesItsCopyInPlace: an injected system's working
// copies live in its arena and are refreshed from the caller's matrix in the
// arrays they have, whatever the shape (sparse.CSR.CopyFrom). A workspace
// that alternates the benchmark's two operands — the suite:341 one, with more
// nonzeros, and the 64×64 stencil, with more rows — grows Rowidx once, at the
// first stencil solve, and then allocates no copy at any switch.
func TestInjectedWorkspaceRefreshesItsCopyInPlace(t *testing.T) {
	denserow := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 23052 / 8, Density: 2.15e-3 * 8, Seed: 341})
	stencil := sparse.Poisson2D(64, 64)
	ws := NewWorkspace()
	seed := int64(0)
	solve := func(a *sparse.CSR) *sparse.CSR {
		seed++
		b, _ := rhsFor(a, seed)
		cfg := Config{Scheme: ABFTCorrection, Ws: ws, Injectors: []*fault.Injector{fault.New(fault.Config{Alpha: 1.0 / 16, Seed: seed})}}
		if _, st, err := Solve(a, b, cfg); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatalf("solve %d: %v (%+v)", seed, err, st)
		}
		live := ws.lanes[0].live[0]
		if live.Rows != a.Rows || len(live.Val) != len(a.Val) {
			t.Fatalf("solve %d: the working copy has the shape of another matrix", seed)
		}
		return live
	}
	type arrays struct {
		val      *float64
		col, row *int
	}
	at := func(l *sparse.CSR) arrays { return arrays{&l.Val[0], &l.Colid[0], &l.Rowidx[0]} }

	warm := at(solve(denserow))
	grown := at(solve(stencil))
	if grown.val != warm.val || grown.col != warm.col {
		t.Errorf("the stencil solve reallocated Val or Colid, which the denserow copy holds room for")
	}
	for round := range 2 {
		for _, a := range []*sparse.CSR{denserow, stencil} {
			if got := at(solve(a)); got != grown {
				t.Fatalf("round %d, %d rows: the working copy moved to new arrays", round, a.Rows)
			}
		}
	}
}

// TestConcurrentFaultFreeSolvesShareOneMatrix runs four goroutines, each
// with its own workspace, over one A and one Jacobi M: every recurrence
// under every scheme, as a block of one and as a block of three. Their
// fault-free systems read the caller's matrices in place, so the goroutines
// share them; goroutine 0 strikes its own systems' vectors under the
// protected schemes — one entry of x, which ABFT-Correction repairs forward,
// then two, which every scheme rolls back. Every answer equals the solve of
// its system alone, with the same strikes, bit for bit, and the caller's
// matrices are those they were before. Under -race it also holds the sharing
// to reads.
func TestConcurrentFaultFreeSolvesShareOneMatrix(t *testing.T) {
	a, _, _ := testMatrix(200, 3)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	pristineA, pristineM := a.Clone(), m.Clone()
	var cells []Config
	for _, rec := range []struct {
		r Recurrence
		m *sparse.CSR
	}{{CG, nil}, {CG, m}, {BiCGstab, nil}} {
		for _, scheme := range append([]Scheme{Unprotected}, Schemes...) {
			if rec.r == BiCGstab && scheme == OnlineDetection {
				continue
			}
			cells = append(cells, Config{Scheme: scheme, Recurrence: rec.r, M: rec.m, S: 4, D: 1, Tol: 1e-8})
		}
	}
	const workers, k = 4, 3
	bs := make([][]float64, workers*k)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(40+j))
	}
	type answer struct {
		x   []float64
		st  Stats
		err string
	}
	// run solves systems bs[lo:lo+width] of cell c as one block on ws, goroutine
	// g's strikes included, and returns one answer per system.
	run := func(ws *Workspace, c Config, g, lo, width int) []answer {
		c.Ws = ws
		struck := map[[2]int]bool{}
		if g == 0 && c.Scheme != Unprotected {
			c.OnIteration = func(j, it int, _ float64) {
				if key := [2]int{j, it}; (it == 3 || it == 8) && !struck[key] {
					struck[key] = true
					x := ws.lanes[j].run.x
					if it == 3 {
						x[5] += 1e3
					} else {
						strikeTwice(x)
					}
				}
			}
		}
		sts, errs := make([]Stats, width), make([]error, width)
		xs, err := SolveBlock(a, bs[lo:lo+width], c, sts, errs)
		if err != nil {
			t.Errorf("%v: %v", c.Scheme, err)
			return nil
		}
		out := make([]answer, width)
		for j := range out {
			out[j] = answer{append([]float64(nil), xs[j]...), sts[j], fmt.Sprint(errs[j])}
		}
		return out
	}

	got := make([][][][]answer, workers) // goroutine, cell, block width, system
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for _, c := range cells {
				got[g] = append(got[g], [][]answer{run(ws, c, g, g*k, 1), run(ws, c, g, g*k, k)})
			}
		}()
	}
	wg.Wait()

	for g := range workers {
		for ci, c := range cells {
			for w, width := range []int{1, k} {
				for j, ans := range got[g][ci][w] {
					alone := run(NewWorkspace(), c, g, g*k+j, 1)[0]
					if ans.err != alone.err || ans.st != alone.st || !bitsEqual(ans.x, alone.x) {
						t.Errorf("goroutine %d, %v M=%v %v, system %d of %d: %+v (%s); alone %+v (%s)",
							g, c.Recurrence, c.M != nil, c.Scheme, j, width, ans.st, ans.err, alone.st, alone.err)
					}
					if g == 0 && c.Scheme != Unprotected && ans.st.Rollbacks == 0 {
						t.Errorf("%v M=%v %v, system %d of %d: the struck system never rolled back", c.Recurrence, c.M != nil, c.Scheme, j, width)
					}
				}
			}
		}
	}
	if !sameCSR(a, pristineA) || !sameCSR(m, pristineM) {
		t.Fatal("a solve wrote to the caller's matrices")
	}
}

// sameCSR reports whether two matrices hold the same words, bit for bit.
func sameCSR(a, b *sparse.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && bitsEqual(a.Val, b.Val) &&
		slices.Equal(a.Colid, b.Colid) && slices.Equal(a.Rowidx, b.Rowidx)
}

// TestVoteWithoutMajorityRollsBack: a reliable-mode kernel that a transient
// gets through must not be iterated on. The hook of the workspace's executor
// strikes the ninth dot product — every execution of its vote differently, so
// that no two agree — or the ninth update, which runs once: one element of
// the block it wrote. A vote without a majority is a detection and a
// rollback under either ABFT scheme. The struck update contradicts its
// operands' checksums: ABFT-Detection detects and rolls back, ABFT-Correction
// rebuilds the element and goes on. Each of them, under CG and under
// BiCGstab, reports exactly one detection and converges — to the bits of the
// solve nothing struck after a rollback, to its answer after a repair. (A
// difference between two executions of a dot that the third settles costs
// nothing: see internal/tmr.)
func TestVoteWithoutMajorityRollsBack(t *testing.T) {
	a, b, _ := testMatrix(150, 21)
	solvers := []struct {
		name string
		rec  Recurrence
	}{{"cg", CG}, {"bicgstab", BiCGstab}}
	for _, s := range solvers {
		for _, scheme := range []Scheme{ABFTDetection, ABFTCorrection} {
			for _, update := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/update=%v", s.name, scheme, update), func(t *testing.T) {
					cfg := Config{Scheme: scheme, Recurrence: s.rec, S: 4, Tol: 1e-8}
					want, clean, err := Solve(a, b, cfg)
					if err != nil {
						t.Fatal(err)
					}

					// Replica 0 opens every operation of either kind; the hook
					// counts those of the struck kind and strikes the ninth.
					ops := 0
					exec := &tmr.Executor{}
					exec.Corrupt = func(replica int, scalar *float64, block []float64) {
						if isUpdate := block != nil; isUpdate != update {
							return
						}
						if replica == 0 {
							ops++
						}
						if ops != 9 {
							return
						}
						if update {
							block[3] += 1
						} else {
							*scalar += float64(replica + 1)
						}
					}
					cfg.Ws = NewWorkspace()
					cfg.Ws.lane(0).run.exec = exec
					x, st, err := Solve(a, b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					forward := update && scheme == ABFTCorrection
					wantUndecided, wantCorrections, wantRollbacks := int64(1), int64(0), int64(1)
					if update {
						wantUndecided = 0
					}
					if forward {
						wantCorrections, wantRollbacks = 1, 0
					}
					if _, _, undecided := exec.Stats(); undecided != wantUndecided {
						t.Fatalf("%d votes without a majority, want %d", undecided, wantUndecided)
					}
					if st.Detections != 1 || st.Rollbacks != wantRollbacks || st.Corrections != wantCorrections {
						t.Fatalf("%d detections, %d corrections, %d rollbacks, want 1, %d, %d", st.Detections, st.Corrections, st.Rollbacks, wantCorrections, wantRollbacks)
					}
					if !st.Converged || st.UsefulIterations != clean.UsefulIterations || (st.TotalIterations > clean.TotalIterations) == forward {
						t.Fatalf("converged=%v after %d useful of %d iterations; the clean solve took %d", st.Converged, st.UsefulIterations, st.TotalIterations, clean.UsefulIterations)
					}
					for i := range x {
						if forward && math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
							t.Fatalf("x[%d] = %v, the clean solve gives %v", i, x[i], want[i])
						}
						if !forward && math.Float64bits(x[i]) != math.Float64bits(want[i]) {
							t.Fatalf("x[%d] = %v, the clean solve gives %v", i, x[i], want[i])
						}
					}
				})
			}
		}
	}
}
