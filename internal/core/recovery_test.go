package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/abft"
	"repro/internal/bitflip"
	"repro/internal/checksum"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/tmr"
)

// The tests of this file pin where recovery finds its valid copy of the
// matrices: in the caller's A and M, not in a checkpoint. They strike the
// live state from the OnIteration hook — between iterations, where the
// injector strikes too — so every scenario is exact, not drawn.

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

// TestRollbackRestoresTheCallersMatrices: a sub-tolerance flip in A and in M
// before a checkpoint stays in the live matrices through that checkpoint, and
// is gone after the next rollback, under every scheme — and an ABFT-Detection
// solve, which never repairs, pays for that with one CopyFrom per matrix and
// no encoding beyond the one that armed it.
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
			name := fmt.Sprintf("%v/M=%v", scheme, pre != nil)
			ws := NewWorkspace()
			live := func() string {
				if !ws.shared.live[0].Equal(a) {
					return "A"
				}
				if pre != nil && !ws.shared.live[1].Equal(pre) {
					return "M"
				}
				return ""
			}
			rollbacks, afterRollback := 0, false
			cfg := Config{Scheme: scheme, M: pre, S: 4, D: 1, Tol: 1e-8, Ws: ws}
			cfg.OnDetection = func(_ int, ev DetectionEvent) {
				if ev.RolledBack {
					rollbacks++
					afterRollback = true
				}
			}
			cfg.OnIteration = func(_, it int, _ float64) {
				if afterRollback {
					// First iteration since the rollback; nothing has struck since.
					afterRollback = false
					if which := live(); which != "" {
						t.Errorf("%s: live %s differs from the caller's after rollback %d", name, which, rollbacks)
					}
				}
				if rollbacks > 0 {
					return
				}
				switch it {
				case 3: // before the checkpoint of iteration 4
					ws.shared.live[0].Val[10] = lastBit(ws.shared.live[0].Val[10])
					if pre != nil {
						ws.shared.live[1].Val[20] = lastBit(ws.shared.live[1].Val[20])
					}
				case 5: // after it: the flips were checkpointed, had checkpoints carried matrices
					if live() == "" {
						t.Errorf("%s: the latent flips did not survive to iteration 5", name)
					}
				case 6:
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
			if scheme == ABFTDetection {
				for slot, p := range ws.shared.prot { // fresh workspace: slot 1 is armed only under M
					if p != nil && p.Stats().Encodings != 1 {
						t.Errorf("%s: matrix %d encoded %d times, want once", name, slot, p.Stats().Encodings)
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
// live word holds the caller's bits again — not the value exclusion rebuilds,
// which is off by rounding — and the encoding built when the solve was armed
// describes the live matrix through the repair and the rollback after it: it
// is built once, and the solve runs on without a single further detection.
func TestRollbackAfterRepairKeepsTheEncoding(t *testing.T) {
	a, b, _ := testMatrix(200, 3)
	k := smallEntry(a, 30)
	if rebuiltByExclusion(a, k) == a.Val[k] {
		t.Fatal("exclusion rebuilds the entry exactly: the scenario does not tell a finished repair from an unfinished one")
	}
	ws := NewWorkspace()
	struck, rolled := false, false
	cfg := Config{Scheme: ABFTCorrection, S: 4, Tol: 1e-8, Ws: ws}
	cfg.OnIteration = func(_, it int, _ float64) {
		switch {
		case it == 2 && !struck:
			struck = true
			ws.shared.live[0].Val[k] = bitflip.Float64(ws.shared.live[0].Val[k], 54) // an exponent bit: gross, single, correctable
		case it == 6 && !rolled:
			rolled = true
			if !ws.shared.live[0].Equal(a) {
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
	prot := ws.shared.prot[0]
	if got := prot.Stats().Encodings; got != 1 {
		t.Errorf("encoded %d times, want once: neither the repair nor the rollback moves the matrix off its encoding", got)
	}
	if !ws.shared.live[0].Equal(a) || !pristineEncoding(prot, a) {
		t.Error("after the rollback the live matrix or its encoding is not the caller's")
	}
}

// TestBlockLaneRollbackAfterAnotherLanesRepair: blocked lanes share one live
// matrix and one encoding, and the lane that rolls back need not be the lane
// that repaired. Neither touches the encoding: it is built once per block.
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
			live, e := bw.shared.live[0], smallEntry(a, 30)
			live.Val[e] = bitflip.Float64(live.Val[e], 54)
		case rhs == 2 && it == 6 && !rolled:
			rolled = true
			if !bw.shared.live[0].Equal(a) {
				t.Error("after lane 0's repair the shared live matrix is not bit-equal to the caller's")
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
	prot := bw.shared.prot[0]
	if got := prot.Stats().Encodings; got != 1 {
		t.Errorf("shared encoding built %d times, want once", got)
	}
	if !bw.shared.live[0].Equal(a) || !pristineEncoding(prot, a) {
		t.Error("after lane 2's rollback the shared live matrix or its encoding is not the caller's")
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
// rollback it always did, one re-read dearer.
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
	gross := func(ws *Workspace) { ws.shared.live[0].Val[40] = bitflip.Float64(ws.shared.live[0].Val[40], 54) }
	scenarios := []struct {
		name    string
		at      map[int]strike // useful iteration → what strikes after it
		forward bool
	}{
		{"a sub-tolerance flip still live when the next error comes", map[int]strike{
			3: func(ws *Workspace) { ws.shared.live[0].Val[10] = latent(ws.shared.live[0].Val[10]) },
			9: gross,
		}, true},
		{"two matrix flips in one iteration", map[int]strike{
			5: func(ws *Workspace) {
				gross(ws)
				ws.shared.live[0].Colid[100] = bitflip.Int(ws.shared.live[0].Colid[100], 3)
			},
		}, true},
		{"a row pointer and a value in one iteration", map[int]strike{
			5: func(ws *Workspace) {
				gross(ws)
				ws.shared.live[0].Rowidx[60] = bitflip.Int(ws.shared.live[0].Rowidx[60], 2)
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
			cfg := Config{Scheme: ABFTCorrection, M: pre, S: 4, Tol: 1e-8, Ws: ws}
			cfg.OnDetection = func(_ int, ev DetectionEvent) { events = append(events, ev) }
			cfg.OnIteration = func(_, it int, _ float64) {
				if it == 1 && pre != nil && !done[it] {
					// Rides along: a re-read of A is one CopyFrom of one matrix.
					ws.shared.live[1].Val[20] = lastBit(ws.shared.live[1].Val[20])
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
			ps := ws.shared.prot[0].Stats()
			if ps.Encodings != 1 || ps.Products != products {
				t.Errorf("%s: A encoded %d times and verified %d times; want once and %d times", name, ps.Encodings, ps.Products, products)
			}
			if !ws.shared.live[0].Equal(a) {
				t.Errorf("%s: the live A is not the caller's after the re-read", name)
			}
			if pre != nil && sc.forward && ws.shared.live[1].Equal(pre) {
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

// TestWorkspaceHoldsOneMatrixCopy bounds what a warm workspace keeps alive
// against the bytes of the CSR it solves on (the benchmark's suite:341
// operand): the live copy, and vectors, stores and encodings worth less than
// half of it — for a block of one and for a block of four. With a
// matrix in every checkpoint store the two read > 3× and ≈ 9×.
func TestWorkspaceHoldsOneMatrixCopy(t *testing.T) {
	// harness.SuiteByID(341).Generate(8), spelled out: harness imports core.
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 23052 / 8, Density: 2.15e-3 * 8, Seed: 341})
	csr := int64(8 * a.MemoryWords())
	const k = 4
	bs := make([][]float64, k)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(j))
	}
	limit := csr + csr/2

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
	t.Logf("CSR %d bytes (n = %d); warm Workspace %.2f× for one system, %.2f× for k = %d",
		csr, a.Rows, float64(single)/float64(csr), float64(block)/float64(csr), k)
	if single < csr || block < csr {
		t.Fatalf("measured %d and %d bytes held, below the live copy's %d: the measurement is broken", single, block, csr)
	}
	if single > limit {
		t.Errorf("warm Workspace holds %d bytes for one system, limit %d (1.5 × CSR)", single, limit)
	}
	if block > limit {
		t.Errorf("warm Workspace holds %d bytes for k = %d, limit %d (1.5 × CSR)", block, k, limit)
	}
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
