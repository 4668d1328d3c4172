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
				if !ws.live[0].Equal(a) {
					return "A"
				}
				if pre != nil && !ws.live[1].Equal(pre) {
					return "M"
				}
				return ""
			}
			rollbacks, afterRollback := 0, false
			cfg := Config{Scheme: scheme, M: pre, S: 4, D: 1, Tol: 1e-8, Ws: ws}
			cfg.OnDetection = func(ev DetectionEvent) {
				if ev.RolledBack {
					rollbacks++
					afterRollback = true
				}
			}
			cfg.OnIteration = func(it int, _ float64) {
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
					ws.live[0].Val[10] = lastBit(ws.live[0].Val[10])
					if pre != nil {
						ws.live[1].Val[20] = lastBit(ws.live[1].Val[20])
					}
				case 5: // after it: the flips were checkpointed, had checkpoints carried matrices
					if live() == "" {
						t.Errorf("%s: the latent flips did not survive to iteration 5", name)
					}
				case 6:
					strikeTwice(ws.run.x)
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
				for slot, p := range ws.prot { // fresh workspace: slot 1 is armed only under M
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

// TestRollbackAfterRepairReencodes: under ABFT-Correction a forward repair of
// a matrix entry re-anchors the encoding on the repaired matrix (equal to the
// original only to rounding). A later rollback restores the caller's matrix,
// so it must bring the encoding back to that matrix as well; the solve then
// runs on without a single further detection.
func TestRollbackAfterRepairReencodes(t *testing.T) {
	a, b, _ := testMatrix(200, 3)
	k := smallEntry(a, 30)
	ws := NewWorkspace()
	struck, rolled, residue := false, false, false
	cfg := Config{Scheme: ABFTCorrection, S: 4, Tol: 1e-8, Ws: ws}
	cfg.OnIteration = func(it int, _ float64) {
		switch {
		case it == 2 && !struck:
			struck = true
			ws.live[0].Val[k] = bitflip.Float64(ws.live[0].Val[k], 54) // an exponent bit: gross, single, correctable
		case it == 6 && !rolled:
			rolled = true
			residue = ws.live[0].Val[k] != a.Val[k]
			strikeTwice(ws.run.x)
		}
	}
	_, st, err := Solve(a, b, cfg)
	if err != nil || !st.Converged {
		t.Fatalf("err %v, stats %+v", err, st)
	}
	if st.Corrections != 1 || st.Rollbacks != 1 || st.Detections != 2 {
		t.Fatalf("corrections %d, rollbacks %d, detections %d; want 1, 1, 2 (a third detection is a false positive)",
			st.Corrections, st.Rollbacks, st.Detections)
	}
	prot := ws.prot[0]
	if got := prot.Stats().Encodings; got != 3 {
		t.Errorf("encoded %d times, want 3: arming, the repair, the rollback after it", got)
	}
	if !ws.live[0].Equal(a) || !pristineEncoding(prot, a) {
		t.Error("after the rollback the live matrix or its encoding is not the caller's")
	}
	if !residue {
		t.Error("the repair was exact: the scenario does not tell a re-encoded rollback from a skipped one")
	}
}

// TestBlockLaneRollbackAfterAnotherLanesRepair: blocked lanes share one live
// matrix and one encoding, so the lane that rolls back need not be the lane
// whose repair re-anchored the encoding — which is why the bit lives in
// abft.Protected and not in an engine.
func TestBlockLaneRollbackAfterAnotherLanesRepair(t *testing.T) {
	a, _, _ := testMatrix(200, 3)
	const k = 4
	bs := make([][]float64, k)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(20+j))
	}
	bw := NewBlockWorkspace()
	repaired, rolled := false, false
	cfg := BlockConfig{Scheme: ABFTCorrection, S: 4, Tol: 1e-8, Ws: bw}
	cfg.OnIteration = func(rhs, it int, _ float64) {
		switch {
		case rhs == 0 && it == 2 && !repaired:
			// Lane 0 is the first to verify the next product and repairs.
			repaired = true
			live, e := bw.shared.live[0], smallEntry(a, 30)
			live.Val[e] = bitflip.Float64(live.Val[e], 54)
		case rhs == 2 && it == 6 && !rolled:
			rolled = true
			strikeTwice(bw.lanes[2].ws.run.x)
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
	if got := prot.Stats().Encodings; got != 3 {
		t.Errorf("shared encoding built %d times, want 3: arming, lane 0's repair, lane 2's rollback", got)
	}
	if !bw.shared.live[0].Equal(a) || !pristineEncoding(prot, a) {
		t.Error("after lane 2's rollback the shared live matrix or its encoding is not the caller's")
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
// half of it — for one right-hand side and for a block of four. With a
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
		bw := NewBlockWorkspace()
		if _, err := SolveBlock(a, bs, BlockConfig{Scheme: ABFTCorrection, Ws: bw}, make([]Stats, k), make([]error, k)); err != nil {
			t.Fatal(err)
		}
		return bw
	})
	t.Logf("CSR %d bytes (n = %d); warm Workspace %.2f×, warm k = %d BlockWorkspace %.2f×",
		csr, a.Rows, float64(single)/float64(csr), k, float64(block)/float64(csr))
	if single < csr || block < csr {
		t.Fatalf("measured %d and %d bytes held, below the live copy's %d: the measurement is broken", single, block, csr)
	}
	if single > limit {
		t.Errorf("warm Workspace holds %d bytes, limit %d (1.5 × CSR)", single, limit)
	}
	if block > limit {
		t.Errorf("warm k = %d BlockWorkspace holds %d bytes, limit %d (1.5 × CSR)", k, block, limit)
	}
}
