package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitflip"
	"repro/internal/tmr"
)

// phaseFlip is one bit flip of a solver vector or of a word of the lane's
// live copy of A or M, struck at a numbered phase boundary of the solve.
type phaseFlip struct {
	word     string // a vector: r, p, x, q (BiCGstab's v), z (PCG), s or t (BiCGstab); or a matrix array: A.Val, M.Colid, ...
	index    int
	bit      uint
	boundary int
}

func (fl phaseFlip) String() string {
	return fmt.Sprintf("%s[%d] bit %d @%d", fl.word, fl.index, fl.bit, fl.boundary)
}

// phaseWords lists what a flip can strike in this system, in the order the
// schedule's word byte indexes: the solver vectors, then the arrays of A and,
// under PCG, of M.
func (s *fwdSystem) phaseWords() []string {
	var ws []string
	switch s.kind {
	case "pcg":
		ws = []string{"r", "p", "x", "q", "z"}
	case "bicgstab":
		ws = []string{"r", "p", "x", "q", "s", "t"}
	default:
		ws = []string{"r", "p", "x", "q"}
	}
	ws = append(ws, "A.Val", "A.Colid", "A.Rowidx")
	if s.m != nil {
		ws = append(ws, "M.Val", "M.Colid", "M.Rowidx")
	}
	return ws
}

// phaseLen is the length of what a word names: n for a vector, nnz for Val
// and Colid, n+1 for Rowidx.
func (s *fwdSystem) phaseLen(word string) int {
	m, array, _ := strings.Cut(word, ".")
	a := s.a
	if m == "M" {
		a = s.m
	}
	switch array {
	case "Val", "Colid":
		return a.NNZ()
	case "Rowidx":
		return a.Rows + 1
	}
	return s.a.Rows
}

const phaseFlipBytes = 6 // word, index (low byte), bit, boundary (two bytes), index (high byte)

// phaseDecode reads up to three flips; every field is reduced into range
// (boundaries into the count of a clean solve, plus the few a rollback adds;
// the bits of an index word to the 30 the injector draws from).
func (s *fwdSystem) phaseDecode(sched []byte, boundaries int) []phaseFlip {
	var flips []phaseFlip
	ws := s.phaseWords()
	for ; len(sched) >= phaseFlipBytes && len(flips) < 3; sched = sched[phaseFlipBytes:] {
		word := ws[int(sched[0])%len(ws)]
		bits := 64
		if _, array, ok := strings.Cut(word, "."); ok && array != "Val" {
			bits = 30
		}
		flips = append(flips, phaseFlip{
			word:     word,
			index:    (int(sched[5])<<8 | int(sched[1])) % s.phaseLen(word),
			bit:      uint(sched[2]) % uint(bits),
			boundary: 1 + (int(sched[3])<<8|int(sched[4]))%(boundaries+16),
		})
	}
	return flips
}

// phaseSolve is the block of one with the flips struck at the boundaries between
// the engine's phases, numbered as they pass: after every dot product's vote
// and every update's execution (the executor's hook; the vectors are shorter
// than a block, so an update shows it once, between its write and its check),
// before each protected product, between the product and its verification,
// after the verification, and between two iterations. It returns the number
// of boundaries passed.
func (s *fwdSystem) phaseSolve(scheme Scheme, flips []phaseFlip) ([]float64, Stats, int, error) {
	l := NewWorkspace().lane(0)
	e := &l.run
	passed := 0
	boundary := func() {
		passed++
		for _, fl := range flips {
			if fl.boundary != passed {
				continue
			}
			m, array, ok := strings.Cut(fl.word, ".")
			if !ok {
				v := map[string][]float64{"r": e.r, "p": e.p, "x": e.x, "q": e.q, "z": e.pcg.z, "s": e.bicg.s, "t": e.bicg.t}[fl.word]
				v[fl.index] = bitflip.Float64(v[fl.index], fl.bit)
				continue
			}
			// The lane's live copy, never the caller's: that is the valid
			// copy rollback and reread restore from.
			a := e.mat[0]
			if m == "M" {
				a = e.mat[1]
			}
			switch array {
			case "Val":
				a.Val[fl.index] = bitflip.Float64(a.Val[fl.index], fl.bit)
			case "Colid":
				a.Colid[fl.index] = bitflip.Int(a.Colid[fl.index], fl.bit)
			case "Rowidx":
				a.Rowidx[fl.index] = bitflip.Int(a.Rowidx[fl.index], fl.bit)
			}
		}
	}
	e.exec = &tmr.Executor{Corrupt: func(replica int, scalar *float64, _ []float64) {
		// A dot's vote is over once replica 1 has run; a third execution, if
		// the strike at replica 1's boundary made them differ, is part of it.
		if scalar == nil || replica == 1 {
			boundary()
		}
	}}
	cfg := s.config(scheme)
	cfg.OnIteration = func(int, int, float64) { boundary() }
	if err := e.start(l, 0, s.a, s.b, cfg, nil); err != nil {
		return nil, Stats{}, 0, err
	}
	for !e.advance() {
		boundary()
		sr := e.multiply()
		boundary()
		e.complete(sr)
		boundary()
	}
	x, st, err := e.finish()
	return x, st, passed, err
}

// phaseBoundaries is the number of boundaries a clean solve of each system
// passes under each ABFT scheme.
var phaseBoundaries = sync.OnceValue(func() map[string]int {
	out := map[string]int{}
	for _, s := range fwdSystems() {
		for _, scheme := range []Scheme{ABFTDetection, ABFTCorrection} {
			_, st, n, err := s.phaseSolve(scheme, nil)
			if err != nil || !st.Converged || st.Detections != 0 {
				panic(fmt.Sprintf("%s %v: clean solve: %v, %+v", s.name, scheme, err, st))
			}
			out[s.name+scheme.String()] = n
		}
	}
	return out
})

// FuzzPhaseBoundaries strikes the solver vectors where the injector never
// does: between any two phases of the engine — after a verification, between
// two updates, between an update and the dot product that reads its output,
// between an update's write and its check. Since the updates are verified
// against their operands' references and the products against their input's,
// a struck word is caught by the first verified kernel that reads it; the
// reads that stay unverified (internal/tmr's package doc lists them: the dot
// products, BiCGstab's direction loop and half-step norm) can take a wrong
// scalar or direction into the recurrence, which still iterates on a
// consistent x and r. The words of the lane's live copy of A and M are read
// by the protected products alone, so a struck one is caught by the next. So
// for up to three flips of r, p, x, q, z (PCG), s and t (BiCGstab) and of
// Val, Colid and Rowidx of A and M (PCG), any word, any bit (an index's low
// 30), any boundary, both ABFT schemes converge to the unprotected solver's
// answer — ABFT-Correction repairing forward where the defect names an
// element, and always for matrix words, ABFT-Detection rolling back — and a
// breakdown or a failed confirmation on the way is a detection like any other.
func FuzzPhaseBoundaries(f *testing.F) {
	systems := fwdSystems()
	for si, s := range systems {
		n := phaseBoundaries()[s.name+ABFTCorrection.String()]
		for scheme := uint8(0); scheme < 2; scheme++ {
			f.Add(uint8(si), scheme, []byte{})
			// Every vector at a spread of boundaries inside one iteration,
			// mid-solve: low mantissa, high mantissa, exponent and sign bits.
			for vi, w := range s.phaseWords() {
				if strings.Contains(w, ".") {
					continue
				}
				for k, bit := range []byte{20, 51, 55, 62, 63} {
					b := n/3 + 3*vi + k
					f.Add(uint8(si), scheme, []byte{byte(vi), byte(17 * (vi + k)), bit, byte(b >> 8), byte(b), 0})
				}
			}
			// Three at once, and one on the last boundaries of the solve.
			f.Add(uint8(si), scheme, []byte{0, 5, 60, 0, 40, 0, 2, 9, 58, 0, 41, 0, 3, 30, 61, 0, 42, 0})
			f.Add(uint8(si), scheme, []byte{2, 7, 61, byte((n - 1) >> 8), byte(n - 1), 0, 0, 7, 54, byte((n - 3) >> 8), byte(n - 3), 0})
		}
	}

	// What the first runs of this target found, on poisson2d144/pcg under
	// ABFT-Correction: z, then r, struck after the verification of z = M·r and
	// before ρ = rᵀz reads them. The next update repaired the vector and went
	// on with the wrong ρ, and the solve diverged (engine.held, rhoStands).
	f.Add(uint8(1), uint8(1), []byte{4, 50, 55, 0, 236, 0})
	f.Add(uint8(1), uint8(1), []byte{0, 48, 55, 0, 212, 0})

	// Every array of A and, under PCG, of M, once per scheme, mid-solve: two
	// words of it at one boundary, an exponent bit of a value or a low bit of
	// an index, which no decoder pins on a single word — ABFT-Correction
	// re-reads the matrix (engine.reread).
	for si, s := range systems {
		n := phaseBoundaries()[s.name+ABFTCorrection.String()]
		for scheme := uint8(0); scheme < 2; scheme++ {
			for wi, w := range s.phaseWords() {
				bit := byte(3)
				if strings.HasSuffix(w, ".Val") {
					bit = 58
				} else if !strings.Contains(w, ".") {
					continue
				}
				b := n/3 + wi
				f.Add(uint8(si), scheme, []byte{byte(wi), byte(11 * wi), bit, byte(b >> 8), byte(b), 0, byte(wi), byte(11*wi + 40), bit, byte(b >> 8), byte(b), 0})
			}
		}
	}

	f.Fuzz(func(t *testing.T, system, scheme uint8, sched []byte) {
		s := systems[int(system)%len(systems)]
		sch := []Scheme{ABFTDetection, ABFTCorrection}[scheme%2]
		flips := s.phaseDecode(sched, phaseBoundaries()[s.name+sch.String()])
		x, st, _, err := s.phaseSolve(sch, flips)
		if err != nil || !st.Converged {
			t.Fatalf("%s %v %v: err %v, stats %+v", s.name, sch, flips, err, st)
		}
		var diff, scale float64
		for i, v := range s.ref {
			diff, scale = math.Max(diff, math.Abs(x[i]-v)), math.Max(scale, math.Abs(v))
		}
		// The same closeness FuzzForwardRecovery asks for, for its reasons.
		if !(diff <= 1e-4*scale) || !(st.FinalResidual <= 1e-6) {
			t.Fatalf("%s %v %v: x is off the reference by %.3g (‖x‖∞ = %.3g), residual %.3g, stats %+v", s.name, sch, flips, diff, scale, st.FinalResidual, st)
		}
		// The matrix words are FuzzForwardRecovery's too, and so is its
		// forward clause: ABFT-Correction repairs them, or re-reads the
		// matrix, without a rollback.
		forward := sch == ABFTCorrection
		for _, fl := range flips {
			forward = forward && strings.Contains(fl.word, ".")
		}
		if forward && (st.Rollbacks != 0 || st.Detections != st.Corrections) {
			t.Fatalf("%s %v: matrix words only, yet %d rollbacks, %d of %d detections corrected (%d re-reads)",
				s.name, flips, st.Rollbacks, st.Corrections, st.Detections, st.Rereads)
		}
	})
}
