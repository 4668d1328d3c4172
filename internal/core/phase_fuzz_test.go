package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bitflip"
	"repro/internal/tmr"
)

// phaseFlip is one bit flip of a solver vector, struck at a numbered phase
// boundary of the solve.
type phaseFlip struct {
	vec      string // r, p, x, q (BiCGstab's v), z (PCG), s or t (BiCGstab)
	index    int
	bit      uint
	boundary int
}

func (fl phaseFlip) String() string {
	return fmt.Sprintf("%s[%d] bit %d @%d", fl.vec, fl.index, fl.bit, fl.boundary)
}

// phaseVectors lists what a flip can strike in this system, in the order the
// schedule's vector byte indexes.
func (s *fwdSystem) phaseVectors() []string {
	switch s.kind {
	case "pcg":
		return []string{"r", "p", "x", "q", "z"}
	case "bicgstab":
		return []string{"r", "p", "x", "q", "s", "t"}
	}
	return []string{"r", "p", "x", "q"}
}

const phaseFlipBytes = 6 // vector, index, bit, boundary (two bytes), spare

// phaseDecode reads up to three flips; every field is reduced into range
// (boundaries into the count of a clean solve, plus the few a rollback adds).
func (s *fwdSystem) phaseDecode(sched []byte, boundaries int) []phaseFlip {
	var flips []phaseFlip
	vs := s.phaseVectors()
	for ; len(sched) >= phaseFlipBytes && len(flips) < 3; sched = sched[phaseFlipBytes:] {
		flips = append(flips, phaseFlip{
			vec:      vs[int(sched[0])%len(vs)],
			index:    int(sched[1]) % s.a.Rows,
			bit:      uint(sched[2]) % 64,
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
			v := map[string][]float64{"r": e.r, "p": e.p, "x": e.x, "q": e.q, "z": e.pcg.z, "s": e.bicg.s, "t": e.bicg.t}[fl.vec]
			v[fl.index] = bitflip.Float64(v[fl.index], fl.bit)
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
// consistent x and r. So for up to three flips of r, p, x, q, z (PCG), s and
// t (BiCGstab), any word, any bit, any boundary, both ABFT schemes converge to
// the unprotected solver's answer — ABFT-Correction repairing forward where
// the defect names an element, ABFT-Detection rolling back — and a breakdown
// or a failed confirmation on the way is a detection like any other.
func FuzzPhaseBoundaries(f *testing.F) {
	systems := fwdSystems()
	for si, s := range systems {
		n := phaseBoundaries()[s.name+ABFTCorrection.String()]
		vs := s.phaseVectors()
		for scheme := uint8(0); scheme < 2; scheme++ {
			f.Add(uint8(si), scheme, []byte{})
			// Every vector at a spread of boundaries inside one iteration,
			// mid-solve: low mantissa, high mantissa, exponent and sign bits.
			for vi := range vs {
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
	})
}
