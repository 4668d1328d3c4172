package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/sparse"
)

// bitsEqual compares two vectors bit for bit, any NaN equal to any NaN.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// blockAlphas are the fault rates FuzzBlockLanes draws from.
var blockAlphas = []float64{0, 1.0 / 64, 1.0 / 16}

// FuzzBlockLanes states SolveBlock's contract as a property: over CG,
// Jacobi-PCG and BiCGstab on two small operands, any scheme, k = 1…5 systems
// and a fault rate, system j of a blocked solve — its injector seeded
// seed + j·7919 — returns the x, Stats and error of the block of one on that
// system under an injector of the same seed. Fault-free systems share
// matrices and blocked products; injected ones own theirs and multiply alone;
// a refusal (BiCGstab under Online-Detection, an injector under Unprotected)
// is the block of one's refusal. Neither writes the caller's matrices: A and
// M are bit for bit what they were after every block and every block of one,
// fault-free or injected.
func FuzzBlockLanes(f *testing.F) {
	systems := fwdSystems()
	pristine := make([][2]*sparse.CSR, len(systems))
	for si, s := range systems {
		pristine[si][0] = s.a.Clone()
		if s.m != nil {
			pristine[si][1] = s.m.Clone()
		}
	}
	for si := range systems {
		for scheme := range 4 {
			f.Add(uint8(si), uint8(scheme), uint8(4), uint8(0), int64(11))
			f.Add(uint8(si), uint8(scheme), uint8(2), uint8(2), int64(23))
		}
		f.Add(uint8(si), uint8(ABFTCorrection), uint8(5), uint8(1), int64(37))
		f.Add(uint8(si), uint8(Unprotected), uint8(1), uint8(0), int64(0))
	}

	f.Fuzz(func(t *testing.T, system, scheme, width, rate uint8, seed int64) {
		si := int(system) % len(systems)
		s := systems[si]
		untouched := func(what string) {
			if !sameCSR(s.a, pristine[si][0]) || (s.m != nil && !sameCSR(s.m, pristine[si][1])) {
				t.Fatalf("%s %v: %s wrote to the caller's matrices", s.name, Scheme(scheme%4), what)
			}
		}
		k := 1 + int(width)%5
		alpha := blockAlphas[int(rate)%len(blockAlphas)]
		injector := func(j int) *fault.Injector {
			if alpha == 0 {
				return nil
			}
			return fault.New(fault.Config{Alpha: alpha, Seed: seed + int64(j)*7919})
		}
		cfg := s.config(Scheme(scheme % 4))
		name := fmt.Sprintf("%s %v k=%d alpha=%g seed=%d", s.name, cfg.Scheme, k, alpha, seed)

		bs := make([][]float64, k)
		block := cfg
		block.Injectors = make([]*fault.Injector, k)
		for j := range bs {
			bs[j], _ = rhsFor(s.a, int64(j))
			block.Injectors[j] = injector(j)
		}
		sts, errs := make([]Stats, k), make([]error, k)
		xs, blockErr := SolveBlock(s.a, bs, block, sts, errs)
		untouched("the block")

		for j, b := range bs {
			cfg.Injectors = []*fault.Injector{injector(j)}
			x, st, err := Solve(s.a, b, cfg)
			untouched(fmt.Sprintf("system %d alone", j))
			if blockErr != nil {
				if err == nil || err.Error() != blockErr.Error() {
					t.Fatalf("%s: the block refused with %v, system %d alone answers %v", name, blockErr, j, err)
				}
				continue
			}
			if fmt.Sprint(errs[j]) != fmt.Sprint(err) {
				t.Fatalf("%s system %d: err %v, alone %v", name, j, errs[j], err)
			}
			if sts[j] != st && fmt.Sprintf("%+v", sts[j]) != fmt.Sprintf("%+v", st) {
				t.Fatalf("%s system %d: stats %+v, alone %+v", name, j, sts[j], st)
			}
			if !bitsEqual(xs[j], x) {
				t.Fatalf("%s system %d: x differs from the block of one's", name, j)
			}
		}
	})
}
