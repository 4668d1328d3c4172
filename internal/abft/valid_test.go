package abft

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bitflip"
	"repro/internal/checksum"
	"repro/internal/sparse"
)

// The tests of this file pin what a wrapper does with a valid copy of its
// matrix (Protected.Valid): every matrix repair ends bit-equal to it, and a
// repair it contradicts is no repair.

// smallestInRow returns the position of the smallest nonzero of a row.
// Rebuilt from a column checksum that its diagonal dominates, such an entry
// comes back equal to the original only to rounding.
func smallestInRow(a *sparse.CSR, row int) int {
	k := a.Rowidx[row]
	for j := k; j < a.Rowidx[row+1]; j++ {
		if abs(a.Val[j]) < abs(a.Val[k]) {
			k = j
		}
	}
	return k
}

// TestRepairsTakeTheValidCopysBits strikes each matrix array in turn. With a
// valid copy every repair leaves the live matrix bit-equal to it — a
// reconstructed value included, which exclusion alone gets right only to
// rounding — so the one encoding built at arming describes the matrix through
// all of them: each later error still decodes as the single error it is.
func TestRepairsTakeTheValidCopysBits(t *testing.T) {
	h := newHarness(t, 80, DetectCorrect, 21)
	a := h.p.A
	k := smallestInRow(a, 30)
	strikes := []struct {
		name   string
		strike func()
		class  ErrorClass
	}{
		{"Val", func() { a.Val[k] = bitflip.Float64(a.Val[k], 54) }, ClassVal},
		{"Val non-finite", func() { a.Val[k+1] = bitflip.Float64(a.Val[k+1], 62) }, ClassVal},
		{"Colid in range", func() { a.Colid[a.Rowidx[12]] = bitflip.Int(a.Colid[a.Rowidx[12]], 2) }, ClassColid},
		{"Colid out of range", func() { a.Colid[a.Rowidx[50]+1] = bitflip.Int(a.Colid[a.Rowidx[50]+1], 20) }, ClassColid},
		{"Rowidx", func() { a.Rowidx[40] = bitflip.Int(a.Rowidx[40], 1) }, ClassRowidx},
	}

	// Without a valid copy the first repair leaves a residue: the scenario
	// tells a repair finished against the copy from one that is not.
	strikes[0].strike()
	if out := h.run(); !out.Corrected || a.Val[k] == h.orig.Val[k] {
		t.Fatalf("outcome %+v, residue %v: the exclusion repair was exact, pick another entry", out, a.Val[k] != h.orig.Val[k])
	}
	a.CopyFrom(h.orig)

	h.p.Valid = h.orig
	for _, s := range strikes {
		s.strike()
		if a.Equal(h.orig) {
			t.Fatalf("%s: the strike changed nothing", s.name)
		}
		out := h.run()
		if !out.Corrected || out.Class != s.class {
			t.Fatalf("%s: outcome %+v, want a corrected %v error", s.name, out, s.class)
		}
		if !a.Equal(h.orig) {
			t.Fatalf("%s: the repaired matrix is not bit-equal to the valid copy", s.name)
		}
	}
	if got := h.p.Stats().Encodings; got != 1 {
		t.Errorf("encoded %d times, want once", got)
	}
	if out := h.run(); out.Detected {
		t.Errorf("a clean product after the repairs was flagged: %+v", out)
	}
}

// TestMislocatedRepairIsRefused moves a column index of a stencil row onto a
// column where the row holds an equal value: moving either of the two entries
// back reproduces the product, so the first candidate passes re-verification
// although it is the wrong word. The valid copy refuses it and the decoder
// goes on to the right one.
func TestMislocatedRepairIsRefused(t *testing.T) {
	for _, withValid := range []bool{false, true} {
		orig := sparse.Poisson2D(8, 8)
		a := orig.Clone()
		p := NewProtected(a, DetectCorrect)
		if withValid {
			p.Valid = orig
		}
		x := make([]float64, a.Rows)
		for i := range x {
			x[i] = 1 + float64(i%7)/3
		}
		y := make([]float64, a.Rows)

		// Row 5 holds −1 in columns 4 and 6; one flipped bit takes 6 to 4.
		const row = 5
		right := -1
		for k := a.Rowidx[row]; k < a.Rowidx[row+1]; k++ {
			if a.Colid[k] == 6 {
				right = k
			}
		}
		a.Colid[right] = bitflip.Int(a.Colid[right], 1)
		if a.Colid[right] != 4 {
			t.Fatalf("the flip took column 6 to %d, want 4", a.Colid[right])
		}

		out := p.Verify(y, x, checksum.NewVector(x), p.MulVec(y, x))
		if !out.Corrected || out.Class != ClassColid {
			t.Fatalf("valid copy %v: outcome %+v, want a corrected Colid error", withValid, out)
		}
		if got := a.Equal(orig); got != withValid {
			t.Errorf("valid copy %v: repaired matrix equal to the original: %v", withValid, got)
		}
	}
}

// TestRepairAbsorbingALatentFlipIsRefused is the sequence behind every
// rollback ABFT-Correction took on the repo benchmark: a flip in a low
// mantissa bit passes the Eq. (9) tolerance and stays in the matrix; a later
// gross error in the same column is rebuilt by exclusion from a column sum
// the latent flip is part of, so the rebuilt value carries the flip's delta.
// Re-verification passes — the delta is below tolerance — but the value
// stands off the valid copy's by more than the rounding of the sums, and the
// wrapper leaves the verdict to its caller, who restores the matrix.
func TestRepairAbsorbingALatentFlipIsRefused(t *testing.T) {
	for _, withValid := range []bool{false, true} {
		h := newHarness(t, 80, DetectCorrect, 22)
		a := h.p.A
		if withValid {
			h.p.Valid = h.orig
		}
		// Two entries of one column, in different rows.
		latent, gross := -1, -1
		for k, c := range a.Colid {
			if c == 17 {
				if latent < 0 {
					latent = k
				} else if gross < 0 {
					gross = k
				}
			}
		}
		if gross < 0 {
			t.Fatal("column 17 holds fewer than two entries")
		}
		a.Val[latent] = bitflip.Float64(a.Val[latent], 14)
		if out := h.run(); out.Detected {
			t.Fatalf("the latent flip was detected: %+v", out)
		}
		a.Val[gross] = bitflip.Float64(a.Val[gross], 54)
		out := h.run()
		if out.Corrected == withValid {
			t.Errorf("valid copy %v: outcome %+v", withValid, out)
		}
		if withValid && out.Class != ClassMultiple {
			t.Errorf("refused repair reported as %v, want %v", out.Class, ClassMultiple)
		}
	}
}

// sameBits reports whether two matrices hold the same words, bit for bit.
func sameBits(a, b *sparse.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && sameFloats(a.Val, b.Val) &&
		slices.Equal(a.Colid, b.Colid) && slices.Equal(a.Rowidx, b.Rowidx)
}

// sameFloats compares two vectors bit for bit.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// TestRepairCopiesASharedMatrixFirst arms a wrapper over its valid copy
// itself (A == Valid), as the resilient drivers arm a fault-free system over
// the caller's matrix, and gives it a matrix its encoding contradicts — the
// false positive such a system never meets, and the one place a decoder could
// write to the caller's copy. Before the Val, Colid or Rowidx decoder writes a
// word, the wrapper takes a private copy: the valid copy keeps its bits, and
// the outcome, the product and the words the decoder leaves are those of a
// wrapper armed over a copy of its own from the start. Pointing A back at
// Valid drops the copy, and the next private copy reuses its storage.
func TestRepairCopiesASharedMatrixFirst(t *testing.T) {
	strikes := []struct {
		name   string
		strike func(a *sparse.CSR, k int)
	}{
		{"Val", func(a *sparse.CSR, k int) { a.Val[k] = bitflip.Float64(a.Val[k], 54) }},
		{"Val non-finite", func(a *sparse.CSR, k int) { a.Val[k+1] = bitflip.Float64(a.Val[k+1], 62) }},
		{"Colid in range", func(a *sparse.CSR, _ int) { a.Colid[a.Rowidx[12]] = bitflip.Int(a.Colid[a.Rowidx[12]], 2) }},
		{"Colid out of range", func(a *sparse.CSR, _ int) { a.Colid[a.Rowidx[50]+1] = bitflip.Int(a.Colid[a.Rowidx[50]+1], 20) }},
		{"Rowidx", func(a *sparse.CSR, _ int) { a.Rowidx[40] = bitflip.Int(a.Rowidx[40], 1) }},
	}
	for _, s := range strikes {
		shared := newHarness(t, 80, DetectCorrect, 21)
		valid := shared.p.A
		s.strike(valid, smallestInRow(valid, 30))
		pristine := valid.Clone()
		shared.p.Valid = valid

		owned := newHarness(t, 80, DetectCorrect, 21)
		owned.p.A, owned.p.Valid = valid.Clone(), valid

		got, want := shared.run(), owned.run()
		if !want.Detected {
			t.Fatalf("%s: the contradicted encoding flagged nothing", s.name)
		}
		if !sameBits(valid, pristine) {
			t.Fatalf("%s: a decoder wrote to the valid copy the wrapper was armed over", s.name)
		}
		if shared.p.A == valid {
			t.Fatalf("%s: the wrapper still reads the valid copy after a decoder ran", s.name)
		}
		if got != want || !sameBits(shared.p.A, owned.p.A) || !sameFloats(shared.y, owned.y) {
			t.Fatalf("%s: outcome %+v, want %+v, or the product or the matrix left differ from a wrapper that owns its copy", s.name, got, want)
		}

		copied := &shared.p.A.Val[0]
		shared.p.A = shared.p.Valid
		if shared.run(); shared.p.A == valid || &shared.p.A.Val[0] != copied || !sameBits(valid, pristine) {
			t.Fatalf("%s: after the copy was dropped, the next repair did not copy into the same storage", s.name)
		}
	}
}
