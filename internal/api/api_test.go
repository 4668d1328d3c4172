package api

import (
	"math"
	"strings"
	"testing"
)

// TestToCSRRefusesNonFiniteValues: ToCSR is where an operand that arrives by
// content is admitted, on both tiers; a value no checksum compares with is
// refused there, next to a malformed structure.
func TestToCSRRefusesNonFiniteValues(t *testing.T) {
	ic := InlineCSR{Rows: 2, Cols: 2, Rowidx: []int{0, 1, 2}, Colid: []int{0, 1}, Val: []float64{1, -1e300}}
	if a, err := ic.toCSR(); err != nil || a.NNZ() != 2 {
		t.Fatalf("finite values: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ic.Val[1] = v
		if _, err := ic.toCSR(); err == nil || !strings.Contains(err.Error(), "val[1] is not finite") {
			t.Fatalf("val[1] = %v: err = %v", v, err)
		}
	}
	ic.Val[1] = 1
	ic.Rowidx = ic.Rowidx[:2]
	if _, err := ic.toCSR(); err == nil {
		t.Fatal("a short Rowidx passed")
	}
}
