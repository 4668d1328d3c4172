package bitflip

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat64SignBit(t *testing.T) {
	if got := Float64(1.5, 63); got != -1.5 {
		t.Fatalf("sign flip = %v, want -1.5", got)
	}
}

func TestFloat64LowBitTiny(t *testing.T) {
	v := 1.0
	got := Float64(v, 0)
	if got == v {
		t.Fatal("bit flip changed nothing")
	}
	if math.Abs(got-v) > 1e-15 {
		t.Fatalf("low mantissa flip of 1.0 changed value by %v", math.Abs(got-v))
	}
}

func TestFloat64ExponentBitHuge(t *testing.T) {
	v := 1.0
	got := Float64(v, 62) // top exponent bit
	if math.Abs(got) <= 1 {
		t.Fatalf("exponent flip should be large, got %v", got)
	}
}

func TestFloat64Involution(t *testing.T) {
	f := func(v float64, bitRaw uint8) bool {
		bit := uint(bitRaw) % Float64Bits
		w := Float64(Float64(v, bit), bit)
		return w == v || (math.IsNaN(w) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64OutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Float64(1, 64)
}

func TestIntInvolution(t *testing.T) {
	f := func(v int, bitRaw uint8) bool {
		bit := uint(bitRaw) % 63
		return Int(Int(v, bit), bit) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntChangesValue(t *testing.T) {
	if Int(5, 1) != 7 {
		t.Fatalf("Int(5,1) = %d, want 7", Int(5, 1))
	}
	if Int(5, 0) != 4 {
		t.Fatalf("Int(5,0) = %d, want 4", Int(5, 0))
	}
}

func TestIntOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Int(1, 63)
}
