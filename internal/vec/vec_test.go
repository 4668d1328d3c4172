package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Equal reports whether a and b are element-wise identical (bit-for-bit,
// except that NaN==NaN is considered true so corrupted states compare sanely).
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	if !Equal(y, want) {
		t.Fatalf("Axpy = %v, want %v", y, want)
	}
}

func TestAxpyTo(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	dst := make([]float64, 3)
	AxpyTo(dst, -1, x, y)
	want := []float64{9, 18, 27}
	if !Equal(dst, want) {
		t.Fatalf("AxpyTo = %v, want %v", dst, want)
	}
	// y must be untouched.
	if !Equal(y, []float64{10, 20, 30}) {
		t.Fatalf("AxpyTo modified y: %v", y)
	}
}

func TestAxpyToAliasing(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	AxpyTo(y, 0.5, x, y) // dst aliases y
	want := []float64{10.5, 21, 31.5}
	if !Equal(y, want) {
		t.Fatalf("aliased AxpyTo = %v, want %v", y, want)
	}
}

func TestXpay(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Xpay(0.5, x, y) // y = x + 0.5 y
	want := []float64{6, 12, 18}
	if !Equal(y, want) {
		t.Fatalf("Xpay = %v, want %v", y, want)
	}
}

func TestNorms(t *testing.T) {
	a := []float64{3, -4}
	if got := Norm2(a); !almostEq(got, 5, 1e-15) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2Sq(a); got != 25 {
		t.Errorf("Norm2Sq = %v, want 25", got)
	}
	if got := NormInf(a); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Norm2 must not overflow for huge entries.
	a := []float64{1e200, 1e200}
	got := Norm2(a)
	want := math.Sqrt2 * 1e200
	if !almostEq(got, want, 1e-14) {
		t.Fatalf("Norm2 overflow guard failed: got %v want %v", got, want)
	}
	if math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed to Inf")
	}
}

func TestNorm2Zero(t *testing.T) {
	if got := Norm2([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("Norm2(zero) = %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v", got)
	}
}

func TestSub(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	d := make([]float64, 2)
	Sub(d, a, b)
	if !Equal(d, []float64{3, 4}) {
		t.Errorf("Sub = %v", d)
	}
}

func TestEqualNaN(t *testing.T) {
	a := []float64{math.NaN(), 1}
	b := []float64{math.NaN(), 1}
	if !Equal(a, b) {
		t.Error("Equal should treat NaN==NaN as equal")
	}
	if Equal(a, []float64{0, 1}) {
		t.Error("Equal false positive")
	}
	if Equal(a, a[:1]) {
		t.Error("Equal must compare lengths")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 5, 3}
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotPropertySymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖a‖₂² ≈ Dot(a,a) and Norm2 ≥ NormInf ≥ 0.
func TestNormProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 100
		}
		n2 := Norm2(a)
		if !almostEq(n2*n2, Norm2Sq(a), 1e-10) {
			return false
		}
		return n2+1e-12 >= NormInf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Axpy then Axpy with -alpha restores y (exactly, since the
// floating point ops are identical and symmetric around the original value
// only approximately — use a tolerance).
func TestAxpyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		y0 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
			y0[i] = y[i]
		}
		alpha := rng.NormFloat64()
		Axpy(alpha, x, y)
		Axpy(-alpha, x, y)
		return MaxAbsDiff(y, y0) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot(b *testing.B) {
	n := 1 << 14
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(n - i)
	}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	n := 1 << 14
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(1e-9, x, y)
	}
}
