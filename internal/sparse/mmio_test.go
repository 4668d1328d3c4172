package sparse

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := RandomSPD(RandomSPDOptions{N: 40, Density: 0.08, DiagShift: 1, Seed: 5})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatal("round trip changed the matrix")
	}
}

func TestReadSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% lower triangle of [2 -1; -1 2]
2 2 3
1 1 2.0
2 1 -1.0
2 2 2.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := Tridiag(2, 2, -1)
	if !m.Equal(want) {
		t.Fatalf("symmetric expansion wrong: got %+v", m)
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 3 2
1 1
2 3
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 1 || m.NNZ() != 2 {
		t.Fatalf("pattern read wrong: %+v", m)
	}
}

func TestReadSkipsComments(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
% another

1 1 1
1 1 3.5
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3.5 {
		t.Fatal("comment skipping broken")
	}
}

// TestReadErrors feeds malformed Matrix Market input to the reader and
// checks that every case is rejected with a descriptive error — never a
// panic (a t.Run goroutine panicking fails the suite, so each case doubles
// as a no-panic regression test).
func TestReadErrors(t *testing.T) {
	cases := map[string]struct {
		src     string
		wantErr string
	}{
		"empty":               {"", "empty Matrix Market stream"},
		"badHeader":           {"%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n", "bad Matrix Market header"},
		"shortHeader":         {"%%MatrixMarket matrix\n1 1 1\n1 1 1\n", "bad Matrix Market header"},
		"notAMatrix":          {"%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1\n", "bad Matrix Market header"},
		"badFormat":           {"%%MatrixMarket matrix array real general\n1 1\n1\n", "only coordinate format"},
		"badField":            {"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", "unsupported field"},
		"badSymmetry":         {"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n", "unsupported symmetry"},
		"missingSize":         {"%%MatrixMarket matrix coordinate real general\n", "missing size line"},
		"badSizeLine":         {"%%MatrixMarket matrix coordinate real general\n2 two 4\n", "bad size line"},
		"shortSizeLine":       {"%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n", "bad size line"},
		"negativeDims":        {"%%MatrixMarket matrix coordinate real general\n-3 -3 0\n", "negative dimensions"},
		"negativeNNZ":         {"%%MatrixMarket matrix coordinate real general\n2 2 -1\n", "negative dimensions"},
		"hugeDims":            {"%%MatrixMarket matrix coordinate real general\n1000000000000000000 1 0\n", "implausibly large"},
		"hugeNNZ":             {"%%MatrixMarket matrix coordinate real general\n2 2 999999999999\n", "implausibly large"},
		"symmetricNonSquare":  {"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", "must be square"},
		"truncated":           {"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "expected 2 entries, got 1"},
		"outOfRange":          {"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "out of 2x2"},
		"colOutOfRange":       {"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5 1.0\n", "out of 2x2"},
		"zeroIndex":           {"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", "out of 2x2"},
		"entryBeyondZeroDims": {"%%MatrixMarket matrix coordinate real general\n0 0 1\n1 1 1.0\n", "out of 0x0"},
		"badRowIndex":         {"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n", "bad row index"},
		"badColIndex":         {"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 y 1.0\n", "bad col index"},
		"badValue":            {"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n", "bad value"},
		"valueOverflow":       {"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e999\n", "bad value"},
		"shortEntries":        {"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n", "bad entry line"},
		"dimsBeyondEntries":   {hollowGiant, "must not exceed the entry count"},
		"colsBeyondEntries":   {"%%MatrixMarket matrix coordinate real general\n1 2000000 1\n1 1 1.0\n", "must not exceed the entry count"},
		"nanValue":            {"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n", "not finite"},
		"infValue":            {"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 inf\n", "not finite"},
		"negInfValue":         {"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 -Infinity\n", "not finite"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadMatrixMarket(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("expected error for %s", name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// hollowGiant is 67 bytes that pass maxMMDim: with nothing to read, COO.ToCSR
// went on to allocate a 2 GiB row pointer (10.6 s, 2 060 MiB measured).
const hollowGiant = "%%MatrixMarket matrix coordinate real general\n268435456 268435456 0"

// TestReadBoundsWhatAHeaderAllocates: a size line alone buys an error in the
// scanner's buffer — the reader allocates for a dimension only
// what the stream has paid for in entries, or maxMMEmptyDim rows.
func TestReadBoundsWhatAHeaderAllocates(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMatrixMarket(strings.NewReader(hollowGiant))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "sparse: ") {
		t.Fatalf("hollow 2²⁸-row matrix: error %v, want a sparse: refusal", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing %d bytes allocated %d bytes, want under 1 MiB", len(hollowGiant), grew)
	}

	// At the bound the header is honoured: 2²⁰ empty rows, an 8 MiB row pointer.
	m, err := ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate pattern general\n1048576 1048576 1\n1048576 1\n"))
	if err != nil || m.Rows != maxMMEmptyDim || m.NNZ() != 1 || m.Validate() != nil {
		t.Fatalf("matrix at the bound: %v", err)
	}
}

// TestReadEmptyMatrix checks the degenerate-but-valid cases around the
// hardened size validation.
func TestReadEmptyMatrix(t *testing.T) {
	m, err := ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real general\n0 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 0 || m.NNZ() != 0 {
		t.Fatalf("empty matrix read wrong: %+v", m)
	}
	m, err = ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real general\n3 3 0\n"))
	if err != nil || m.Rows != 3 || m.NNZ() != 0 {
		t.Fatalf("structurally empty matrix: %+v, %v", m, err)
	}
}

// FuzzReadMatrixMarket holds the reader to what a file surface owes any
// byte stream: a matrix that passes Validate, with finite entries as read,
// or an error — never a panic, and within a deadline and a memory ceiling
// proportional to the stream, so no header buys an allocation its entries
// have not paid for.
func FuzzReadMatrixMarket(f *testing.F) {
	const general = "%%MatrixMarket matrix coordinate real general\n"
	f.Add([]byte(hollowGiant))
	f.Add([]byte(general + "1 1 1\n1 1 nan\n"))
	f.Add([]byte(general + "2 2 1\n2 2 inf\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n% a comment\n3 3 4\n1 1 2\n2 1 -1\n2 2 2\n3 3 1e-3\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 3 3\n1 1\n1 3\n2 2\n"))
	f.Add([]byte(general + "3 3 5\n1 1 4\n2 2 4\n3 "))
	f.Add([]byte(general + "1048576 1048576 1\n7 7 1\n"))

	f.Fuzz(func(t *testing.T, src []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		m, err := ReadMatrixMarket(bytes.NewReader(src))
		took := time.Since(start)
		runtime.ReadMemStats(&after)

		// 8 MiB is maxMMEmptyDim rows; an entry costs its line a few bytes
		// and the reader under 200 (COO, the sort's copy, CSR; twice when
		// symmetric).
		if grew, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+512*len(src)); grew > ceiling {
			t.Fatalf("%d bytes of input allocated %d, ceiling %d", len(src), grew, ceiling)
		}
		if took > fuzzDeadline {
			t.Fatalf("%d bytes of input took %v", len(src), took)
		}
		if err != nil {
			if m != nil || !strings.HasPrefix(err.Error(), "sparse: ") {
				t.Fatalf("matrix %v beside error %q", m != nil, err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted a matrix that does not validate: %v", err)
		}
		for k, v := range m.Val {
			if math.IsNaN(v) {
				t.Fatalf("val[%d] is NaN", k) // ±Inf can still arise as the sum of duplicate entries
			}
		}
	})
}
