package harness

import (
	"fmt"
	"testing"
	"time"
)

// fuzzGens is every generator Build knows, plus the refusals: no generator
// and an unknown one. "file" comes with no path, so it is always an error.
var fuzzGens = []string{"poisson2d", "poisson3d", "tridiag", "laplacian", "randomspd", "suite", "file", "", "nope"}

// FuzzMatrixSpecBuild holds MatrixSpec.Build to its contract over every
// generator: an error, or a CSR that passes Validate, within a deadline and
// without a panic. The spec comes the way a shard takes one off the wire,
// every field free, but sized so that no matrix passes about 10⁴ rows: n
// stays below 1100 and a suite scale is 0 (derived from n) or at least 8.
func FuzzMatrixSpecBuild(f *testing.F) {
	f.Add(uint8(0), int16(100), int64(0), 0.0, 0.0, uint8(0), uint8(0))    // poisson2d
	f.Add(uint8(1), int16(-3), int64(0), 0.0, 0.0, uint8(0), uint8(0))     // poisson3d, n < 0
	f.Add(uint8(2), int16(0), int64(0), 0.0, 0.0, uint8(0), uint8(0))      // tridiag, n = 0
	f.Add(uint8(3), int16(5), int64(1), 0.0, 0.0, uint8(0), uint8(0))      // laplacian, too few vertices
	f.Add(uint8(3), int16(7), int64(1), 0.5, 0.0, uint8(0), uint8(0))      // laplacian, the smallest
	f.Add(uint8(4), int16(0), int64(2), 0.0, 0.0, uint8(0), uint8(0))      // randomspd, no n
	f.Add(uint8(4), int16(300), int64(2), 0.0, 1.0, uint8(0), uint8(0))    // randomspd, dense
	f.Add(uint8(4), int16(300), int64(2), 0.0, 1000.0, uint8(0), uint8(0)) // randomspd, density > 1
	f.Add(uint8(5), int16(500), int64(0), 0.0, 0.0, uint8(0), uint8(0))    // suite 341, scale from n
	f.Add(uint8(5), int16(0), int64(0), 0.0, 0.0, uint8(8), uint8(1))      // suite 752, scale 8
	f.Add(uint8(5), int16(0), int64(0), 0.0, 0.0, uint8(9), uint8(200))    // an unknown suite id
	f.Add(uint8(6), int16(10), int64(0), 0.0, 0.0, uint8(0), uint8(0))     // file, no path
	f.Add(uint8(7), int16(10), int64(0), 0.0, 0.0, uint8(0), uint8(0))     // no generator
	f.Fuzz(func(t *testing.T, gen uint8, n int16, seed int64, shift, density float64, scale, suite uint8) {
		ms := MatrixSpec{
			Gen:     fuzzGens[int(gen)%len(fuzzGens)],
			N:       int(n) % 1100,
			Seed:    seed,
			Shift:   shift,
			Density: density,
			Scale:   int(scale),
			ID:      int(suite),
		}
		if int(suite) < len(PaperSuite) {
			ms.ID = PaperSuite[suite].ID
		}
		if ms.Scale > 0 && ms.Scale < 8 || ms.Scale == 0 && ms.N < 1 {
			ms.Scale += 8
		}
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panic: %v", p)
				}
			}()
			a, err := ms.Build()
			if err != nil {
				done <- nil // refused
				return
			}
			done <- a.Validate()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%+v: %v", ms, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: Build did not return within 10 s", ms)
		}
	})
}
