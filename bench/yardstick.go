package main

import (
	"sync"
	"time"
)

// The yardstick is a fixed computation of the benchmark's own — no code of
// the program under test — that a caller runs between two of its operations,
// every yardstickEvery of wall time. The median of a run's readings says how
// fast the machine was during that run, and every time the run reports is
// wall time divided by that one factor:
//
//	reported = measured × yardstickNominalNs ÷ the run's median reading
//
// It is the one correction the benchmark applies to the wall clock, and the
// sizing box is why: a shared virtual machine whose speed for any fixed
// computation shifts by 10–20 % for minutes at a stretch (neighbours on the
// host share its cores, caches and memory bandwidth), so that raw wall times
// of two runs of one commit differ by more than a change worth catching.
// README.md tables the run-to-run spread of every metric with and without
// the correction, from the same runs. Ratios of two times are untouched by
// it, and bench.yardstick_ratio is printed and recorded with every run:
// reported × ratio is the wall time as measured.
//
// The work is what the solvers' time goes into: a sparse matrix-vector
// product over a matrix the size of the denserow operand (2.2 MB, more than
// the 2 MiB L2) followed by a dot product, eight times.
const (
	// yardstickNominalNs defines the reference speed — a machine on which
	// one reading takes this long — and thereby only the unit of the
	// reported times. It is about what the sizing box reads when its host is
	// idle, so that reported and measured times agree there.
	yardstickNominalNs = 1.5e6
	yardstickEvery     = 50 * time.Millisecond
	yardstickRows      = 2881
	yardstickPerRow    = 49
	yardstickReps      = 8
)

type yardstick struct {
	rowidx, colid []int
	val, x, y     []float64

	mu   sync.Mutex // one reading at a time; guards last and ns
	last time.Time  // when the latest reading ended
	ns   []float64  // the readings
}

func newYardstick() *yardstick {
	y := &yardstick{
		rowidx: make([]int, yardstickRows+1),
		x:      randomVector(yardstickRows, 1),
		y:      make([]float64, yardstickRows),
	}
	for i := 0; i < yardstickRows; i++ {
		y.rowidx[i+1] = y.rowidx[i] + yardstickPerRow
		for k := 0; k < yardstickPerRow; k++ {
			y.colid = append(y.colid, (i*7+k*131)%yardstickRows)
			y.val = append(y.val, 1/float64(k+1))
		}
	}
	return y
}

// tick takes a reading if one is due and no other caller is taking one. Nil
// takes none.
func (y *yardstick) tick() {
	if y == nil || !y.mu.TryLock() {
		return
	}
	defer y.mu.Unlock()
	if time.Since(y.last) < yardstickEvery {
		return
	}
	t0 := time.Now()
	for rep := 0; rep < yardstickReps; rep++ {
		var dot float64
		for i := range y.y {
			var s float64
			for k := y.rowidx[i]; k < y.rowidx[i+1]; k++ {
				s += y.val[k] * y.x[y.colid[k]]
			}
			y.y[i] = s
			dot += s * y.x[i]
		}
		sink += dot
	}
	y.last = time.Now()
	y.ns = append(y.ns, float64(y.last.Sub(t0)))
}

// ratio is the run's speed: its median reading against the nominal one. 1.1
// means the yardstick ran 10 % slower than nominal, and the run's times are
// divided by 1.1. Without readings it is 1.
func (y *yardstick) ratio() (ratio float64, readings int) {
	y.mu.Lock()
	defer y.mu.Unlock()
	if len(y.ns) == 0 {
		return 1, 0
	}
	return median(y.ns) / yardstickNominalNs, len(y.ns)
}
