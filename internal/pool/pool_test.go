package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	p := New(4)
	for _, n := range []int{0, 1, 7, 255, 256, 257, 10000} {
		for _, grain := range []int{1, 3, 64, 100000} {
			hits := make([]int32, n)
			p.Run(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d grain=%d: bad chunk [%d,%d)", n, grain, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d executed %d times", n, grain, i, h)
				}
			}
		}
	}
}

func TestForEachOrderWithinChunks(t *testing.T) {
	p := New(3)
	const n = 1000
	var mu sync.Mutex
	seen := make(map[int]bool, n)
	p.ForEach(n, func(i int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
	})
	if len(seen) != n {
		t.Fatalf("ForEach visited %d of %d indices", len(seen), n)
	}
}

func TestDefaultPoolSizedByGOMAXPROCS(t *testing.T) {
	if got := Default().Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default().Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if New(0).Workers() != runtime.GOMAXPROCS(0) {
		t.Fatal("New(0) must size by GOMAXPROCS")
	}
	if New(7).Workers() != 7 {
		t.Fatal("New(7) must keep the explicit size")
	}
}

// TestNestedRunDoesNotDeadlock drives pool calls from inside pool calls —
// the shape of a fault campaign whose trials run parallel kernels — with
// fewer workers than outstanding parallel regions.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.ForEach(8, func(i int) {
		p.Run(1000, 10, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
	})
	if total.Load() != 8*1000 {
		t.Fatalf("nested execution covered %d indices, want %d", total.Load(), 8*1000)
	}
}

// TestConcurrentCallers hammers one shared pool from many goroutines with
// shrunken chunk sizes, verifying every caller sees its own range covered
// exactly once. Run with -race this is the engine's central safety test.
func TestConcurrentCallers(t *testing.T) {
	p := New(4)
	const callers = 16
	const n = 3000
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sums := make([]int64, n)
			p.Run(n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sums[i]++
				}
			})
			for i, s := range sums {
				if s != 1 {
					t.Errorf("caller %d: index %d covered %d times", c, i, s)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestRunDeterministicPartials verifies the scheduling-independence
// contract: chunk boundaries depend only on (n, grain), so a blocked
// reduction over per-chunk slots gives identical results on repeated runs.
func TestRunDeterministicPartials(t *testing.T) {
	p := New(4)
	const n = 100003
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%37) * 0.125
	}
	reduce := func() float64 {
		nchunks, size := p.chunksFor(n, 1)
		partials := make([]float64, nchunks)
		p.Run(n, 1, func(lo, hi int) {
			var s float64
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			partials[lo/size] = s
		})
		var s float64
		for _, v := range partials {
			s += v
		}
		return s
	}
	want := reduce()
	for trial := 0; trial < 20; trial++ {
		if got := reduce(); got != want {
			t.Fatalf("trial %d: blocked reduction %v != %v", trial, got, want)
		}
	}
}

func TestCloseReleasesWorkersAndDegradesToSequential(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	p.Run(100, 1, func(lo, hi int) { n.Add(int64(hi - lo)) }) // start workers
	p.Close()
	p.Close()                                                 // idempotent
	p.Run(100, 1, func(lo, hi int) { n.Add(int64(hi - lo)) }) // sequential now
	if n.Load() != 200 {
		t.Fatalf("covered %d indices across Close, want 200", n.Load())
	}

	// A never-started pool must also close cleanly and stay usable.
	q := New(4)
	q.Close()
	total := 0
	q.Run(50, 1, func(lo, hi int) { total += hi - lo }) // inline, no race
	if total != 50 {
		t.Fatalf("closed never-started pool covered %d, want 50", total)
	}
}

func TestRunZeroAndNegativeN(t *testing.T) {
	p := New(2)
	called := false
	p.Run(0, 1, func(lo, hi int) { called = true })
	p.Run(-5, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Run must not invoke fn for n <= 0")
	}
}

// --- RunRanges ---

func TestRunRangesCoversBounds(t *testing.T) {
	p := New(4)
	defer p.Close()
	bounds := []int{0, 5, 7, 100, 101, 256}
	n := bounds[len(bounds)-1]
	var hits [256]int32
	p.RunRanges(bounds, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i := 0; i < n; i++ {
		if hits[i] != 1 {
			t.Fatalf("index %d executed %d times, want 1", i, hits[i])
		}
	}
}

func TestRunRangesDegenerate(t *testing.T) {
	p := New(4)
	defer p.Close()
	ran := false
	p.RunRanges(nil, func(lo, hi int) { ran = true })
	p.RunRanges([]int{}, func(lo, hi int) { ran = true })
	p.RunRanges([]int{3}, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("RunRanges executed fn on empty bounds")
	}
	// Single chunk runs inline on the caller.
	got := -1
	p.RunRanges([]int{2, 9}, func(lo, hi int) { got = hi - lo })
	if got != 7 {
		t.Fatalf("single-range chunk = %d, want 7", got)
	}
}

func TestRunRangesOnClosedPoolRunsInline(t *testing.T) {
	p := New(4)
	p.Close()
	var sum int
	p.RunRanges([]int{0, 2, 4}, func(lo, hi int) { sum += hi - lo })
	if sum != 4 {
		t.Fatalf("closed-pool RunRanges covered %d indices, want 4", sum)
	}
}
