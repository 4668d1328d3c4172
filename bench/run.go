package main

import (
	"runtime"
	"sync"
	"time"
)

// solveRec is what one right-hand side's solve reported: core.Stats for an
// in-process solve, the response's result record for a request. Ns is the
// solve's own time: the wall around harness.SolveWith, or the solve_ms the
// server reported (0 for batch lanes, whose blocked solve has no per-lane
// time).
type solveRec struct {
	Matrix, Solver, Scheme string
	Ns                     float64
	SimTime                float64
	Useful, Total          int64
	Detections             int64
	Corrections            int64
	Rollbacks              int64
	Checkpoints            int64
	Faults                 int64
}

// sample is one executed operation as the caller saw it.
type sample struct {
	Op         *op
	Round      int       // the round it belongs to
	Start, End time.Time // the timed part: request build to verified decode, or the solve call
	Failed     bool
	Why        string // first failure reason
	Recs       []solveRec
	// Response fields of a request (zero for in-process solves).
	QueueMs, SolveMs float64
	CacheHit         bool
	Coalesced        int
	Shard            string
}

// ns is the operation's wall time as its caller observed it.
func (s *sample) ns() float64 { return float64(s.End.Sub(s.Start)) }

// engine executes a workload's operations against the program: in-process
// solves, or requests through the serving tiers.
type engine interface {
	// prepare does everything before the first operation — inputs, reference
	// solves, workspaces or listeners — for a run that will issue only the
	// given operations.
	prepare(lanes []op) error
	// exec runs one operation, verifies its output and reports it. span and
	// id tie the spans it records to the caller's op span. The serve engine's
	// exec is called from several callers at once.
	exec(o *op, tr *tracer, span, id int) sample
	// counters snapshots the program's own counters (statusz); all zero when
	// the engine has no tiers.
	counters() (*tierCounters, error)
	close()
}

// serveCallers is the number of closed-loop callers a serve workload is
// driven by: min(2, nproc). Callers of a solve service wait for their
// answer, and more callers than cores would measure this box's scheduler.
// Solve workloads have one caller.
func serveCallers() int { return min(2, runtime.NumCPU()) }

// segment is one stretch of a run: which rounds to execute and when to
// stop. Rounds are never cut short: every cell of a workload then has its
// share of the operations whatever the machine's speed.
type segment struct {
	round   func(r int) []op // the operations of round r
	rounds  int              // stop after this many rounds (0 = run on the clock)
	length  time.Duration    // with rounds == 0: start no round after this much wall time
	callers int
	tr      *tracer
	yard    *yardstick // takes its readings between operations
}

// drive runs a segment as a closed loop: each caller takes the next
// operation of the round when its previous one has been answered and
// verified. It returns the samples in the order the operations were taken.
func drive(e engine, seg segment) []sample {
	var (
		mu      sync.Mutex
		samples []sample
		ops     []op // the round being handed out
		next    int
		r       = -1
		over    bool
		start   = time.Now()
	)
	take := func() (o *op, id, round int) {
		mu.Lock()
		defer mu.Unlock()
		if !over && next == len(ops) {
			r++
			if seg.rounds > 0 && r == seg.rounds || seg.rounds == 0 && r > 0 && time.Since(start) >= seg.length {
				over = true
			} else {
				ops, next = seg.round(r), 0
			}
		}
		if over {
			return nil, 0, 0
		}
		samples = append(samples, sample{})
		next++
		return &ops[next-1], len(samples) - 1, r
	}
	var wg sync.WaitGroup
	for c := 0; c < seg.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, id, round := take()
				if o == nil {
					return
				}
				sp := seg.tr.begin("bench.op", -1, id)
				s := e.exec(o, seg.tr, sp, id)
				seg.tr.end(sp)
				s.Round = round
				mu.Lock()
				samples[id] = s
				mu.Unlock()
				seg.yard.tick()
			}
		}()
	}
	wg.Wait()
	return samples
}
