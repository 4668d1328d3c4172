package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
)

var (
	// errQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 429).
	errQueueFull = errors.New("server: solve queue is full")
	// errShuttingDown rejects submissions once draining began (HTTP 503).
	errShuttingDown = errors.New("server: shutting down")
)

// task is one scheduled solve request carrying one or more right-hand
// sides. Ownership is decided by a single atomic claim: a worker claims it
// to execute (alone or merged into a same-key block), or the request's
// deadline claims it to abandon — whoever wins decides, so an expired task
// is never solved and a started solve is never double-reported.
type task struct {
	// key is the coalescing identity: tasks sharing a non-empty key solve
	// the same matrix under the same scenario axes and may be merged into
	// one block by the worker that dequeues the first of them. "" never
	// coalesces.
	key string
	// specs are the right-hand sides: each one's trial seed and the seed of
	// its manufactured vector, as the request named them.
	specs []api.BatchRHS
	// exec solves the whole merged group (set by the handler that created
	// the task; only the group leader's exec runs). It must fill every
	// group member's outs.
	exec func(group []*task)
	// outs receives one outcome per spec, written by the leader's exec.
	outs []solveOutcome
	// coalesced is the total RHS width of the merged block this task was
	// solved in (1 for an un-coalesced single).
	coalesced int
	// trace, when non-nil, is the request's active trace. The handler fills
	// its solver tallies from the per-lane stats once the task is done; a
	// streamed task's solve records its detection episodes in it as well.
	trace *obs.Active
	// onIter and onDet, when non-nil, watch the solve live — the streaming
	// edge's event pump. Such a task has an empty key, so it always solves
	// as a group of one: its events must not interleave with other lanes'.
	onIter func(it int, rho float64)
	onDet  func(core.DetectionEvent)

	enqueued   time.Time
	queueNanos int64
	claimed    atomic.Bool
	done       chan struct{}
}

func newTask(key string, specs []api.BatchRHS) *task {
	return &task{
		key:      key,
		specs:    specs,
		outs:     make([]solveOutcome, len(specs)),
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
}

// claim takes ownership; exactly one caller ever succeeds.
func (t *task) claim() bool { return t.claimed.CompareAndSwap(false, true) }

// scheduler executes tasks from a bounded queue on a fixed set of solver
// goroutines, merging queued same-key tasks into one blocked solve. It
// exists so concurrency is explicit and finite: admission fails fast when
// the queue is full, and shutdown drains every admitted task before
// returning.
type scheduler struct {
	mu          sync.Mutex
	cond        *sync.Cond
	closed      bool
	q           []*task
	depthCap    int
	maxCoalesce int
	wg          sync.WaitGroup
}

func newScheduler(workers, depth, maxCoalesce int) *scheduler {
	if maxCoalesce < 1 {
		maxCoalesce = 1
	}
	s := &scheduler{depthCap: depth, maxCoalesce: maxCoalesce}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// worker dequeues the oldest claimable task, merges every queued task
// sharing its coalescing key that fits into the group (at most maxCoalesce
// right-hand sides in all; a task that does not fit stays queued, in order,
// and a leader wider than the cap by itself runs alone), runs the leader's
// exec over the group and answers all of its waiters. Tasks whose deadline
// already claimed them are dropped without closing done — their handlers
// have answered 504.
func (s *scheduler) worker() {
	defer s.wg.Done()
	var group []*task
	for {
		s.mu.Lock()
		for len(s.q) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.q) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		lead := s.q[0]
		copy(s.q, s.q[1:])
		s.q[len(s.q)-1] = nil
		s.q = s.q[:len(s.q)-1]
		if !lead.claim() {
			s.mu.Unlock()
			continue // abandoned by its deadline while queued
		}
		group = append(group[:0], lead)
		if lead.key != "" {
			total := len(lead.specs)
			kept := s.q[:0]
			for _, t := range s.q {
				if t.key == lead.key && total+len(t.specs) <= s.maxCoalesce {
					if t.claim() {
						group = append(group, t)
						total += len(t.specs)
					}
					// A same-key task whose claim failed expired while
					// queued: drop it here instead of letting it ride to
					// the queue head.
					continue
				}
				kept = append(kept, t)
			}
			for i := len(kept); i < len(s.q); i++ {
				s.q[i] = nil
			}
			s.q = kept
		}
		s.mu.Unlock()

		now := time.Now()
		for _, t := range group {
			t.queueNanos = now.Sub(t.enqueued).Nanoseconds()
		}
		lead.exec(group)
		for _, t := range group {
			close(t.done)
		}
	}
}

// submit enqueues the task without blocking: a full queue or a draining
// scheduler is reported immediately so the caller can answer 429/503.
func (s *scheduler) submit(t *task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errShuttingDown
	}
	if len(s.q) >= s.depthCap {
		return errQueueFull
	}
	s.q = append(s.q, t)
	s.cond.Signal()
	return nil
}

// shutdown stops admission and drains: every task already in the queue
// still runs to completion (waiters on task.done all get answers) before
// shutdown returns. Idempotent.
func (s *scheduler) shutdown() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// depth reports the number of queued-but-unclaimed tasks.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}
