package router

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// Hedged replica reads. A solve is deterministic and idempotent: every
// replica computes bit-identical bytes for the same request, so sending
// the same request to two shards and taking whichever verified answer
// lands first cuts the tail without any risk to correctness — the
// determinism gates cannot tell a hedged answer from a plain one. The
// cost is bounded duplicate work: the second copy is only armed once
// the primary has been out longer than its own observed P99, i.e. for
// the ~1% of requests already in the tail.

// byLatency ranks the routable candidates by EWMA latency, best first: a
// hedged attempt races the first two, and under hedging a stream goes to the
// first. Shards with no sample yet sort after
// every measured one, in candidate order among themselves, so a fresh ring
// behaves like plain routing.
func byLatency(cands []*shardState) []*shardState {
	ranked := make([]*shardState, 0, len(cands))
	for _, s := range cands {
		if s.isRoutable() {
			ranked = append(ranked, s)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		ei, ej := ranked[i].ewmaLatency(), ranked[j].ewmaLatency()
		if ei == 0 {
			ei = math.Inf(1)
		}
		if ej == 0 {
			ej = math.Inf(1)
		}
		return ei < ej
	})
	return ranked
}

// hedgeDelayFor derives the arm delay for a hedged request to s: the
// shard's observed P99 latency once its sample window is warm, the
// configured base delay before that, clamped to [1ms, HedgeMaxDelay].
// Keying the delay to the primary's own tail means the hedge fires
// almost exclusively for requests that are genuinely late.
func (r *Router) hedgeDelayFor(s *shardState) time.Duration {
	d := r.cfg.HedgeDelay
	if p99 := s.latencyP99(); p99 > 0 {
		d = time.Duration(p99 * float64(time.Millisecond))
	}
	if d > r.cfg.HedgeMaxDelay {
		d = r.cfg.HedgeMaxDelay
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// fetchHedged runs one hedged round: the request goes to primary
// immediately, and to secondary once the arm delay elapses with no
// answer yet. The first verified relayable wins; the loser's context is
// canceled on return (fetch's ctx.Err() guard keeps a canceled loser
// from feeding the circuit breaker or the latency window). hedgedWin
// reports whether the armed secondary won the race — the relay stamps
// that as the hedged-response header.
//
// Failure shape mirrors plain fetch so the caller's retry loop is
// indifferent: a primary failure before the hedge arms returns at once
// (the outer loop's next attempt is the failover); after arming, the
// round only fails when both replicas have.
func (r *Router) fetchHedged(ctx context.Context, primary, secondary *shardState, path string, body []byte, w int64, tr *obs.Active) (rel *relayable, hedgedWin bool, hint time.Duration, err error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser (or both, on outer-deadline exit)

	type result struct {
		rel  *relayable
		hint time.Duration
		err  error
		s    *shardState
	}
	results := make(chan result, 2) // buffered: a loser's send never blocks
	// The fetch goroutines get the trace ID as a plain string and never
	// touch tr: a canceled loser can outlive this call — and tr's return
	// to its pool — so only this (synchronous) select loop records spans.
	traceID := tr.ID()
	launch := func(s *shardState) {
		go func() {
			rel, hint, err := r.fetch(hctx, s, path, body, w, traceID)
			results <- result{rel, hint, err, s}
		}()
	}
	started := map[*shardState]int64{primary: tr.Now()}
	launch(primary)

	timer := time.NewTimer(r.hedgeDelayFor(primary))
	defer timer.Stop()

	pending := 1
	armed := false
	for {
		select {
		case <-timer.C:
			armed = true
			r.hedgeArmed.Add(1)
			pending++
			tr.AddSpan(obs.SpanHedgeArm, secondary.name, "", tr.Now(), 0)
			started[secondary] = tr.Now()
			launch(secondary)
		case out := <-results:
			pending--
			tr.AddSpan(obs.SpanAttempt, out.s.name, "", started[out.s], tr.Now()-started[out.s])
			if out.rel != nil {
				if pending > 0 {
					r.hedgeCanceled.Add(int64(pending))
				}
				if armed {
					if out.s == secondary {
						r.hedgeWins.Add(1)
					} else {
						r.hedgePrimaryWins.Add(1)
					}
				}
				return out.rel, armed && out.s == secondary, out.hint, nil
			}
			if !armed || pending == 0 {
				// Unarmed: the primary failed fast — fall back to the plain
				// failover loop rather than racing a doomed round. Armed
				// with none pending: both replicas failed; report the last.
				return nil, false, out.hint, out.err
			}
			// One replica failed but the other is still in flight: the
			// round is decided by whichever way that one lands.
		case <-ctx.Done():
			return nil, false, 0, ctx.Err()
		}
	}
}
