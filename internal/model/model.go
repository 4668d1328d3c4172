// Package model implements the paper's abstract performance model
// (Section 4): execution is divided into chunks of T time units, each
// followed by a verification of cost Tverif; s chunks form a frame, each
// frame ends with a checkpoint of cost Tcp; on a detected error the frame
// restarts after a recovery of cost Trec.
//
// With chunk success probability q, the expected frame time is (paper
// Eq. (5)):
//
//	E(s,T) = Tcp + (q^{-s} − 1)·Trec + (T + Tverif)·(1 − q^s)/(q^s·(1 − q))
//
// and the checkpointing interval s* minimises the overhead E(s,T)/(s·T)
// (Eq. (6)). The chunk success probability depends on the scheme:
//
//	detection only      q = e^{−λT}                 (Section 4.2.1–4.2.2)
//	single-error fixup  q = e^{−λT} + λT·e^{−λT}    (Section 4.2.3)
//
// because with ABFT-Correction an iteration survives zero OR one error.
package model

import (
	"math"
)

// Params describes one resilient scheme instance.
type Params struct {
	// T is the chunk duration (d·Titer for Online-Detection, Titer for the
	// ABFT schemes).
	T float64
	// Tverif is the verification cost paid after every chunk.
	Tverif float64
	// Tcp is the checkpoint cost paid after every s chunks.
	Tcp float64
	// Trec is the recovery cost paid on rollback.
	Trec float64
	// Lambda is the error rate per time unit.
	Lambda float64
	// Correcting is true for schemes that survive a single error per chunk
	// (ABFT-Correction).
	Correcting bool
}

// Q returns the chunk success probability.
func (p Params) Q() float64 {
	lt := p.Lambda * p.T
	q := math.Exp(-lt)
	if p.Correcting {
		q += lt * math.Exp(-lt)
	}
	if q > 1 {
		q = 1
	}
	return q
}

// FrameTime returns E(s,T), the expected time to complete one frame of s
// chunks (paper Eq. (5)). The λ→0 limit (q = 1) is handled exactly.
func (p Params) FrameTime(s int) float64 { return p.frameTime(p.Q(), s) }

// frameTime is FrameTime at a chunk success probability computed once.
func (p Params) frameTime(q float64, s int) float64 {
	if s < 1 {
		panic("model: frame needs at least one chunk")
	}
	work := p.T + p.Tverif
	if q >= 1 {
		return float64(s)*work + p.Tcp
	}
	qs := math.Pow(q, float64(s))
	if qs == 0 {
		return math.Inf(1)
	}
	return p.Tcp + (1/qs-1)*p.Trec + work*(1-qs)/(qs*(1-q))
}

// Overhead returns the expected time per unit of useful work,
// E(s,T)/(s·T) — the objective of Eq. (6). Lower is better; 1 would be
// fault-free execution with zero resilience cost.
func (p Params) Overhead(s int) float64 { return p.overhead(p.Q(), s) }

func (p Params) overhead(q float64, s int) float64 {
	return p.frameTime(q, s) / (float64(s) * p.T)
}

// OptimalS minimises the overhead over 1 ≤ s ≤ maxS (Eq. (6) must be solved
// numerically, as the paper notes) and returns the first s attaining the
// minimum, with the minimum — bit for bit what scanning Overhead over the
// whole range returns; that scan is the oracle of the package's property
// tests.
//
// It stops scanning once past s*. With K = Trec + (T + Tverif)/(1 − q) and
// c = −ln q, Eq. (5) reads E(s) = Tcp + K·(e^{cs} − 1), so the objective
// Tcp/(sT) + K·(e^{cs} − 1)/(sT) is a sum of two convex functions of s: once
// it stands above an earlier value it never comes back down. What is
// computed is that objective plus rounding noise. Every step of Overhead is
// one correctly rounded operation except Pow, whose repeated squaring is off
// by at most s ulps; carried through the cancellations in q^{-s} − 1 and
// 1 − q^s, a computed value o lies within (s + 8)·2⁻⁵³·(o + K/T) of the true
// one. A candidate that stands above the running minimum by twice that
// bound, taken at maxS, has truly risen — once for its own noise, once for
// that of any later candidate — and nothing after it can compute below the
// minimum; the search asks for four times. Near q = 1 the bound is wide
// (K/T ~ 1/(1 − q)) and at q = 1 infinite, but there Eq. (5) is the line
// E(s) = s·(T + Tverif) + Tcp: with positive costs the objective
// (T + Tverif)/T + Tcp/(sT) falls all the way to maxS, by at least
// Tcp/(T·maxS·(maxS − 1)) over its last step, and each computed value is
// five correctly rounded operations on positive operands, within 6·2⁻⁵³·o
// of the true one. Where that last fall clears eps·(o + fall) — the scan's
// own stopping margin, at least three times twice that noise — the value at
// maxS computes below every earlier one, so it is returned without the
// scan; elsewhere (a free checkpoint, a negative or non-finite cost, a fall
// lost in rounding) the scan runs to maxS.
func (p Params) OptimalS(maxS int) (s int, overhead float64) {
	if maxS < 1 {
		maxS = 1
	}
	q := p.Q()
	eps := float64(maxS+8) * 0x1p-51
	if q >= 1 && p.T > 0 && p.Tverif >= 0 && p.Tcp > 0 {
		o := p.overhead(q, maxS)
		fall := p.Tcp / p.T / (float64(maxS) * float64(maxS-1))
		if fall > eps*(o+fall) { // false on a NaN or an infinity, as at maxS = 1
			return maxS, o
		}
	}
	noise := (p.Trec + (p.T+p.Tverif)/(1-q)) / p.T // K/T
	if !(p.Tcp >= 0 && noise >= 0) {
		noise = math.Inf(1) // a negative cost: nothing says convex, scan it all
	}
	best, bestS := math.Inf(1), 1
	for cand := 1; cand <= maxS; cand++ {
		o := p.overhead(q, cand)
		if o < best {
			best, bestS = o, cand
		} else if o-best > eps*(o+noise) { // false on a NaN or an infinity: scan on
			break
		}
	}
	return bestS, best
}

// OnlineParams describes the Online-Detection scheme before its chunk
// length is chosen: a chunk is d iterations of cost Titer each, followed by
// a verification.
type OnlineParams struct {
	Titer  float64
	Tverif float64
	Tcp    float64
	Trec   float64
	Lambda float64
}

// Optimal jointly minimises the overhead over the verification interval d
// and checkpoint interval s (the paper instantiates Eq. (6) with T = d·Titer
// for Chen's method, Section 4.2.1).
func (o OnlineParams) Optimal(maxD, maxS int) (d, s int, overhead float64) {
	if maxD < 1 {
		maxD = 1
	}
	best := math.Inf(1)
	bestD, bestS := 1, 1
	for cd := 1; cd <= maxD; cd++ {
		p := Params{
			T:      float64(cd) * o.Titer,
			Tverif: o.Tverif,
			Tcp:    o.Tcp,
			Trec:   o.Trec,
			Lambda: o.Lambda,
		}
		cs, ov := p.OptimalS(maxS)
		if ov < best {
			best, bestD, bestS = ov, cd, cs
		}
	}
	return bestD, bestS, best
}

// YoungPeriod returns Young's first-order approximation of the optimal
// checkpoint period W (time of useful work between checkpoints) for pure
// periodic checkpointing: W = sqrt(2·Tcp/λ).
func YoungPeriod(tcp, lambda float64) float64 {
	if lambda <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2 * tcp / lambda)
}

// DalyPeriod returns Daly's higher-order estimate of the optimal checkpoint
// period: sqrt(2·Tcp·(1/λ + Trec)) − Tcp (clamped to be positive).
func DalyPeriod(tcp, trec, lambda float64) float64 {
	if lambda <= 0 {
		return math.Inf(1)
	}
	w := math.Sqrt(2*tcp*(1/lambda+trec)) - tcp
	if w < tcp {
		w = tcp
	}
	return w
}
