package fault

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

func newState(n int) *State {
	return &State{
		A: sparse.Tridiag(n, 4, -1),
		R: make([]float64, n),
		P: make([]float64, n),
		Q: make([]float64, n),
		X: make([]float64, n),
	}
}

// injectAll is one iteration of InjectIterationSplit with the deferred
// events applied at once: every event drawn strikes st.
func injectAll(in *Injector, st *State) []Event {
	applied, deferred := in.InjectIterationSplit(st)
	for _, ev := range deferred {
		in.ApplyEvent(st, ev)
	}
	return append(applied, deferred...)
}

func TestPoissonCountMean(t *testing.T) {
	in := New(Config{Alpha: 0.25, Seed: 1})
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		sum += in.poissonCount()
	}
	mean := float64(sum) / n
	if math.Abs(mean-0.25) > 0.02 {
		t.Fatalf("empirical Poisson mean = %v, want ≈ 0.25", mean)
	}
}

func TestPoissonZeroAlpha(t *testing.T) {
	in := New(Config{Alpha: 0, Seed: 1})
	for i := 0; i < 100; i++ {
		if in.poissonCount() != 0 {
			t.Fatal("alpha=0 must never produce faults")
		}
	}
}

func TestInjectChangesExactlyOneWordPerEvent(t *testing.T) {
	in := New(Config{Alpha: 5, Seed: 42}) // high rate: every iteration strikes
	st := newState(20)
	ref := newState(20)

	events := injectAll(in, st)
	if len(events) == 0 {
		t.Skip("unlucky draw (possible but ~e^-5); rerun with different seed")
	}
	// Count differing words between st and ref.
	diff := 0
	for i := range st.A.Val {
		if st.A.Val[i] != ref.A.Val[i] {
			diff++
		}
	}
	for i := range st.A.Colid {
		if st.A.Colid[i] != ref.A.Colid[i] {
			diff++
		}
	}
	for i := range st.A.Rowidx {
		if st.A.Rowidx[i] != ref.A.Rowidx[i] {
			diff++
		}
	}
	for _, pair := range [][2][]float64{{st.R, ref.R}, {st.P, ref.P}, {st.Q, ref.Q}, {st.X, ref.X}} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				diff++
			}
		}
	}
	// Each event flips one bit; two events can hit the same word and cancel
	// or combine, so diff ≤ len(events). With distinct strikes diff equals.
	if diff > len(events) {
		t.Fatalf("%d words changed for %d events", diff, len(events))
	}
	if diff == 0 {
		t.Fatalf("events reported (%d) but nothing changed", len(events))
	}
}

func TestInjectDeterministic(t *testing.T) {
	run := func() Stats {
		in := New(Config{Alpha: 0.5, Seed: 7})
		st := newState(30)
		for i := 0; i < 200; i++ {
			injectAll(in, st)
		}
		return in.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("injector not deterministic: %+v vs %+v", a, b)
	}
}

func TestInjectRespectsDisabled(t *testing.T) {
	in := New(Config{
		Alpha: 2, Seed: 3,
		Disabled: []Target{TargetVal, TargetColid, TargetRowidx},
	})
	st := newState(15)
	matRef := st.A.Clone()
	for i := 0; i < 300; i++ {
		injectAll(in, st)
	}
	if !st.A.Equal(matRef) {
		t.Fatal("disabled matrix targets were struck")
	}
	s := in.Stats()
	if s.PerTarget[TargetVal]+s.PerTarget[TargetColid]+s.PerTarget[TargetRowidx] != 0 {
		t.Fatal("stats recorded strikes on disabled targets")
	}
	if s.Flips == 0 {
		t.Fatal("no faults at all with alpha=2 over 300 iterations")
	}
}

func TestInjectNilVectors(t *testing.T) {
	in := New(Config{Alpha: 2, Seed: 9})
	st := &State{A: sparse.Tridiag(5, 4, -1)} // no vectors registered
	for i := 0; i < 100; i++ {
		injectAll(in, st)
	}
	if in.Stats().Flips == 0 {
		t.Fatal("matrix-only state should still be struck")
	}
}

func TestInjectEmptyState(t *testing.T) {
	in := New(Config{Alpha: 2, Seed: 9})
	st := &State{}
	ev := injectAll(in, st)
	if len(ev) != 0 {
		t.Fatal("empty state cannot be struck")
	}
}

func TestTargetDistributionRoughlyProportional(t *testing.T) {
	// With vectors much smaller than the matrix, most strikes must land on
	// the matrix — the paper's λ = α/M is uniform over words.
	in := New(Config{Alpha: 1, Seed: 11})
	n := 100
	st := &State{
		A: sparse.RandomSPD(sparse.RandomSPDOptions{N: n, Density: 0.2, DiagShift: 1, Seed: 2}),
		R: make([]float64, n),
	}
	for i := 0; i < 5000; i++ {
		injectAll(in, st)
	}
	s := in.Stats()
	mat := s.PerTarget[TargetVal] + s.PerTarget[TargetColid] + s.PerTarget[TargetRowidx]
	vecs := s.PerTarget[TargetVecR]
	words := st.A.MemoryWords() + n
	wantVecFrac := float64(n) / float64(words)
	gotVecFrac := float64(vecs) / float64(mat+vecs)
	if math.Abs(gotVecFrac-wantVecFrac) > 0.02 {
		t.Fatalf("vector strike fraction = %v, want ≈ %v", gotVecFrac, wantVecFrac)
	}
}

func TestTargetString(t *testing.T) {
	names := map[Target]string{
		TargetVal: "Val", TargetColid: "Colid", TargetRowidx: "Rowidx",
		TargetVecR: "r", TargetVecP: "p", TargetVecQ: "q", TargetVecX: "x",
	}
	for tgt, want := range names {
		if tgt.String() != want {
			t.Errorf("String(%d) = %q, want %q", tgt, tgt.String(), want)
		}
	}
}

func TestNegativeAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Alpha: -1})
}
