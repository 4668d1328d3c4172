package checkpoint

import (
	"testing"

	"repro/internal/sparse"
)

func liveState(n int) *State {
	x := make([]float64, n)
	r := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		r[i] = float64(-i)
	}
	return &State{
		A:         sparse.Tridiag(n, 2, -1),
		Vectors:   map[string][]float64{"x": x, "r": r},
		Iteration: 7,
		Scalars:   map[string]float64{"rho": 3.5},
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	st := liveState(10)
	store := NewStore()
	store.Save(st)

	// Corrupt everything.
	st.A.Val[0] = 999
	st.A.Colid[1] = 5
	st.A.Rowidx[2] = 0
	st.Vectors["x"][3] = -1
	st.Vectors["r"][4] = 42
	st.Iteration = 99
	st.Scalars["rho"] = -1

	store.Restore(st)

	want := liveState(10)
	if !st.A.Equal(want.A) {
		t.Fatal("matrix not restored")
	}
	for name := range want.Vectors {
		for i := range want.Vectors[name] {
			if st.Vectors[name][i] != want.Vectors[name][i] {
				t.Fatalf("vector %s not restored", name)
			}
		}
	}
	if st.Iteration != 7 || st.Scalars["rho"] != 3.5 {
		t.Fatal("scalars not restored")
	}
}

func TestRestoreKeepsArrayIdentity(t *testing.T) {
	st := liveState(5)
	xAlias := st.Vectors["x"]
	store := NewStore()
	store.Save(st)
	st.Vectors["x"][0] = 123
	store.Restore(st)
	if xAlias[0] != 0 {
		t.Fatal("restore must write through the original array")
	}
}

func TestSnapshotIsIsolated(t *testing.T) {
	st := liveState(5)
	store := NewStore()
	store.Save(st)
	// Mutating the live state must not change the snapshot.
	st.A.Val[0] = 77
	st.Vectors["x"][0] = 77
	store.Restore(st)
	if st.A.Val[0] == 77 || st.Vectors["x"][0] == 77 {
		t.Fatal("snapshot shares memory with live state")
	}
}

func TestSaveOverwritesPrevious(t *testing.T) {
	st := liveState(5)
	store := NewStore()
	store.Save(st)
	st.Iteration = 20
	st.Vectors["x"][0] = 5
	store.Save(st)
	st.Vectors["x"][0] = 9
	store.Restore(st)
	if st.Iteration != 20 || st.Vectors["x"][0] != 5 {
		t.Fatal("second snapshot not used")
	}
}

func TestRestoreWithoutSnapshotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStore().Restore(liveState(3))
}

func TestNoMatrixState(t *testing.T) {
	st := &State{Vectors: map[string][]float64{"x": {1, 2, 3}}}
	store := NewStore()
	store.Save(st)
	st.Vectors["x"][1] = 9
	store.Restore(st)
	if st.Vectors["x"][1] != 2 {
		t.Fatal("vector-only state not restored")
	}
}

// TestRoundTripAfterALargerSnapshot holds Save's reuse by capacity: after a
// larger snapshot, with a vector the smaller state does not name, the
// smaller state round-trips exactly; the stale name is out of Restore's
// reach; and alternating the two shapes allocates nothing once both were
// seen.
func TestRoundTripAfterALargerSnapshot(t *testing.T) {
	big := liveState(20)
	big.Vectors["z"] = make([]float64, 20)
	st := liveState(10)
	store := NewStore()
	store.Save(big)
	store.Save(st)

	st.A.Val[0] = 999
	st.Vectors["x"][3] = -1
	st.Vectors["r"][9] = 42
	st.Iteration = 99
	st.Scalars["rho"] = -1
	store.Restore(st)
	want := liveState(10)
	if !st.A.Equal(want.A) {
		t.Fatal("matrix not restored")
	}
	for name, v := range want.Vectors {
		if len(st.Vectors[name]) != len(v) {
			t.Fatalf("vector %s: length %d, want %d", name, len(st.Vectors[name]), len(v))
		}
		for i := range v {
			if st.Vectors[name][i] != v[i] {
				t.Fatalf("vector %s not restored", name)
			}
		}
	}
	if st.Iteration != 7 || st.Scalars["rho"] != 3.5 {
		t.Fatal("scalars not restored")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("restoring a vector the last snapshot did not name did not panic")
			}
		}()
		stale := liveState(10)
		stale.Vectors["z"] = make([]float64, 10)
		store.Restore(stale)
	}()

	if allocs := testing.AllocsPerRun(10, func() { store.Save(big); store.Save(st) }); allocs != 0 {
		t.Errorf("%v allocs per pair of saves alternating shapes, want 0", allocs)
	}
}
