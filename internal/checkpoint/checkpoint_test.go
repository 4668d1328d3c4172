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
