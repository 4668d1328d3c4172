package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/fault"
	"repro/internal/precond"
	"repro/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite testdata/driver_golden.json")

// goldenCell is everything observable about one resilient solve. Floats are
// rendered with the shortest round-trip formatting, so equal strings mean
// equal bits and the file diffs field by field.
type goldenCell struct {
	Name       string   `json:"name"`
	IterHash   string   `json:"iter_hash"` // FNV-1a over the OnIteration (it, ρ) stream
	Detections []string `json:"detections,omitempty"`
	XHash      string   `json:"x_hash"` // FNV-1a over the bits of the returned x
	Err        string   `json:"err,omitempty"`

	D                int    `json:"d"`
	S                int    `json:"s"`
	UsefulIterations int    `json:"useful_iterations"`
	TotalIterations  int64  `json:"total_iterations"`
	NDetections      int64  `json:"n_detections"`
	Corrections      int64  `json:"corrections"`
	Rollbacks        int64  `json:"rollbacks"`
	Rereads          int64  `json:"rereads,omitempty"`
	Checkpoints      int64  `json:"checkpoints"`
	FaultsInjected   int64  `json:"faults_injected"`
	Converged        bool   `json:"converged"`
	FinalResidual    string `json:"final_residual"`
	SimTime          string `json:"sim_time"`
	TimeIter         string `json:"time_iter"`
	TimeVerif        string `json:"time_verif"`
	TimeCkpt         string `json:"time_ckpt"`
	TimeRecovery     string `json:"time_recovery"`
}

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// goldenSolve runs one cell; it is the only part of this file that knows how
// the solver axis is spelled.
func goldenSolve(kind string, a, m *sparse.CSR, b []float64, cfg Config) ([]float64, Stats, error) {
	if kind == "bicgstab" {
		cfg.Recurrence = BiCGstab
	} else {
		cfg.M = m
	}
	return Solve(a, b, cfg)
}

// TestDriverGolden pins every supported solver × scheme cell on two
// matrices (one longer than vec.BlockSize, so the blocked reductions are in
// play), fault-free and at α = 1/16 under three injector seeds: the
// iteration stream, the detection events, the bits of x and every field of
// Stats. All cells share one workspace, so stale state leaking between
// solves of different shapes shows up too. Regenerate after an intentional
// change with:
//
//	go test ./internal/core -run TestDriverGolden -update
func TestDriverGolden(t *testing.T) {
	type variant struct {
		name, kind, precond string
		schemes             []Scheme
	}
	variants := []variant{
		{"cg", "cg", "", Schemes},
		{"pcg-jacobi", "pcg", "jacobi", Schemes},
		{"pcg-neumann", "pcg", "neumann", Schemes},
		{"bicgstab", "bicgstab", "", []Scheme{ABFTDetection, ABFTCorrection}},
	}
	matrices := []struct {
		name string
		a    *sparse.CSR
	}{
		{"suitespd300", sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 300, Density: 0.02, Seed: 29})},
		{"poisson2d4225", sparse.Poisson2D(65, 65)},
	}
	ws := NewWorkspace()
	var cells []goldenCell
	for mi, mat := range matrices {
		b, _ := rhsFor(mat.a, int64(40+mi))
		for _, v := range variants {
			var m *sparse.CSR
			var err error
			switch v.precond {
			case "jacobi":
				m, err = precond.Jacobi(mat.a)
			case "neumann":
				m, err = precond.Neumann(mat.a)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range v.schemes {
				for _, seed := range []int64{0, 3, 5, 11} { // 0 = fault-free
					cell := goldenCell{Name: fmt.Sprintf("%s/%s/%v/seed%d", mat.name, v.name, scheme, seed)}
					cfg := Config{Scheme: scheme, Tol: 1e-8, Ws: ws}
					if seed != 0 {
						cfg.Injectors = []*fault.Injector{fault.New(fault.Config{Alpha: 1.0 / 16, Seed: seed})}
					}
					ih := uint64(sparse.FNV1aOffset64)
					cfg.OnIteration = func(_, it int, rho float64) {
						ih = sparse.FNVMix64(sparse.FNVMix64(ih, uint64(it)), math.Float64bits(rho))
					}
					cfg.OnDetection = func(_ int, ev DetectionEvent) {
						how := "fwd"
						if ev.RolledBack {
							how = "rb"
						}
						cell.Detections = append(cell.Detections,
							fmt.Sprintf("it%d d%d c%d %s", ev.Iteration, ev.Detections, ev.Corrections, how))
					}
					x, st, err := goldenSolve(v.kind, mat.a, m, b, cfg)
					if err != nil {
						cell.Err = err.Error()
					}
					xh := uint64(sparse.FNV1aOffset64)
					for _, xi := range x {
						xh = sparse.FNVMix64(xh, math.Float64bits(xi))
					}
					cell.IterHash = fmt.Sprintf("%016x", ih)
					cell.XHash = fmt.Sprintf("%016x", xh)
					cell.D, cell.S = st.D, st.S
					cell.UsefulIterations, cell.TotalIterations = st.UsefulIterations, st.TotalIterations
					cell.NDetections, cell.Corrections = st.Detections, st.Corrections
					cell.Rollbacks, cell.Rereads, cell.Checkpoints = st.Rollbacks, st.Rereads, st.Checkpoints
					cell.FaultsInjected, cell.Converged = st.FaultsInjected, st.Converged
					cell.FinalResidual = fstr(st.FinalResidual)
					cell.SimTime, cell.TimeIter, cell.TimeVerif = fstr(st.SimTime), fstr(st.TimeIter), fstr(st.TimeVerif)
					cell.TimeCkpt, cell.TimeRecovery = fstr(st.TimeCkpt), fstr(st.TimeRecovery)
					if st.Scheme != scheme {
						t.Fatalf("%s: Stats.Scheme = %v", cell.Name, st.Scheme)
					}
					cells = append(cells, cell)
				}
			}
		}
	}

	got, err := json.MarshalIndent(cells, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "driver_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(cells))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	var wantCells []goldenCell
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("golden file unreadable: %v", err)
	}
	if len(wantCells) != len(cells) {
		t.Fatalf("golden file has %d cells, run produced %d", len(wantCells), len(cells))
	}
	for i := range cells {
		g, _ := json.Marshal(cells[i])
		w, _ := json.Marshal(wantCells[i])
		if !bytes.Equal(g, w) {
			t.Errorf("cell %s diverged from golden:\n got  %s\n want %s", cells[i].Name, g, w)
		}
	}
	if !t.Failed() {
		t.Fatal("golden file differs from the run only in formatting; regenerate with -update")
	}
}
