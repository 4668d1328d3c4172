package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden result record")

// goldenScenario is the pinned regression scenario: small enough to run in
// milliseconds, faulty enough to exercise every counter.
func goldenScenario() Scenario {
	return Scenario{
		Name:   "golden/cg/abft-correction/poisson2d",
		Matrix: MatrixSpec{Gen: "poisson2d", N: 225},
		Solver: "cg",
		Scheme: "abft-correction",
		Alpha:  1.0 / 32,
		Reps:   2,
		Seed:   5,
	}
}

// TestGoldenResultRecord pins both the JSON schema and the deterministic
// content of a result record. If it fails after an intentional solver or
// schema change, regenerate with:
//
//	go test ./internal/harness -run TestGoldenResultRecord -update
func TestGoldenResultRecord(t *testing.T) {
	res := runOn(t, goldenScenario())
	var buf bytes.Buffer
	if err := WriteResults(&buf, []Result{res.Canonical()}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "result_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(buf.Bytes())) {
		t.Fatalf("result record diverged from golden file (intentional? regenerate with -update):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestGoldenSchemaFields guards the JSON field *set* separately from the
// values, so a renamed or dropped key is reported as a schema break even
// when the golden file was regenerated carelessly.
func TestGoldenSchemaFields(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "result_golden.json"))
	if err != nil {
		t.Skip("golden file not generated yet")
	}
	var records []map[string]any
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("golden file has %d records, want 1", len(records))
	}
	for _, key := range []string{
		"schema", "scenario", "workers", "matrix", "reps", "converged",
		"failures", "d", "s", "mean_useful_iters", "mean_total_iters",
		"detections", "corrections", "rollbacks", "checkpoints",
		"faults_injected", "mean_sim_time", "ci95_sim_time", "sim_times",
		"max_final_residual", "flops_per_iter", "residual_hash",
		"wall_seconds",
	} {
		if _, ok := records[0][key]; !ok {
			t.Errorf("schema key %q missing from the record", key)
		}
	}
	if int(records[0]["schema"].(float64)) != SchemaVersion {
		t.Errorf("golden schema version %v != %d", records[0]["schema"], SchemaVersion)
	}
}

// TestReadWriteRoundTrip: what WriteResults writes decodes back into the
// same canonical record.
func TestReadWriteRoundTrip(t *testing.T) {
	res := runOn(t, goldenScenario())
	var buf bytes.Buffer
	if err := WriteResults(&buf, []Result{res}); err != nil {
		t.Fatal(err)
	}
	var back []Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Scenario.Name != res.Scenario.Name {
		t.Fatalf("round trip lost the record: %+v", back)
	}
	a, _ := json.Marshal(res.Canonical())
	b, _ := json.Marshal(back[0].Canonical())
	if string(a) != string(b) {
		t.Fatal("round trip changed the canonical record")
	}
}

func TestHashHistory(t *testing.T) {
	h1 := HashHistory([]float64{1, 2, 3})
	h2 := HashHistory([]float64{1, 2, 3})
	h3 := HashHistory([]float64{1, 2, 4})
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	if h1 == h3 {
		t.Fatal("hash must distinguish histories")
	}
	if !strings.HasPrefix(h1, "fnv1a:") {
		t.Fatalf("hash format: %s", h1)
	}
	if HashHistory(nil) == HashHistory([]float64{0}) {
		t.Fatal("length must be part of the hash")
	}
}

// TestCanonicalIgnoresProvenance: two records of the same solve that differ
// only in wall time, worker count, serving shard or trace are one canonical
// record; a difference in content is not.
func TestCanonicalIgnoresProvenance(t *testing.T) {
	a := Result{Schema: SchemaVersion, Scenario: Scenario{Name: "a"}, MeanSimTime: 1,
		WallSeconds: 10, Workers: 1, Shard: "s0", TraceID: "t0"}
	b := a
	b.WallSeconds, b.Workers, b.Shard, b.TraceID = 1234, 4, "s2", "t1"
	ja, _ := json.Marshal(a.Canonical())
	jb, _ := json.Marshal(b.Canonical())
	if string(ja) != string(jb) {
		t.Fatalf("provenance-only difference survived Canonical:\n%s\n%s", ja, jb)
	}
	b.MeanSimTime = 99
	if jb, _ = json.Marshal(b.Canonical()); string(ja) == string(jb) {
		t.Fatal("Canonical must keep the record's content")
	}
}
