package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
)

// FuzzLoadCampaign holds the campaign file (resload -replay) to its
// contract: any bytes give either an error or a campaign whose every cell,
// single or batch, validates, within fuzzDeadline and without a panic.
func FuzzLoadCampaign(f *testing.F) {
	const inline = `{"rows":3,"cols":3,"rowidx":"AAAAAAIAAAAFAAAABwAAAA==","colid":"AAAAAAEAAAAAAAAAAQAAAAIAAAABAAAAAgAAAA==",` +
		`"val":"AAAAAAAAEEAAAAAAAADwvwAAAAAAAPC/AAAAAAAAEEAAAAAAAADwvwAAAAAAAPC/AAAAAAAAEEA="}`
	seeds := [][]byte{
		[]byte(`{"schema":2,"requests":4,"concurrency":2,"cells":[` +
			`{"name":"single","request":{"inline":` + inline + `,"seed":3}},` +
			`{"name":"batch","request":{"inline":` + inline + `},"rhs":[{"seed":1},{"seed":2}]}]}`),
		[]byte("{"),
		[]byte(`{"schema":99,"cells":[{"name":"x","request":{"matrix":{"gen":"poisson2d","n":16}}}]}`),
		[]byte(`{"schema":1,"cells":[]}`),
		[]byte(`{"schema":1,"cells":[{"name":"x","request":{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[2]}}}]}`),
		[]byte(`{"schema":1,"cells":[{"name":"x","request":{"solver":"warp","matrix":{"gen":"poisson2d","n":16}}}]}`),
		[]byte(`{"schema":1,"cells":[{"name":"x","request":{"matrix":{"gen":"poisson2d","n":"16"}}}]}`),
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "replay_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, golden)
	for _, raw := range seeds {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		start := time.Now()
		camp, err := parseCampaign("fuzz.json", raw)
		if took := time.Since(start); took > fuzzDeadline {
			t.Fatalf("parsing %d bytes took %s", len(raw), took)
		}
		if err != nil {
			return
		}
		for _, cc := range camp.Cells {
			if len(cc.RHS) > 0 {
				breq := api.BatchSolveRequest{SolveRequest: cc.Request, RHS: cc.RHS}
				if err := breq.Validate(); err != nil {
					t.Fatalf("accepted batch cell %q fails Validate: %v", cc.Name, err)
				}
				continue
			}
			if err := cc.Request.Validate(); err != nil {
				t.Fatalf("accepted cell %q fails Validate: %v", cc.Name, err)
			}
		}
	})
}
