package chaos

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzLoadPlan holds the chaos plan file (resrouter -chaos-plan) to its
// contract: any bytes give either an error or a plan that passes its own
// validate, within fuzzDeadline and without a panic.
func FuzzLoadPlan(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"schema":1,"seed":77,"p_kill":0.1}`),
		[]byte(`{"schema":1,"p_reset":0.9,"p_bitflip":0.9}`),
		[]byte(`{"schema": 1, "seed": 1234, "p_reset": 0.05, "p_truncate": 0.05, "p_bitflip": 0.08,
		  "p_503": 0.03, "p_kill": 0, "max_kills": 1, "p_latency": 0.05, "latency_ms": 50}`),
		[]byte(`{"schema":1,`),
		[]byte(`null`),
	}
	for _, p := range []Plan{
		{Schema: 99},
		{PReset: -0.1},
		{PBitFlip: 1.5},
		{PReset: 0.5, PTruncate: 0.3, PBitFlip: 0.3},
		{PLatency: 0.1, LatencyMillis: -5},
		{MaxKills: -1},
		{Schema: planSchemaVersion, Seed: 1, PReset: 0.05, PTruncate: 0.05, PBitFlip: 0.08, P503: 0.03, PLatency: 0.5, LatencyMillis: 50},
		{PReset: 0.6, PLatency: 0.9},
		forcedPlan(func(p *Plan) { p.PKill = 1; p.MaxKills = 1 }),
		forcedPlan(func(p *Plan) { p.PLatency = 1; p.LatencyMillis = 35 }),
	} {
		raw, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	for _, raw := range seeds {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		start := time.Now()
		p, err := parsePlan("fuzz.json", raw)
		if took := time.Since(start); took > fuzzDeadline {
			t.Fatalf("parsing %d bytes took %s", len(raw), took)
		}
		if err != nil {
			return
		}
		if err := p.validate(); err != nil {
			t.Fatalf("accepted plan %+v fails its own validate: %v", p, err)
		}
	})
}
