package router

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// ringOwners snapshots the ring placement for a set of synthetic keys.
func ringOwners(r *Router, n int) map[string]string {
	out := make(map[string]string, n)
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		out[k] = r.ring.Lookup(k)
	}
	return out
}

// TestApplyMinimalKeyMovement is the tentpole invariant: reconciling a
// topology moves only the keys of shards that joined or left. Growing
// s0..s2 by s3 may move keys only onto s3; shrinking back may move only
// s3's keys, and everything else returns to its pre-grow owner.
func TestApplyMinimalKeyMovement(t *testing.T) {
	r, _, _ := mockRouter(t, Config{}, "s0", "s1", "s2")
	topoOf := func(names ...string) Topology {
		tp := Topology{Schema: TopologySchemaVersion}
		for _, n := range names {
			tp.Shards = append(tp.Shards, Shard{Name: n})
		}
		return tp
	}

	const keys = 512
	before := ringOwners(r, keys)

	rep, err := r.Apply(topoOf("s0", "s1", "s2", "s3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "s3" || len(rep.Removed) != 0 || len(rep.Kept) != 3 {
		t.Fatalf("grow report %+v, want added=[s3] kept=3", rep)
	}
	grown := ringOwners(r, keys)
	movedToS3 := 0
	for k, was := range before {
		switch now := grown[k]; {
		case now == was:
		case now == "s3":
			movedToS3++
		default:
			t.Errorf("key %s moved %s→%s on a grow that only added s3", k, was, now)
		}
	}
	if movedToS3 == 0 {
		t.Error("no key moved to the new shard — vnode placement suspect")
	}

	rep, err = r.Apply(topoOf("s0", "s1", "s2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "s3" {
		t.Fatalf("shrink report %+v, want removed=[s3]", rep)
	}
	for k, was := range before {
		if now := ringOwners(r, keys)[k]; now != was {
			t.Errorf("key %s: owner %s after grow+shrink, want %s (round trip must be exact)", k, now, was)
			break
		}
	}
}

// TestApplyRejectsMalformedKeepsRing feeds Apply every malformed-topology
// shape; each must be rejected whole with the previous ring untouched
// and still serving.
func TestApplyRejectsMalformedKeepsRing(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
	before := ringOwners(r, 128)

	bad := []Topology{
		{}, // no shards
		{Schema: 99, Shards: []Shard{{Name: "s0"}}},                                                // unknown schema
		{Schema: 1, Shards: []Shard{{Name: "a"}, {Name: "a"}}},                                     // duplicate labels
		{Schema: 1, Shards: []Shard{{Name: ""}}},                                                   // empty name
		{Schema: 1, Shards: []Shard{{Name: "x", Addr: "not a url"}}},                               // bad addr
		{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1"}, {Name: "s2", Addr: "ftp://nope"}}}, // one bad entry poisons all
	}
	for i, tp := range bad {
		if _, err := r.Apply(tp); err == nil {
			t.Errorf("malformed topology %d accepted", i)
		}
	}
	if got := ringOwners(r, 128); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Error("rejected topologies disturbed the ring")
	}
	// The old ring is not just intact but serving.
	code, _, _ := postRouted(t, ts.URL, solveBody(t, "poisson2d", 36))
	if code != http.StatusOK {
		t.Errorf("solve after rejected reloads: status %d", code)
	}
	_ = rt
}

// TestApplyStartFailureAborts: when materialising any joiner fails, the
// whole apply aborts — no partial membership change, and joiners that did
// start are stopped again.
func TestApplyStartFailureAborts(t *testing.T) {
	r, rt, _ := mockRouter(t, Config{}, "s0")
	rt.StartErr = errors.New("injected start failure")
	_, err := r.Apply(Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1"}}})
	if err == nil {
		t.Fatal("apply with failing runtime succeeded")
	}
	topo := r.CurrentTopology()
	if len(topo.Shards) != 1 || topo.Shards[0].Name != "s0" {
		t.Errorf("membership %+v after aborted apply, want s0 only", topo.Shards)
	}
	if rt.Get("s1") != nil {
		t.Error("aborted apply leaked a running shard")
	}
}

// recordingRuntime is a ShardRuntime double that records every Start and
// Stop and fails the Start of one name.
type recordingRuntime struct {
	*MockRuntime
	failOn           string
	started, stopped []string
}

func (rt *recordingRuntime) Start(name string) (string, error) {
	if name == rt.failOn {
		return "", errors.New("injected start failure")
	}
	rt.started = append(rt.started, name)
	return rt.MockRuntime.Start(name)
}

func (rt *recordingRuntime) Stop(name string) error {
	rt.stopped = append(rt.stopped, name)
	return rt.MockRuntime.Stop(name)
}

// TestNewStartFailureStopsStarted: a router that cannot be built leaves
// nothing running — when the k-th managed shard fails to start, the k−1
// started before it are stopped again (under -supervise they are child
// processes nobody would ever reap).
func TestNewStartFailureStopsStarted(t *testing.T) {
	rt := &recordingRuntime{MockRuntime: NewMockRuntime(), failOn: "c"}
	t.Cleanup(rt.StopAll)
	r, err := New(Config{Runtime: rt}, []Shard{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}})
	if err == nil {
		r.Shutdown()
		t.Fatal("New succeeded though shard c cannot start")
	}
	sort.Strings(rt.stopped)
	if fmt.Sprint(rt.started) != "[a b]" || fmt.Sprint(rt.stopped) != "[a b]" {
		t.Errorf("started=%v stopped=%v, want a and b started, then both stopped", rt.started, rt.stopped)
	}
}

// TestApplyReAdmitsDrainedAndRepoints: presence in an applied topology
// means desired-active — a drained shard named by the file comes back on
// the ring — and an entry with a new addr repoints the retained shard in
// place.
func TestApplyReAdmitsDrained(t *testing.T) {
	r, _, _ := mockRouter(t, Config{}, "s0", "s1")
	if _, err := r.drainShard("s1"); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Apply(Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Updated) != 1 || rep.Updated[0] != "s1" {
		t.Fatalf("report %+v, want updated=[s1]", rep)
	}
	for _, sh := range r.CurrentTopology().Shards {
		if sh.State != api.ShardActive {
			t.Errorf("shard %s state %q after re-admitting apply", sh.Name, sh.State)
		}
	}
}

func TestApplyRepointsAddr(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{}, "s0", "s1")

	// A replacement process, outside the runtime's management.
	repl, err := NewMockShard("s1-replacement")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(repl.Kill)

	rep, err := r.Apply(Topology{Schema: 1, Shards: []Shard{
		{Name: "s0"},
		{Name: "s1", Addr: repl.URL()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Updated) != 1 || rep.Updated[0] != "s1" {
		t.Fatalf("report %+v, want updated=[s1]", rep)
	}

	// Traffic for s1's keys now lands on the replacement process while
	// the ring name (and key ownership) never changed.
	prev := repl.Solves()
	for n := 16; n <= 80; n += 4 {
		code, _, _ := postRouted(t, ts.URL, solveBody(t, "tridiag", n))
		if code != http.StatusOK {
			t.Fatalf("n=%d: status %d", n, code)
		}
	}
	if repl.Solves() == prev {
		t.Error("repointed shard never received traffic")
	}
	_ = rt
}

// TestApplyUnderTraffic races reloads against live solves: growing and
// shrinking the ring while requests are in flight must never surface an
// error to a client — affected keys fail over, unaffected keys never
// notice. (Run with -race to make this earn its keep.)
func TestApplyUnderTraffic(t *testing.T) {
	r, _, ts := mockRouter(t, Config{}, "s0", "s1", "s2")

	bodies := [][]byte{
		solveBody(t, "poisson2d", 16),
		solveBody(t, "poisson2d", 25),
		solveBody(t, "poisson2d", 36),
		solveBody(t, "poisson2d", 49),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := bodies[(i+w)%len(bodies)]
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					select {
					case errs <- fmt.Sprintf("worker %d: %v", w, err):
					default:
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("worker %d: status %d", w, resp.StatusCode):
					default:
					}
				}
			}
		}(w)
	}
	withS3 := Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1"}, {Name: "s2"}, {Name: "s3"}}}
	withoutS3 := Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1"}, {Name: "s2"}}}
	for i := 0; i < 6; i++ {
		if _, err := r.Apply(withS3); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Apply(withoutS3); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// modelShard is what the membership model knows about one shard.
type modelShard struct {
	addr    string
	weight  float64
	drained bool
	managed bool
}

// TestReconcileMatchesModel is the property that replaces reading the five
// entry points: random sequences of Apply, AddShard (new, re-admit,
// reweight), DrainShard and RemoveShard, legal and refused, against a map
// model. After every step the ring is exactly the one built from scratch
// out of the model's undrained members and weights (placement is a pure
// function of names and counts), CurrentTopology is the model, the runtime
// has seen one Start per managed join and one Stop per managed leave, and a
// refused verb — the model left as it was — changed none of that.
func TestReconcileMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { reconcileAgainstModel(t, seed, 300) })
	}
}

func reconcileAgainstModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	rt := &recordingRuntime{MockRuntime: NewMockRuntime()}
	r, err := New(Config{Runtime: rt, vnodes: 8, ProbeInterval: time.Hour},
		[]Shard{{Name: "s0"}, {Name: "s1", VnodeWeight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Shutdown()
		rt.StopAll()
	})
	model := map[string]*modelShard{
		"s0": {addr: rt.Get("s0").URL(), managed: true},
		"s1": {addr: rt.Get("s1").URL(), weight: 2, managed: true},
	}
	starts := map[string]int{"s0": 1, "s1": 1}
	stops := map[string]int{}

	const dead = "http://127.0.0.1:1" // an external shard nobody listens on
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	pick := func() string { return names[rng.Intn(len(names))] }
	weights := []float64{0, 0, 0.5, 1, 2, 3}
	addrs := []string{"", "", "", dead, "ftp://nope", "not a url"}
	routable := func() int {
		n := 0
		for _, m := range model {
			if !m.drained {
				n++
			}
		}
		return n
	}
	// join and leave are the model's side of a membership change.
	join := func(name, addr string, weight float64) {
		model[name] = &modelShard{addr: addr, weight: weight, managed: addr == ""}
		if addr == "" {
			starts[name]++
			model[name].addr = rt.Get(name).URL()
		}
	}
	leave := func(name string) {
		if model[name].managed {
			stops[name]++
		}
		delete(model, name)
	}

	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 3: // Apply a random topology, sometimes malformed, sometimes with a joiner that cannot start
			var topo Topology
			for _, n := range names {
				if rng.Intn(2) == 0 {
					topo.Shards = append(topo.Shards, Shard{Name: n, VnodeWeight: weights[rng.Intn(len(weights))]})
				}
			}
			rng.Shuffle(len(topo.Shards), func(i, j int) { topo.Shards[i], topo.Shards[j] = topo.Shards[j], topo.Shards[i] })
			valid := len(topo.Shards) > 0
			if valid {
				switch rng.Intn(8) {
				case 0:
					topo.Shards = append(topo.Shards, topo.Shards[0])
					valid = false
				case 1:
					topo.Shards[0].VnodeWeight = -1
					valid = false
				case 2:
					topo.Shards[0].Addr = "ftp://nope"
					valid = false
				case 3:
					rt.failOn = pick()
				}
			}
			what = fmt.Sprintf("Apply(%+v) failOn=%q", topo.Shards, rt.failOn)
			// A joiner that cannot start aborts the apply; the joiners
			// started ahead of it are stopped again.
			var aborted []string
			for _, sh := range topo.Shards {
				if model[sh.Name] != nil {
					continue
				}
				if sh.Name == rt.failOn {
					valid = false
					for _, n := range aborted {
						starts[n]++
						stops[n]++
					}
					break
				}
				aborted = append(aborted, sh.Name)
			}
			rep, err := r.Apply(topo)
			rt.failOn = ""
			if (err == nil) != valid {
				t.Fatalf("step %d %s: err %v, model says valid=%v", step, what, err, valid)
			}
			if !valid {
				break
			}
			var want ApplyReport
			inTopo := map[string]bool{}
			for _, sh := range topo.Shards {
				inTopo[sh.Name] = true
				switch m := model[sh.Name]; {
				case m == nil:
					join(sh.Name, "", sh.VnodeWeight)
					want.Added = append(want.Added, sh.Name)
				case m.drained || m.weight != sh.VnodeWeight:
					m.drained, m.weight = false, sh.VnodeWeight
					want.Updated = append(want.Updated, sh.Name)
				default:
					want.Kept = append(want.Kept, sh.Name)
				}
			}
			for n := range model {
				if !inTopo[n] {
					leave(n)
					want.Removed = append(want.Removed, n)
				}
			}
			for _, l := range []*[]string{&want.Added, &want.Removed, &want.Updated, &want.Kept} {
				sort.Strings(*l)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("step %d %s: report %+v, want %+v", step, what, rep, want)
			}
		case op < 6: // AddShard: new, re-admit, reweight, duplicate, malformed
			name, addr, weight := pick(), addrs[rng.Intn(len(addrs))], weights[rng.Intn(len(weights))]
			if rng.Intn(12) == 0 {
				weight = 17
			}
			what = fmt.Sprintf("AddShard(%q, %q, %g)", name, addr, weight)
			view, err := r.addShard(name, addr, weight)
			m := model[name]
			switch {
			case (Shard{Name: name, Addr: addr, VnodeWeight: weight}).validate() != nil:
				if err == nil || errors.Is(err, errShardExists) {
					t.Fatalf("step %d %s: err %v, want a validation error", step, what, err)
				}
			case m == nil:
				if err != nil {
					t.Fatalf("step %d %s: %v", step, what, err)
				}
				join(name, addr, weight)
				if wantState := map[bool]string{true: api.ShardEjected, false: api.ShardActive}[addr == dead]; view.State != wantState {
					t.Fatalf("step %d %s: joined %q, want %q", step, what, view.State, wantState)
				}
			case !m.drained && (weight == 0 || weight == m.weight):
				if !errors.Is(err, errShardExists) {
					t.Fatalf("step %d %s: err %v, want errShardExists", step, what, err)
				}
			default:
				if err != nil {
					t.Fatalf("step %d %s: %v", step, what, err)
				}
				if m.drained && addr != "" {
					m.addr = addr
				}
				if weight != 0 {
					m.weight = weight
				}
				m.drained = false
			}
		case op < 8:
			name := pick()
			what = fmt.Sprintf("DrainShard(%q)", name)
			_, err := r.drainShard(name)
			switch m := model[name]; {
			case m == nil:
				if !errors.Is(err, errShardNotFound) {
					t.Fatalf("step %d %s: err %v, want errShardNotFound", step, what, err)
				}
			case !m.drained && routable() <= 1:
				if !errors.Is(err, errLastShard) {
					t.Fatalf("step %d %s: err %v, want errLastShard", step, what, err)
				}
			default:
				if err != nil {
					t.Fatalf("step %d %s: %v", step, what, err)
				}
				m.drained = true
			}
		default:
			name := pick()
			what = fmt.Sprintf("RemoveShard(%q)", name)
			err := r.removeShard(name)
			switch m := model[name]; {
			case m == nil:
				if !errors.Is(err, errShardNotFound) {
					t.Fatalf("step %d %s: err %v, want errShardNotFound", step, what, err)
				}
			case !m.drained && routable() <= 1:
				if !errors.Is(err, errLastShard) {
					t.Fatalf("step %d %s: err %v, want errLastShard", step, what, err)
				}
			default:
				if err != nil {
					t.Fatalf("step %d %s: %v", step, what, err)
				}
				leave(name)
			}
		}

		assertMatchesModel(t, r, rt, model, starts, stops, names, fmt.Sprintf("step %d %s", step, what))
	}
}

// assertMatchesModel checks what every reconcile owes the membership model:
// (i) the ring is the one the model builds from scratch, (ii)
// CurrentTopology is the model, and (iii) the runtime has seen one Start per
// managed join and one Stop per managed leave of each of names, and runs
// exactly the managed shards the model holds.
func assertMatchesModel(t *testing.T, r *Router, rt *recordingRuntime, model map[string]*modelShard, starts, stops map[string]int, names []string, what string) {
	t.Helper()
	fresh := NewRing(r.cfg.vnodes)
	for n, m := range model {
		if !m.drained {
			fresh.addN(n, r.vnodesFor(m.weight))
		}
	}
	if !reflect.DeepEqual(r.ring.shards, fresh.shards) || !slices.Equal(r.ring.points, fresh.points) {
		t.Fatalf("%s: ring members %v, model builds %v", what, r.ring.shards, fresh.shards)
	}
	topo := r.CurrentTopology().Shards
	if len(topo) != len(model) {
		t.Fatalf("%s: topology %+v, model %d shards", what, topo, len(model))
	}
	for _, sh := range topo {
		m := model[sh.Name]
		if m == nil || sh.Addr != m.addr || sh.VnodeWeight != m.weight || (sh.State == api.ShardDraining) != m.drained {
			t.Fatalf("%s: shard %+v, model %+v", what, sh, m)
		}
	}
	for _, n := range names {
		gotStarts, gotStops := count(rt.started, n), count(rt.stopped, n)
		if gotStarts != starts[n] || gotStops != stops[n] {
			t.Fatalf("%s: shard %s started %d× stopped %d×, model says %d× and %d×",
				what, n, gotStarts, gotStops, starts[n], stops[n])
		}
		held := model[n] != nil && model[n].managed
		if running := rt.Get(n) != nil; running != held {
			t.Fatalf("%s: shard %s running=%v, model holds it managed=%v", what, n, running, held)
		}
	}
}

func count(list []string, name string) int {
	n := 0
	for _, s := range list {
		if s == name {
			n++
		}
	}
	return n
}
