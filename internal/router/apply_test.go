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
// shape; each must be rejected whole with the previous shard set and ring
// untouched and still serving.
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
		{Schema: 1, Shards: []Shard{{Name: "s0", Drained: true}, {Name: "s1", Drained: true}}},     // nothing left on the ring
	}
	for i, tp := range bad {
		if _, err := r.Apply(tp); err == nil {
			t.Errorf("malformed topology %d accepted", i)
		}
	}
	if got := ringOwners(r, 128); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Error("rejected topologies disturbed the ring")
	}
	if shards := r.routerz().Shards; len(shards) != 2 || shards[0].State != api.ShardActive || shards[1].State != api.ShardActive {
		t.Errorf("rejected topologies changed the shard set: %+v", shards)
	}
	// The old ring is not just intact but serving.
	code, _, _ := postRouted(t, ts.URL, solveBody(t, "poisson2d", 36))
	if code != http.StatusOK {
		t.Errorf("solve after rejected reloads: status %d", code)
	}
	_ = rt
}

// TestAdminAddRefusesInvalidShard: adding a shard is a topology file that
// names one more, and a joiner the file validation refuses — an addr that
// is not an http(s) base URL, a weight outside (0, 16], no name — refuses
// the whole file: the shard set and the ring are as they were, and no
// process was started for it.
func TestAdminAddRefusesInvalidShard(t *testing.T) {
	r, rt, _ := mockRouter(t, Config{}, "s0")
	before := ringOwners(r, 64)
	for _, joiner := range []Shard{
		{Name: "bad", Addr: "not a url at all"},
		{Name: "ftp", Addr: "ftp://x/y"},
		{Name: "nohost", Addr: "http://"},
		{Name: "neg", VnodeWeight: -1},
		{Name: "big", VnodeWeight: 16.5},
		{Addr: "http://127.0.0.1:9"},
	} {
		if _, err := r.Apply(Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, joiner}}); err == nil {
			t.Errorf("add of %+v accepted", joiner)
		}
		if joiner.Name != "" && rt.Get(joiner.Name) != nil {
			t.Errorf("refused add of %s started a shard", joiner.Name)
		}
	}
	if shards := r.routerz().Shards; len(shards) != 1 || shards[0].Name != "s0" || shards[0].State != api.ShardActive {
		t.Errorf("refused adds changed the shard set: %+v", shards)
	}
	if got := ringOwners(r, 64); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Error("refused adds disturbed the ring")
	}
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
	if shards := r.routerz().Shards; len(shards) != 1 || shards[0].Name != "s0" {
		t.Errorf("membership %+v after aborted apply, want s0 only", shards)
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
// started before it are stopped again (under -shard-bin they are child
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

// TestApplyReAdmitsDrained: an entry without the drained latch means on
// the ring — a shard drained by the previous file comes back.
func TestApplyReAdmitsDrained(t *testing.T) {
	r, _, _ := mockRouter(t, Config{}, "s0", "s1")
	if _, err := r.Apply(Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1", Drained: true}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Apply(Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Updated) != 1 || rep.Updated[0] != "s1" {
		t.Fatalf("report %+v, want updated=[s1]", rep)
	}
	for _, sh := range r.routerz().Shards {
		if sh.State != api.ShardActive {
			t.Errorf("shard %s state %q after re-admitting apply", sh.Name, sh.State)
		}
	}
}

// TestFileDrainReadmitRemoveLifecycle walks a shard through the drain latch
// of the topology file: active → drained (off the ring, keys move, probes
// keep watching) → re-admitted (back on the ring, keys return) → drained →
// removed (process stopped). Throughout, the surviving shards keep their
// keys — a drain moves only the drained shard's keys — and a file that
// drains every shard is refused.
func TestFileDrainReadmitRemoveLifecycle(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{}, "s0", "s1", "s2")
	file := func(drained ...string) Topology {
		topo := Topology{Schema: TopologySchemaVersion}
		for _, n := range []string{"s0", "s1", "s2"} {
			topo.Shards = append(topo.Shards, Shard{Name: n, Drained: slices.Contains(drained, n)})
		}
		return topo
	}
	apply := func(topo Topology) ApplyReport {
		t.Helper()
		rep, err := r.Apply(topo)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Route a spread of keys and remember each placement.
	owner := func(n int) string {
		code, shard, _ := postRouted(t, ts.URL, solveBody(t, "tridiag", n))
		if code != http.StatusOK {
			t.Fatalf("n=%d: status %d", n, code)
		}
		return shard
	}
	sizes := []int{16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}
	before := map[int]string{}
	for _, n := range sizes {
		before[n] = owner(n)
	}
	keysBefore := r.routerz().Keys.PerShard

	// Drain s1: the report names it, and statusz shows it off the ring
	// (vnodes 0) but still visible.
	if rep := apply(file("s1")); fmt.Sprint(rep.Updated) != "[s1]" || len(rep.Kept) != 2 {
		t.Errorf("drain report %s, want s1 updated and two kept", rep)
	}
	sz := routerzOf(t, ts.URL)
	for _, s := range sz.Shards {
		if s.Name == "s1" && (s.State != api.ShardDraining || s.VNodes != 0) {
			t.Errorf("routerz s1: state %q vnodes %d, want draining/0", s.State, s.VNodes)
		}
		if s.Name != "s1" && s.VNodes == 0 {
			t.Errorf("routerz %s: lost its vnodes on someone else's drain", s.Name)
		}
	}
	// The drain forgets s1's key attributions at once; replays attribute
	// them to the new owners.
	if n := sz.Keys.PerShard["s1"]; n != 0 {
		t.Errorf("drained shard s1 still attributed %d keys", n)
	}

	// Idempotent: the same file again changes nothing.
	if rep := apply(file("s1")); rep.Changed() {
		t.Errorf("second drain reported %s", rep)
	}

	// Only s1's keys move; every key that lived on s0 or s2 stays put,
	// and nothing routes to s1 any more.
	served := rt.Get("s1").Solves()
	moved := 0
	for _, n := range sizes {
		now := owner(n)
		if now == "s1" {
			t.Errorf("n=%d still routed to the drained shard", n)
		}
		if before[n] != "s1" && now != before[n] {
			t.Errorf("n=%d moved %s→%s though neither was drained", n, before[n], now)
		}
		if before[n] == "s1" {
			moved++
		}
	}
	if moved == 0 {
		t.Skip("hash spread put no test key on s1; widen sizes")
	}
	if got := rt.Get("s1").Solves(); got != served {
		t.Errorf("drained shard served %d new solves", got-served)
	}
	keysAfter := r.routerz().Keys.PerShard
	for _, s := range []string{"s0", "s2"} {
		if keysAfter[s] < keysBefore[s] {
			t.Errorf("shard %s attributed %d keys before s1's drain, %d after", s, keysBefore[s], keysAfter[s])
		}
	}

	// Clear the latch: every key returns to its original owner.
	apply(file())
	for _, n := range sizes {
		if now := owner(n); now != before[n] {
			t.Errorf("n=%d: owner %s after re-admission, want %s", n, now, before[n])
		}
	}

	// Drain down to one shard; a file that drains the last one too is
	// refused and changes nothing.
	apply(file("s0", "s2"))
	ring := ringOwners(r, 64)
	if _, err := r.Apply(file("s0", "s1", "s2")); err == nil {
		t.Error("a file that drains every shard was accepted")
	}
	if got := ringOwners(r, 64); fmt.Sprint(got) != fmt.Sprint(ring) {
		t.Error("the refused all-drained file disturbed the ring")
	}

	// Dropping the drained s0 from the file stops its managed process.
	rep := apply(Topology{Schema: 1, Shards: []Shard{{Name: "s1"}, {Name: "s2", Drained: true}}})
	if fmt.Sprint(rep.Removed) != "[s0]" {
		t.Errorf("remove report %s, want s0 removed", rep)
	}
	if rt.Get("s0") != nil {
		t.Error("removed shard's process still running")
	}
	if n := len(r.routerz().Shards); n != 2 {
		t.Errorf("statusz lists %d shards after the remove, want 2", n)
	}
}

// TestApplyMaterializesViaRuntime: a new entry with no addr asks the
// router's runtime for a process, and the router starts routing to it.
func TestApplyMaterializesViaRuntime(t *testing.T) {
	r, rt, ts := mockRouter(t, Config{}, "s0", "s1")
	rep, err := r.Apply(Topology{Schema: 1, Shards: []Shard{{Name: "s0"}, {Name: "s1"}, {Name: "s2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.Added) != "[s2]" {
		t.Errorf("report %s, want s2 added", rep)
	}
	if rt.Get("s2") == nil {
		t.Fatal("runtime did not materialise the shard")
	}
	for _, sh := range r.routerz().Shards {
		if sh.Name == "s2" && (sh.State != api.ShardActive || sh.Addr != rt.Get("s2").URL()) {
			t.Errorf("added shard %+v, want active at %s", sh, rt.Get("s2").URL())
		}
	}
	// Route a spread of keys: the new shard must end up serving some.
	for n := 16; n <= 120; n += 4 {
		code, _, _ := postRouted(t, ts.URL, solveBody(t, "tridiag", n))
		if code != http.StatusOK {
			t.Fatalf("n=%d: status %d", n, code)
		}
	}
	if rt.Get("s2").Solves() == 0 {
		t.Error("new shard never served a key")
	}
	if n := r.routerz().Keys.PerShard["s2"]; n == 0 {
		t.Error("statusz attributes no key to the new shard")
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

// memberModel is the membership the accepted files leave, written apart
// from reconcile: every shard's entry, and how often the runtime was asked
// to start and to stop each name.
type memberModel struct {
	shards        map[string]*modelShard
	starts, stops map[string]int
}

// newModelRouter starts the router the model tests share — s0 and s1
// (weight 2), both managed, 8 vnodes, no probes — and its model.
func newModelRouter(t *testing.T) (*Router, *recordingRuntime, *memberModel) {
	t.Helper()
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
	return r, rt, &memberModel{
		shards: map[string]*modelShard{
			"s0": {addr: rt.Get("s0").URL(), managed: true},
			"s1": {addr: rt.Get("s1").URL(), weight: 2, managed: true},
		},
		starts: map[string]int{"s0": 1, "s1": 1},
		stops:  map[string]int{},
	}
}

// apply is the model's side of an Apply the router accepted: a named shard
// takes the entry's weight and latch (and its addr, when the entry names
// one), a new one joins — started by the runtime when the entry names no
// addr — and an unnamed one leaves, stopped when the runtime started it.
// It returns the report the model predicts.
func (m *memberModel) apply(t *testing.T, rt *recordingRuntime, topo Topology) ApplyReport {
	t.Helper()
	var want ApplyReport
	inTopo := map[string]bool{}
	for _, sh := range topo.Shards {
		inTopo[sh.Name] = true
		ms := m.shards[sh.Name]
		if ms == nil {
			ms = &modelShard{addr: sh.Addr, weight: sh.VnodeWeight, drained: sh.Drained, managed: sh.Addr == ""}
			if ms.managed {
				m.starts[sh.Name]++
				started := rt.Get(sh.Name)
				if started == nil {
					t.Fatalf("Apply(%+v) joined %q without starting it", topo.Shards, sh.Name)
				}
				ms.addr = started.URL()
			}
			m.shards[sh.Name] = ms
			want.Added = append(want.Added, sh.Name)
			continue
		}
		next := *ms
		if sh.Addr != "" {
			next.addr = sh.Addr
		}
		next.weight, next.drained = sh.VnodeWeight, sh.Drained
		if next != *ms {
			want.Updated = append(want.Updated, sh.Name)
		} else {
			want.Kept = append(want.Kept, sh.Name)
		}
		*ms = next
	}
	for n, ms := range m.shards {
		if !inTopo[n] {
			if ms.managed {
				m.stops[n]++
			}
			delete(m.shards, n)
			want.Removed = append(want.Removed, n)
		}
	}
	for _, l := range []*[]string{&want.Added, &want.Removed, &want.Updated, &want.Kept} {
		sort.Strings(*l)
	}
	return want
}

// file writes the model's membership as a topology file: every shard where
// it is (no addr), with its weight and latch, in name order.
func (m *memberModel) file() []Shard {
	var out []Shard
	for n, ms := range m.shards {
		out = append(out, Shard{Name: n, VnodeWeight: ms.weight, Drained: ms.drained})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestReconcileMatchesModel is the property that replaces reading
// reconcile: random sequences of reloads against a map model — random
// files, and edits of the current one that drain an entry (a new name joins
// drained), drop one, or put one on the ring (a join, a re-admission, a
// reweight or a repoint), some malformed, some draining every shard, some
// with a joiner that cannot start. After every step the ring is exactly the
// one built from scratch out of the model's undrained members and weights
// (placement is a pure function of names and counts), statusz is the model,
// the runtime has seen one Start per managed join and one Stop per managed
// leave, and a refused file — the model left as it was — changed none of
// that.
func TestReconcileMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { reconcileAgainstModel(t, seed, 300) })
	}
}

func reconcileAgainstModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	r, rt, m := newModelRouter(t)

	const dead = "http://127.0.0.1:1" // an external shard nobody listens on
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	pick := func() string { return names[rng.Intn(len(names))] }
	weights := []float64{0, 0, 0.5, 1, 2, 3}
	addrs := []string{"", "", "", dead, "ftp://nope", "not a url"}
	// set puts entry into the file, in place of the entry of its name.
	set := func(file []Shard, entry Shard) []Shard {
		if i := slices.IndexFunc(file, func(sh Shard) bool { return sh.Name == entry.Name }); i >= 0 {
			file[i] = entry
			return file
		}
		return append(file, entry)
	}
	seen := map[string]int{}
	for step := 0; step < steps; step++ {
		var topo Topology
		valid := true
		switch op := rng.Intn(10); {
		case op < 4:
			for _, n := range names {
				if rng.Intn(2) == 0 {
					topo.Shards = append(topo.Shards, Shard{Name: n, Addr: addrs[rng.Intn(len(addrs))],
						VnodeWeight: weights[rng.Intn(len(weights))], Drained: rng.Intn(4) == 0})
				}
			}
			rng.Shuffle(len(topo.Shards), func(i, j int) { topo.Shards[i], topo.Shards[j] = topo.Shards[j], topo.Shards[i] })
			if len(topo.Shards) > 0 && rng.Intn(8) == 0 {
				topo.Shards = append(topo.Shards, topo.Shards[0])
				valid = false
			}
		case op < 7:
			name := pick()
			entry := Shard{Name: name, Drained: true}
			if ms := m.shards[name]; ms != nil {
				entry.VnodeWeight = ms.weight
			}
			topo.Shards = set(m.file(), entry)
		case op < 9:
			name := pick()
			topo.Shards = slices.DeleteFunc(m.file(), func(sh Shard) bool { return sh.Name == name })
		default:
			entry := Shard{Name: pick(), Addr: addrs[rng.Intn(len(addrs))], VnodeWeight: weights[rng.Intn(len(weights))]}
			if rng.Intn(12) == 0 {
				entry.VnodeWeight = 17
			}
			topo.Shards = set(m.file(), entry)
		}
		if rng.Intn(8) == 0 {
			rt.failOn = pick()
		}
		what := fmt.Sprintf("step %d Apply(%+v) failOn=%q", step, topo.Shards, rt.failOn)

		// The model's verdict on the file: a refused entry, or every entry
		// drained, refuses it whole.
		onRing := false
		for _, sh := range topo.Shards {
			onRing = onRing || !sh.Drained
			if (sh.Addr != "" && sh.Addr != dead) || !(sh.VnodeWeight >= 0 && sh.VnodeWeight <= maxVnodeWeight) {
				valid = false
			}
		}
		valid = valid && onRing
		// A managed joiner that cannot start aborts the apply; the managed
		// joiners started ahead of it are stopped again.
		if valid {
			var aborted []string
			for _, sh := range topo.Shards {
				if m.shards[sh.Name] != nil || sh.Addr != "" {
					continue
				}
				if sh.Name == rt.failOn {
					valid = false
					for _, n := range aborted {
						m.starts[n]++
						m.stops[n]++
					}
					break
				}
				aborted = append(aborted, sh.Name)
			}
		}
		rep, err := r.Apply(topo)
		rt.failOn = ""
		if (err == nil) != valid {
			t.Fatalf("%s: err %v, model says valid=%v", what, err, valid)
		}
		if valid {
			if want := m.apply(t, rt, topo); !reflect.DeepEqual(rep, want) {
				t.Fatalf("%s: report %+v, want %+v", what, rep, want)
			}
			seen["accepted"]++
		} else if !onRing && len(topo.Shards) > 0 {
			seen["all drained"]++
		}
		for _, ms := range m.shards {
			if ms.drained {
				seen["a shard drained"]++
				break
			}
		}
		assertMatchesModel(t, r, rt, m, names, what)
	}
	for _, k := range []string{"accepted", "all drained", "a shard drained"} {
		if seen[k] == 0 {
			t.Errorf("seed %d: the walk never reached a step with %s", seed, k)
		}
	}
}

// assertMatchesModel checks what every reconcile owes the membership model:
// (i) the ring is the one the model builds from scratch, (ii) statusz is
// the model, and (iii) the runtime has seen one Start per managed join and
// one Stop per managed leave of each of names, and runs exactly the managed
// shards the model holds.
func assertMatchesModel(t *testing.T, r *Router, rt *recordingRuntime, m *memberModel, names []string, what string) {
	t.Helper()
	fresh := NewRing(r.cfg.vnodes)
	for n, ms := range m.shards {
		if !ms.drained {
			fresh.addN(n, r.vnodesFor(ms.weight))
		}
	}
	if !reflect.DeepEqual(r.ring.shards, fresh.shards) || !slices.Equal(r.ring.points, fresh.points) {
		t.Fatalf("%s: ring members %v, model builds %v", what, r.ring.shards, fresh.shards)
	}
	shards := r.routerz().Shards
	if len(shards) != len(m.shards) {
		t.Fatalf("%s: statusz %+v, model %d shards", what, shards, len(m.shards))
	}
	for _, sh := range shards {
		ms := m.shards[sh.Name]
		if ms == nil || sh.Addr != ms.addr || sh.VnodeWeight != ms.weight || (sh.State == api.ShardDraining) != ms.drained {
			t.Fatalf("%s: shard %+v, model %+v", what, sh, ms)
		}
	}
	for _, n := range names {
		gotStarts, gotStops := count(rt.started, n), count(rt.stopped, n)
		if gotStarts != m.starts[n] || gotStops != m.stops[n] {
			t.Fatalf("%s: shard %s started %d× stopped %d×, model says %d× and %d×",
				what, n, gotStarts, gotStops, m.starts[n], m.stops[n])
		}
		held := m.shards[n] != nil && m.shards[n].managed
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
