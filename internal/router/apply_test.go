package router

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"testing"

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
	if _, err := r.DrainShard("s1"); err != nil {
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
	r, _, ts := mockRouter(t, Config{Replicas: 2}, "s0", "s1", "s2")

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
