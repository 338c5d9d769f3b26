package sim_test

import (
	"strings"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/faultnet"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/sim"
	"jupiter/internal/spec"
)

// TestRandomRunsSatisfySpecs drives every correct protocol through seeded
// random workloads and checks convergence plus the specifications each is
// expected to satisfy: CSS/CSCW ⊨ convergence ∧ weak (Theorems 6.7, 8.2);
// RGA additionally ⊨ strong (Attiya et al.).
func TestRandomRunsSatisfySpecs(t *testing.T) {
	cases := []struct {
		p          sim.Protocol
		wantStrong bool
	}{
		{sim.CSS, false}, // strong MAY fail; checked separately in Figure 7
		{sim.CSCW, false},
		{sim.RGA, true},
		{sim.Logoot, true},
		{sim.TreeDoc, true},
		{sim.WOOT, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 8; seed++ {
			cl, err := sim.NewCluster(tc.p, sim.Config{Clients: 3, Record: true})
			if err != nil {
				t.Fatal(err)
			}
			w := sim.Workload{Seed: seed, OpsPerClient: 8, DeleteRatio: 0.3}
			if err := sim.RunRandom(cl, w, true); err != nil {
				t.Fatalf("%s seed %d: %v", tc.p, seed, err)
			}
			if _, err := sim.CheckConverged(cl); err != nil {
				t.Fatalf("%s seed %d: %v", tc.p, seed, err)
			}
			h := cl.History()
			if err := h.WellFormed(); err != nil {
				t.Fatalf("%s seed %d: %v", tc.p, seed, err)
			}
			if err := spec.CheckConvergence(h); err != nil {
				t.Errorf("%s seed %d: %v", tc.p, seed, err)
			}
			if err := spec.CheckWeak(h); err != nil {
				t.Errorf("%s seed %d: %v", tc.p, seed, err)
			}
			if tc.wantStrong {
				if err := spec.CheckStrong(h); err != nil {
					t.Errorf("%s seed %d: strong must hold for RGA: %v", tc.p, seed, err)
				}
			}
		}
	}
}

// TestProp66OnRandomRuns checks Proposition 6.6 over random CSS executions:
// after quiescence, all n+1 state-spaces are structurally identical.
func TestProp66OnRandomRuns(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cl, err := sim.NewCluster(sim.CSS, sim.Config{Clients: 4, Record: false})
		if err != nil {
			t.Fatal(err)
		}
		w := sim.Workload{Seed: seed, OpsPerClient: 6, DeleteRatio: 0.25}
		if err := sim.RunRandom(cl, w, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		spaces, ok := sim.SpacesOf(cl)
		if !ok {
			t.Fatal("not a css cluster")
		}
		ref := spaces[0].Fingerprint()
		refRender := spaces[0].Render()
		for i, sp := range spaces[1:] {
			if sp.Fingerprint() != ref {
				t.Fatalf("seed %d: space %d differs:\n%s\nvs server:\n%s",
					seed, i+1, sp.Render(), refRender)
			}
		}
		if err := spaces[0].CheckInvariants(4, spaces[0].NumStates() <= 80); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFigure8Broken reproduces Example 8.1 exactly with the incorrect
// protocol: C1 executes o1, o3{1}, o2{1,3} ending with "ayxc"; C2 executes
// o2, o3{2}, o1{2,3} ending with "axyc". Convergence and the weak list
// specification are both violated.
func TestFigure8Broken(t *testing.T) {
	initial := list.FromString("abc", 100)
	cl, err := sim.NewCluster(sim.Broken, sim.Config{Clients: 3, Initial: initial, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2, c3 := opid.ClientID(1), opid.ClientID(2), opid.ClientID(3)

	// o1 = Ins(x,2) at C1, o2 = Del(b,1) at C2, o3 = Ins(y,1) at C3 —
	// pairwise concurrent.
	if err := cl.GenerateIns(c1, 'x', 2); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateDel(c2, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(c3, 'y', 1); err != nil {
		t.Fatal(err)
	}

	// Relay in an order that delivers o3 before the opposite client's op:
	// C1 receives o3 then o2; C2 receives o3 then o1.
	if _, err := cl.DeliverToServer(c3); err != nil { // forwards o3 to c1, c2
		t.Fatal(err)
	}
	if _, err := cl.DeliverToClient(c1); err != nil { // c1 applies o3{1}
		t.Fatal(err)
	}
	if _, err := cl.DeliverToClient(c2); err != nil { // c2 applies o3{2}
		t.Fatal(err)
	}
	if _, err := cl.DeliverToServer(c1); err != nil { // forwards o1
		t.Fatal(err)
	}
	if _, err := cl.DeliverToServer(c2); err != nil { // forwards o2
		t.Fatal(err)
	}
	if err := sim.Quiesce(cl); err != nil {
		t.Fatal(err)
	}

	d1, err := cl.Document("c1")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cl.Document("c2")
	if err != nil {
		t.Fatal(err)
	}
	if got := list.Render(d1); got != "ayxc" {
		t.Fatalf("C1 final %q, want %q", got, "ayxc")
	}
	if got := list.Render(d2); got != "axyc" {
		t.Fatalf("C2 final %q, want %q", got, "axyc")
	}

	// Divergence is detected.
	if _, err := sim.CheckConverged(cl); err == nil {
		t.Fatal("divergence must be detected")
	}

	// Record the final views and check the specifications reject them.
	cl.Read(c1)
	cl.Read(c2)
	h := cl.History()
	if err := spec.CheckWeak(h); err == nil {
		t.Error("weak list specification must be violated (x and y reversed)")
	} else if v, ok := spec.AsViolation(err); !ok || v.Spec != spec.WeakList {
		t.Errorf("unexpected violation: %v", err)
	} else if !strings.Contains(v.Reason, "incompatible") {
		t.Errorf("want incompatibility reason, got %s", v.Reason)
	}
	if err := spec.CheckConvergence(h); err == nil {
		t.Error("convergence must be violated: both clients saw all three updates")
	}
}

// TestAsyncRuntime runs the goroutine/channel runtime for every supported
// protocol and checks convergence and the specifications. Run with -race to
// validate the concurrency claims.
func TestAsyncRuntime(t *testing.T) {
	for _, p := range []sim.Protocol{sim.CSS, sim.CSCW, sim.RGA, sim.Logoot, sim.TreeDoc, sim.WOOT} {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := sim.RunAsync(p, sim.AsyncConfig{
				Clients:      4,
				OpsPerClient: 10,
				Seed:         seed,
				DeleteRatio:  0.3,
				Record:       true,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", p, seed, err)
			}
			// All replicas converged.
			var ref []list.Elem
			var refName string
			for name, doc := range res.Docs {
				if ref == nil {
					ref, refName = doc, name
					continue
				}
				if !list.ElemsEqual(ref, doc) {
					t.Fatalf("%s seed %d: %s=%q vs %s=%q", p, seed,
						refName, list.Render(ref), name, list.Render(doc))
				}
			}
			if len(res.Docs) != 5 {
				t.Fatalf("%s: %d docs, want 5", p, len(res.Docs))
			}
			if err := res.History.WellFormed(); err != nil {
				t.Fatalf("%s seed %d: %v", p, seed, err)
			}
			if err := spec.CheckWeak(res.History); err != nil {
				t.Errorf("%s seed %d: %v", p, seed, err)
			}
			if len(res.Stats) == 0 {
				t.Errorf("%s: no stats", p)
			}
		}
	}
}

// TestAsyncUnsupported: the async runtime rejects the broken protocol and
// bad configs.
func TestAsyncUnsupported(t *testing.T) {
	if _, err := sim.RunAsync(sim.Broken, sim.AsyncConfig{Clients: 2, OpsPerClient: 1}); err == nil {
		t.Error("broken protocol must be rejected")
	}
	if _, err := sim.RunAsync(sim.CSS, sim.AsyncConfig{Clients: 0}); err == nil {
		t.Error("zero clients must be rejected")
	}
}

// TestClusterErrors exercises the error paths of the cluster API.
func TestClusterErrors(t *testing.T) {
	if _, err := sim.NewCluster(sim.CSS, sim.Config{Clients: 0}); err == nil {
		t.Error("zero clients must be rejected")
	}
	if _, err := sim.NewCluster("nope", sim.Config{Clients: 1}); err == nil {
		t.Error("unknown protocol must be rejected")
	}
	cl, err := sim.NewCluster(sim.CSS, sim.Config{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(9, 'x', 0); err == nil {
		t.Error("unknown client must be rejected")
	}
	if _, err := cl.Document("c9"); err == nil {
		t.Error("unknown replica must be rejected")
	}
	if ok, _ := cl.DeliverToClient(1); ok {
		t.Error("empty queue must report no delivery")
	}
	if ok, _ := cl.DeliverToServer(1); ok {
		t.Error("empty queue must report no delivery")
	}
}

// TestScheduleRunner exercises RunSchedule including its failure cases.
func TestScheduleRunner(t *testing.T) {
	cl, err := sim.NewCluster(sim.CSS, sim.Config{Clients: 2, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var sched core.Schedule
	sched = sched.Generate(1).Generate(2).
		ServerRecv(1).ServerRecv(2).
		ClientRecv(1).ClientRecv(1). // ack(o1) + broadcast(o2)
		ClientRecv(2).ClientRecv(2).
		Read(1).Read(2)
	ops := func(c opid.ClientID, k int) (bool, rune, int) {
		return true, rune('a' + int(c)), 0
	}
	if err := sim.RunSchedule(cl, sched, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CheckConverged(cl); err != nil {
		t.Fatal(err)
	}
	if got := cl.History().Len(); got != 4 {
		t.Errorf("history has %d events, want 4 (2 generates + 2 reads)", got)
	}
	// Delivering with an empty queue through a schedule is an error.
	var bad core.Schedule
	bad = bad.ClientRecv(1)
	if err := sim.RunSchedule(cl, bad, ops); err == nil {
		t.Error("empty delivery in schedule must fail")
	}
}

// TestWorkloadProfiles runs every position profile over every correct
// protocol: all converge and satisfy the weak list specification.
func TestWorkloadProfiles(t *testing.T) {
	profiles := []sim.Profile{sim.ProfileUniform, sim.ProfileAppend, sim.ProfileTyping, sim.ProfileHotspot}
	for _, p := range []sim.Protocol{sim.CSS, sim.CSCW, sim.RGA, sim.Logoot, sim.TreeDoc, sim.WOOT} {
		for _, prof := range profiles {
			cl, err := sim.NewCluster(p, sim.Config{Clients: 3, Record: true})
			if err != nil {
				t.Fatal(err)
			}
			w := sim.Workload{Seed: 11, OpsPerClient: 10, DeleteRatio: 0.3, Profile: prof}
			if err := sim.RunRandom(cl, w, false); err != nil {
				t.Fatalf("%s/%s: %v", p, prof, err)
			}
			if _, err := sim.CheckConverged(cl); err != nil {
				t.Fatalf("%s/%s: %v", p, prof, err)
			}
			if err := spec.CheckWeak(cl.History()); err != nil {
				t.Errorf("%s/%s: %v", p, prof, err)
			}
		}
	}
}

// TestAppendProfileShape: the append profile actually appends — with no
// deletes, the final document preserves generation order per client.
func TestAppendProfileShape(t *testing.T) {
	cl, err := sim.NewCluster(sim.CSS, sim.Config{Clients: 1, Record: false})
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Workload{Seed: 1, OpsPerClient: 10, DeleteRatio: 0, Profile: sim.ProfileAppend}
	if err := sim.RunRandom(cl, w, false); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.Document("c1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := list.Render(doc), "abcdefghij"; got != want {
		t.Fatalf("append profile produced %q, want %q", got, want)
	}
}

// TestStatsShapes: every protocol reports the metadata structures the E1
// experiment expects (2n for cscw, n+1 for the others, none for broken), and
// the goroutine and chaos runtimes report the same replicas and names, every
// structure that holds a state priced in bytes.
func TestStatsShapes(t *testing.T) {
	wantStats := map[sim.Protocol]int{
		sim.CSS:     4, // server + 3 clients
		sim.CSCW:    6, // 2n
		sim.RGA:     4,
		sim.Logoot:  4,
		sim.TreeDoc: 4,
		sim.WOOT:    4,
		sim.Broken:  0,
	}
	sameShape := func(p sim.Protocol, runtime string, got, want []sim.SpaceStat) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s %s: %d stats, the cluster reports %d", p, runtime, len(got), len(want))
			return
		}
		for k, s := range got {
			if s.Replica != want[k].Replica || s.Name != want[k].Name {
				t.Errorf("%s %s: stat %d is %s/%s, the cluster's is %s/%s", p, runtime, k, s.Replica, s.Name, want[k].Replica, want[k].Name)
			}
			if s.States > 0 && s.Bytes <= 0 {
				t.Errorf("%s %s: %s/%s holds %d states priced at %d bytes", p, runtime, s.Replica, s.Name, s.States, s.Bytes)
			}
		}
	}
	for p, want := range wantStats {
		cl, err := sim.NewCluster(p, sim.Config{Clients: 3})
		if err != nil {
			t.Fatal(err)
		}
		for c := opid.ClientID(1); c <= 3; c++ {
			if err := cl.GenerateIns(c, 'x', 0); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
		}
		if err := sim.Quiesce(cl); err != nil && p != sim.Broken {
			t.Fatalf("%s: %v", p, err)
		}
		stats := cl.Stats()
		if got := len(stats); got != want {
			t.Errorf("%s: %d stats, want %d", p, got, want)
		}
		sameShape(p, "cluster", stats, stats)
		// Queue-length accessors report empty after quiescence.
		for c := opid.ClientID(1); c <= 3; c++ {
			if cl.PendingToServer(c) != 0 || cl.PendingToClient(c) != 0 {
				t.Errorf("%s: queues not empty after quiesce", p)
			}
		}
		cl.ReadServer() // must not panic for any protocol (broken returns nil)

		if p == sim.Broken {
			continue // the goroutine runtime refuses the relay
		}
		cfg := sim.AsyncConfig{Clients: 3, OpsPerClient: 1}
		res, err := sim.RunAsync(p, cfg)
		if err != nil {
			t.Fatalf("%s async: %v", p, err)
		}
		sameShape(p, "async", res.Stats, stats)
		if p != sim.CSS && p != sim.CSCW {
			continue // the chaos runtime takes the session protocols only
		}
		cfg.Faults = &faultnet.Config{Seed: 1, Drop: 0.2, Dup: 0.1}
		if res, err = sim.RunAsync(p, cfg); err != nil {
			t.Fatalf("%s chaos: %v", p, err)
		}
		sameShape(p, "chaos", res.Stats, stats)
	}
}

// TestAdvanceFrontierNonCSS: the GC extension reports unsupported for other
// protocols.
func TestAdvanceFrontierNonCSS(t *testing.T) {
	for _, p := range []sim.Protocol{sim.CSCW, sim.RGA, sim.Logoot, sim.Broken} {
		cl, err := sim.NewCluster(p, sim.Config{Clients: 1})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := sim.AdvanceFrontier(cl)
		if err != nil || ok {
			t.Errorf("%s: AdvanceFrontier = %v, %v; want false, nil", p, ok, err)
		}
	}
}
