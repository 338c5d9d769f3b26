package dcss_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/dcss"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/spec"
	"jupiter/internal/statespace"
)

// TestBasicConvergence: three peers, three concurrent inserts, full mesh
// exchange — everyone converges and the histories satisfy convergence +
// weak.
func TestBasicConvergence(t *testing.T) {
	cl, err := dcss.NewCluster(3, nil, true, statespace.WithCP1Check())
	if err != nil {
		t.Fatal(err)
	}
	for i := opid.ClientID(1); i <= 3; i++ {
		if err := cl.GenerateIns(i, rune('a'+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.CheckConverged()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) != 3 {
		t.Fatalf("doc %q, want 3 elements", list.Render(doc))
	}
	for _, id := range cl.Peers() {
		cl.Read(id)
	}
	h := cl.History()
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := spec.CheckConvergence(h); err != nil {
		t.Error(err)
	}
	if err := spec.CheckWeak(h); err != nil {
		t.Error(err)
	}
}

// TestSharedSpaceAcrossPeers: Proposition 6.6 carries over to the
// distributed protocol — after quiescence all peers hold structurally
// identical n-ary ordered state-spaces.
func TestSharedSpaceAcrossPeers(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		cl, err := dcss.NewCluster(4, nil, false, statespace.WithCP1Check())
		if err != nil {
			t.Fatal(err)
		}
		if err := randomRun(cl, seed, 6); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var ref *statespace.Space
		for i, id := range cl.Peers() {
			p, _ := cl.Peer(id)
			sp := p.Space()
			if err := sp.CheckInvariants(4, sp.NumStates() <= 64); err != nil {
				t.Fatalf("seed %d peer %s: %v", seed, id, err)
			}
			if i == 0 {
				ref = sp
				continue
			}
			if sp.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("seed %d: peer %s space differs:\n%s\nvs\n%s",
					seed, id, sp.Render(), ref.Render())
			}
		}
		if _, err := cl.CheckConverged(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// randomRun drives a seeded random interleaving of generation and link
// deliveries, then quiesces.
func randomRun(cl *dcss.Cluster, seed int64, opsPerPeer int) error {
	r := rand.New(rand.NewSource(seed))
	ids := cl.Peers()
	remaining := make(map[opid.ClientID]int, len(ids))
	for _, id := range ids {
		remaining[id] = opsPerPeer
	}
	val := 0
	for {
		type action struct {
			gen      bool
			from, to opid.ClientID
		}
		var acts []action
		for _, from := range ids {
			if remaining[from] > 0 {
				acts = append(acts, action{gen: true, from: from})
			}
			for _, to := range ids {
				if from != to && cl.Pending(from, to) > 0 {
					acts = append(acts, action{from: from, to: to})
				}
			}
		}
		if len(acts) == 0 {
			break
		}
		a := acts[r.Intn(len(acts))]
		if a.gen {
			doc, err := cl.Document(a.from)
			if err != nil {
				return err
			}
			n := len(doc)
			if n > 0 && r.Float64() < 0.3 {
				if err := cl.GenerateDel(a.from, r.Intn(n)); err != nil {
					return err
				}
			} else {
				if err := cl.GenerateIns(a.from, rune('a'+val%26), r.Intn(n+1)); err != nil {
					return err
				}
				val++
			}
			remaining[a.from]--
			continue
		}
		if _, err := cl.Deliver(a.from, a.to); err != nil {
			return err
		}
	}
	return cl.Quiesce()
}

// TestRandomRunsSatisfySpecs: random distributed executions converge and
// satisfy the weak list specification.
func TestRandomRunsSatisfySpecs(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cl, err := dcss.NewCluster(3, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := randomRun(cl, seed, 7); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := cl.CheckConverged(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, id := range cl.Peers() {
			cl.Read(id)
		}
		h := cl.History()
		if err := h.WellFormed(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := spec.CheckConvergence(h); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := spec.CheckWeak(h); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestStabilityHoldsBackDelivery: a peer must not integrate a remote
// operation until every other peer has been heard from past its timestamp.
func TestStabilityHoldsBackDelivery(t *testing.T) {
	cl, err := dcss.NewCluster(3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Peer 1 generates; deliver its op to peer 2 only.
	if err := cl.GenerateIns(1, 'a', 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deliver(1, 2); err != nil {
		t.Fatal(err)
	}
	p2, _ := cl.Peer(2)
	// Peer 3 has not been heard from: the op must still be queued.
	if p2.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1 (op must await stability)", p2.QueueLen())
	}
	if got := list.Render(p2.Document()); got != "" {
		t.Fatalf("peer 2 applied an unstable op: %q", got)
	}
	// A flush from peer 3 releases it.
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deliver(3, 2); err != nil {
		t.Fatal(err)
	}
	if p2.QueueLen() != 0 {
		t.Fatalf("queue = %d after flush, want 0", p2.QueueLen())
	}
	if got := list.Render(p2.Document()); got != "a" {
		t.Fatalf("peer 2 doc = %q, want %q", got, "a")
	}
}

// TestOfflinePeerThenCatchUp: a peer that generates while partitioned
// catches up cleanly on reconnection.
func TestOfflinePeerThenCatchUp(t *testing.T) {
	cl, err := dcss.NewCluster(3, list.FromString("base", 100), true)
	if err != nil {
		t.Fatal(err)
	}
	// Peer 3 types while partitioned (its messages stay on the links).
	if err := cl.GenerateIns(3, '!', 4); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(3, '?', 5); err != nil {
		t.Fatal(err)
	}
	// Peers 1 and 2 edit and exchange between themselves.
	if err := cl.GenerateDel(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deliver(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(2, 'B', 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Deliver(2, 1); err != nil {
		t.Fatal(err)
	}
	// Reconnect everything.
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.CheckConverged()
	if err != nil {
		t.Fatal(err)
	}
	if got := list.Render(doc); got != "Base!?" {
		t.Fatalf("converged to %q, want %q", got, "Base!?")
	}
	for _, id := range cl.Peers() {
		cl.Read(id)
	}
	if err := spec.CheckWeak(cl.History()); err != nil {
		t.Error(err)
	}
}

func TestPeerErrors(t *testing.T) {
	cl, err := dcss.NewCluster(2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateDel(1, 0); err == nil {
		t.Error("delete from empty doc must error")
	}
	if err := cl.GenerateIns(9, 'x', 0); err == nil {
		t.Error("unknown peer must error")
	}
	if _, err := cl.Document(9); err == nil {
		t.Error("unknown peer must error")
	}
	if _, err := dcss.NewCluster(0, nil, false); err == nil {
		t.Error("zero peers must be rejected")
	}
}

// TestAsyncMesh runs the goroutine-per-peer mesh runtime and checks
// convergence, specs, and shared state-spaces. Run with -race.
func TestAsyncMesh(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res, err := dcss.RunAsync(dcss.AsyncConfig{
			Peers:       4,
			OpsPerPeer:  8,
			Seed:        seed,
			DeleteRatio: 0.3,
			Record:      true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var ref string
		for name, doc := range res.Docs {
			s := list.Render(doc)
			if ref == "" {
				ref = s
			} else if s != ref {
				t.Fatalf("seed %d: %s diverged: %q vs %q", seed, name, s, ref)
			}
		}
		if len(res.Docs) != 4 {
			t.Fatalf("docs = %d", len(res.Docs))
		}
		if err := res.History.WellFormed(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := spec.CheckWeak(res.History); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for name, states := range res.States {
			if states < 2 {
				t.Errorf("seed %d: %s space suspiciously small (%d)", seed, name, states)
			}
		}
	}
}

func TestAsyncMeshBadConfig(t *testing.T) {
	if _, err := dcss.RunAsync(dcss.AsyncConfig{Peers: 0}); err == nil {
		t.Error("zero peers must be rejected")
	}
}

// TestMeshGC interleaves editing, partial delivery, and per-peer
// compaction; the mesh still converges, and after quiescence the spaces
// shrink to near-nothing.
func TestMeshGC(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cl, err := dcss.NewCluster(3, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for round := 0; round < 12; round++ {
			for _, id := range cl.Peers() {
				doc, err := cl.Document(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(doc) > 0 && r.Float64() < 0.3 {
					if err := cl.GenerateDel(id, r.Intn(len(doc))); err != nil {
						t.Fatal(err)
					}
				} else if err := cl.GenerateIns(id, rune('a'+round%26), r.Intn(len(doc)+1)); err != nil {
					t.Fatal(err)
				}
			}
			// Random partial delivery.
			for _, from := range cl.Peers() {
				for _, to := range cl.Peers() {
					if from != to && r.Intn(2) == 0 {
						if _, err := cl.Deliver(from, to); err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
					}
				}
			}
			// Mid-run compaction at every peer.
			for _, id := range cl.Peers() {
				p, _ := cl.Peer(id)
				if _, err := p.MaybeCompact(); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			}
		}
		if err := cl.Quiesce(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := cl.CheckConverged(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// A final flush round spreads everyone's horizons; compaction then
		// collapses each space to (near) a single state.
		if err := cl.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Quiesce(); err != nil {
			t.Fatal(err)
		}
		for _, id := range cl.Peers() {
			p, _ := cl.Peer(id)
			before := p.Space().NumStates()
			if _, err := p.MaybeCompact(); err != nil {
				t.Fatalf("seed %d: final compact: %v", seed, err)
			}
			after := p.Space().NumStates()
			if after > before {
				t.Fatalf("seed %d: compaction grew the space", seed)
			}
			if after > 8 {
				t.Errorf("seed %d: peer %s retains %d states after full GC (was %d)", seed, id, after, before)
			}
		}
		// Editing continues after compaction.
		if err := cl.GenerateIns(1, 'Z', 0); err != nil {
			t.Fatal(err)
		}
		if err := cl.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.CheckConverged(); err != nil {
			t.Fatalf("seed %d: post-GC: %v", seed, err)
		}
	}
}

// meshHistory is a seeded three-peer run with a final read at every peer.
func meshHistory(t *testing.T) *core.History {
	t.Helper()
	cl, err := dcss.NewCluster(3, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := randomRun(cl, 3, 6); err != nil {
		t.Fatal(err)
	}
	for _, id := range cl.Peers() {
		cl.Read(id)
	}
	return cl.History()
}

// TestHistoryJSONGolden pins the mesh's history encoding: the run encodes to
// the bytes in testdata (every event with its whole visible set), and
// decoding and re-encoding them is the identity.
func TestHistoryJSONGolden(t *testing.T) {
	got, err := json.Marshal(meshHistory(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "history-dcss.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("encoding differs from testdata")
	}
	var back core.History
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(&back); err != nil || !bytes.Equal(again, want) {
		t.Errorf("decode then encode is not the identity (%v)", err)
	}
}
