package sim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/faultnet"
	"jupiter/internal/sim"
)

// goldenHistories records one seeded history per protocol of the
// deterministic cluster, plus a CSS chaos run whose crashed client is
// restored from its snapshot and so reports its whole processed set again.
func goldenHistories(t *testing.T) map[string]*core.History {
	t.Helper()
	out := make(map[string]*core.History)
	for _, p := range []sim.Protocol{sim.CSS, sim.CSCW, sim.RGA, sim.Logoot, sim.TreeDoc, sim.WOOT, sim.Broken} {
		cl, err := sim.NewCluster(p, sim.Config{Clients: 3, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunRandom(cl, sim.Workload{Seed: 3, OpsPerClient: 6, DeleteRatio: 0.3}, true); err != nil && p != sim.Broken {
			t.Fatalf("%s: %v", p, err)
		}
		out[string(p)] = cl.History()
	}
	fc := &faultnet.Config{Seed: 1, Drop: 0.2, Dup: 0.1, Reorder: 0.2, DelayMax: 4}
	fc.AddRandomCrashes(1, 3, sim.ChaosHorizon(6))
	res, err := sim.RunAsync(sim.CSS, sim.AsyncConfig{Clients: 3, OpsPerClient: 6, Seed: 1, DeleteRatio: 0.3, Record: true, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	out["css-chaos-crash"] = res.History
	return out
}

// TestHistoryJSONGolden pins the history JSON format: every event carries
// its whole visible set, whatever form the history keeps in memory, so each
// run encodes to the bytes in testdata, and decoding and re-encoding those
// bytes is the identity.
func TestHistoryJSONGolden(t *testing.T) {
	for name, h := range goldenHistories(t) {
		got, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "history-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding differs from testdata", name)
		}
		var back core.History
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decode then encode is not the identity", name)
		}
		if err := back.WellFormed(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
