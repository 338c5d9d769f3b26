package sim_test

import (
	"runtime"
	"testing"

	"jupiter/internal/sim"
)

// TestByteSizeTracksHeap: Space.ByteSize is what the heap holds for a
// state-space. Over a CSS run the heap grows by the n+1 spaces plus small
// change (documents, order logs, queues), so the spaces' ByteSize must come
// within 30 % of the growth.
func TestByteSizeTracksHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cl, err := sim.NewCluster(sim.CSS, sim.Config{Clients: 3, CompactContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunRandom(cl, sim.Workload{Seed: 1, OpsPerClient: 100, DeleteRatio: 0.2}, false); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	spaces, _ := sim.SpacesOf(cl)
	model, states := 0, 0
	for _, sp := range spaces {
		model += sp.ByteSize()
		states += sp.NumStates()
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(model) / float64(grown)
	t.Logf("%d states: ByteSize %d B, heap grew %d B (ratio %.2f, %.0f B per state)", states, model, grown, ratio, float64(grown)/float64(states))
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("ByteSize says %d B where the heap grew %d B (ratio %.2f), want within 30 %%", model, grown, ratio)
	}
	runtime.KeepAlive(cl)
}
