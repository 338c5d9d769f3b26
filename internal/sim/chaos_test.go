package sim

import (
	"strings"
	"testing"

	"jupiter/internal/faultnet"
	"jupiter/internal/list"
)

// chaosSchedule builds one nontrivial seeded fault schedule: probabilistic
// drop/dup/reorder/delay plus seed-placed partitions and crashes inside the
// generation horizon.
func chaosSchedule(seed int64, clients, opsPerClient int, crashes bool) *faultnet.Config {
	fc := &faultnet.Config{
		Seed:              seed,
		Drop:              0.05 + float64(seed%4)*0.05, // 5–20%
		Dup:               0.05 + float64(seed%3)*0.05, // 5–15%
		Reorder:           0.10,
		DelayMax:          4,
		RetransmitTimeout: 4,
	}
	horizon := ChaosHorizon(opsPerClient)
	fc.AddRandomPartitions(int(seed%3), clients, horizon)
	if crashes {
		fc.AddRandomCrashes(1+int(seed%2), clients, horizon)
	}
	return fc
}

// TestChaosProperty is the headline robustness claim: for 200+ seeded fault
// schedules (drop, duplication, reordering, delay, partitions, crashes in
// nontrivial ranges) over both CSS and CSCW, every run quiesces, all
// replicas converge to the identical document, and the recorded history
// satisfies the convergence and weak list specifications. runChaos verifies
// all of that internally — a nil error IS the property.
func TestChaosProperty(t *testing.T) {
	const seeds = 100 // ×2 protocols = 200 fault schedules
	for _, p := range []Protocol{CSS, CSCW} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				cfg := AsyncConfig{
					Clients:      3,
					OpsPerClient: 8,
					Seed:         seed,
					DeleteRatio:  0.3,
					Record:       true,
					Faults:       chaosSchedule(seed, 3, 8, true),
				}
				res, err := RunAsync(p, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Net == nil || res.Net.DataSent == 0 {
					t.Fatalf("seed %d: no session traffic recorded", seed)
				}
			}
		})
	}
}

// TestChaosExactlyOnceCounts: with no deletes, exactly-once delivery is
// countable — the converged document must contain exactly one element per
// generated operation, whatever the fault schedule did.
func TestChaosExactlyOnceCounts(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := AsyncConfig{
			Clients:      3,
			OpsPerClient: 6,
			Seed:         seed,
			DeleteRatio:  0,
			Faults:       chaosSchedule(seed, 3, 6, true),
		}
		res, err := RunAsync(CSS, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for name, doc := range res.Docs {
			if len(doc) != 18 {
				t.Fatalf("seed %d: %s holds %d elements, want 18 (lost or duplicated ops)", seed, name, len(doc))
			}
		}
	}
}

// TestChaosCrashRecoveryRoundTrip engineers a crash with unacknowledged
// operations: client 0 is partitioned (its ops cannot reach the server),
// crashes mid-partition, recovers from its css.Client.Save snapshot, and
// replays the unacked ops via session retransmission once the partition
// heals. The run must converge with zero lost operations.
func TestChaosCrashRecoveryRoundTrip(t *testing.T) {
	fc := &faultnet.Config{
		Seed:              77,
		RetransmitTimeout: 4,
		Partitions:        []faultnet.Partition{{Client: 0, From: 0, Until: 40}},
		Crashes:           []faultnet.Crash{{Client: 0, At: 10, RecoverAt: 25}},
	}
	cfg := AsyncConfig{
		Clients:      3,
		OpsPerClient: 5,
		Seed:         77,
		DeleteRatio:  0,
		Record:       true,
		Faults:       fc,
	}
	res, err := RunAsync(CSS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Retransmits == 0 {
		t.Fatal("crash+partition run saw no retransmissions")
	}
	for name, doc := range res.Docs {
		if len(doc) != 15 {
			t.Fatalf("%s holds %d elements, want 15: crashed client lost ops", name, len(doc))
		}
	}
}

// TestChaosLostStateRejoin: a crash that loses the persisted state retires
// the replica and rejoins a fresh client from a server snapshot
// (css.NewClientFromSnapshot). Unacknowledged ops of the dead replica are
// gone by contract; everyone that remains must still converge.
func TestChaosLostStateRejoin(t *testing.T) {
	fc := &faultnet.Config{
		Seed:              5,
		Drop:              0.1,
		RetransmitTimeout: 4,
		Crashes:           []faultnet.Crash{{Client: 1, At: 8, RecoverAt: 20, LostState: true}},
	}
	cfg := AsyncConfig{
		Clients:      3,
		OpsPerClient: 6,
		Seed:         5,
		DeleteRatio:  0.2,
		Record:       true,
		Faults:       fc,
	}
	res, err := RunAsync(CSS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, stale := res.Docs["c2"]; stale {
		t.Fatal("retired replica c2 still reported")
	}
	if _, joined := res.Docs["c4"]; !joined {
		t.Fatalf("rejoined replica c4 missing; docs: %v", keysOf(res.Docs))
	}
}

// TestChaosCrashReportsAgain: a client restored from its snapshot reports
// its whole processed set to the recorder at its next event, so the history
// sees updates it already saw; they must be taken once. These are the
// schedules of `jupitersim -protocol css -drop 0.2 -dup 0.1 -reorder 0.2
// -delay 4 -crash 1 -seed 1..5`, and each history must be well formed and
// pass both specifications (runChaos checks the latter).
func TestChaosCrashReportsAgain(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fc := &faultnet.Config{Seed: seed, Drop: 0.2, Dup: 0.1, Reorder: 0.2, DelayMax: 4}
		fc.AddRandomCrashes(1, 3, ChaosHorizon(20))
		if len(fc.Crashes) != 1 {
			t.Fatalf("seed %d: %d crashes scheduled, want 1", seed, len(fc.Crashes))
		}
		res, err := RunAsync(CSS, AsyncConfig{Clients: 3, OpsPerClient: 20, Seed: seed, DeleteRatio: 0.3, Record: true, Faults: fc})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.History.WellFormed(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestChaosNegativeControl: with receiver-side dedup disabled, a fault
// schedule that duplicates packets MUST break the harness — proving the
// chaos checks actually depend on the session layer.
func TestChaosNegativeControl(t *testing.T) {
	for _, p := range []Protocol{CSS, CSCW} {
		fc := &faultnet.Config{
			Seed:         21,
			Dup:          0.5,
			Reorder:      0.3,
			DelayMax:     3,
			DisableDedup: true,
		}
		cfg := AsyncConfig{
			Clients:      3,
			OpsPerClient: 8,
			Seed:         21,
			DeleteRatio:  0.2,
			Record:       true,
			Faults:       fc,
		}
		if _, err := RunAsync(p, cfg); err == nil {
			t.Fatalf("%s: dedup disabled under duplication faults, yet the chaos run passed", p)
		}
	}
}

// TestChaosPerfectNetwork: the zero fault config routes everything through
// sessions but injects nothing — no retransmissions, no duplicates, and the
// usual convergence.
func TestChaosPerfectNetwork(t *testing.T) {
	cfg := AsyncConfig{
		Clients:      3,
		OpsPerClient: 10,
		Seed:         3,
		DeleteRatio:  0,
		Record:       true,
		Faults:       &faultnet.Config{Seed: 3},
	}
	res, err := RunAsync(CSS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Net
	if st.Retransmits != 0 || st.Dropped != 0 || st.DupSuppressed != 0 {
		t.Fatalf("fault-free run reports overhead: %+v", *st)
	}
	for name, doc := range res.Docs {
		if len(doc) != 30 {
			t.Fatalf("%s holds %d elements, want 30", name, len(doc))
		}
	}
}

// TestChaosUnsupportedProtocol: the chaos runtime is for the
// session-oriented protocols only.
func TestChaosUnsupportedProtocol(t *testing.T) {
	_, err := RunAsync(RGA, AsyncConfig{Clients: 2, OpsPerClient: 2, Faults: &faultnet.Config{}})
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("want chaos-unsupported error, got %v", err)
	}
}

// TestChaosRejectsBadFaults: fault configs are validated up front.
func TestChaosRejectsBadFaults(t *testing.T) {
	_, err := RunAsync(CSS, AsyncConfig{Clients: 2, OpsPerClient: 2, Faults: &faultnet.Config{Drop: 1.5}})
	if err == nil {
		t.Fatal("want validation error")
	}
	_, err = RunAsync(CSS, AsyncConfig{Clients: 2, OpsPerClient: 2,
		Faults: &faultnet.Config{Crashes: []faultnet.Crash{{Client: 5, At: 1, RecoverAt: 2}}}})
	if err == nil {
		t.Fatal("want out-of-range crash client error")
	}
	// CSCW cannot rejoin from a snapshot (no late-join protocol).
	_, err = RunAsync(CSCW, AsyncConfig{Clients: 2, OpsPerClient: 2,
		Faults: &faultnet.Config{Crashes: []faultnet.Crash{{Client: 0, At: 1, RecoverAt: 2, LostState: true}}}})
	if err == nil {
		t.Fatal("want lost-state-unsupported error for cscw")
	}
}

// TestChaosDeterminism: the same (Seed, Faults) reproduces byte-identical
// final documents and identical fault counters.
func TestChaosDeterminism(t *testing.T) {
	run := func() *AsyncResult {
		cfg := AsyncConfig{
			Clients:      3,
			OpsPerClient: 8,
			Seed:         13,
			DeleteRatio:  0.3,
			Faults:       chaosSchedule(13, 3, 8, true),
		}
		res, err := RunAsync(CSS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if *r1.Net != *r2.Net || r1.Ticks != r2.Ticks {
		t.Fatalf("stats differ: %+v/%d vs %+v/%d", *r1.Net, r1.Ticks, *r2.Net, r2.Ticks)
	}
	for name, d1 := range r1.Docs {
		if list.Render(d1) != list.Render(r2.Docs[name]) {
			t.Fatalf("%s: %q vs %q", name, list.Render(d1), list.Render(r2.Docs[name]))
		}
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
