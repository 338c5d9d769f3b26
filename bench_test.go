// Benchmarks regenerating every figure of the paper plus the quantitative
// experiments E1–E9 of DESIGN.md. Run with:
//
//	go test -bench=. -benchmem .
//
// Figure benches (the paper has no tables; Figures 1–8 are its complete
// evaluation surface) re-execute each figure's scenario end to end; the
// experiment benches sweep protocols, cluster sizes, and workload sizes.
// Custom metrics: `states/op` and `edges/op` report retained state-space
// metadata per operation (experiments E1/E3).
package jupiter_test

import (
	"fmt"
	"math/rand"
	"testing"

	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"jupiter"
	"jupiter/internal/chaosproxy"
	netclient "jupiter/internal/client"
	"jupiter/internal/css"
	"jupiter/internal/dcss"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/server"
	"jupiter/internal/sim"
	"jupiter/internal/statespace"
)

func id(c int32, s uint64) opid.OpID {
	return opid.OpID{Client: opid.ClientID(c), Seq: s}
}

// ------------------------------------------------------------- figures ----

// BenchmarkFig1_OT measures a single OT commutative square: both transform
// directions of Figure 1's o1 = Ins(f,1), o2 = Del(e,5).
func BenchmarkFig1_OT(b *testing.B) {
	base := list.FromString("efecte", 100)
	e5, err := base.Get(5)
	if err != nil {
		b.Fatal(err)
	}
	o1 := ot.Ins('f', 1, id(1, 1))
	o2 := ot.Del(e5, 5, id(2, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p1, p2 := ot.TransformPair(o1, o2)
		if p1.Kind == ot.KindNop || p2.Pos != 6 {
			b.Fatal("bad transform")
		}
	}
}

// runFig2 executes the Figure 2 schedule (three pairwise-concurrent inserts,
// server order o1 ⇒ o2 ⇒ o3) on a fresh cluster of the given protocol.
func runFig2(b *testing.B, p jupiter.Protocol) {
	b.Helper()
	cl, err := jupiter.NewCluster(p, jupiter.Config{Clients: 3})
	if err != nil {
		b.Fatal(err)
	}
	for c := jupiter.ClientID(1); c <= 3; c++ {
		if err := cl.GenerateIns(c, rune('a'+c), 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := jupiter.Quiesce(cl); err != nil {
		b.Fatal(err)
	}
	if _, err := jupiter.CheckConverged(cl); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig2_Schedule measures the full Figure 2 schedule, per protocol.
func BenchmarkFig2_Schedule(b *testing.B) {
	for _, p := range []jupiter.Protocol{jupiter.CSS, jupiter.CSCW, jupiter.RGA} {
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runFig2(b, p)
			}
		})
	}
}

// BenchmarkFig3_LeftmostOT measures Algorithm 1 itself: integrating the
// late-arriving o3 into the prebuilt Figure 3 state-space (σ0 matching
// state, leftmost path of length 3).
func BenchmarkFig3_LeftmostOT(b *testing.B) {
	o1 := ot.Ins('a', 0, id(1, 1))
	o2 := ot.Ins('b', 0, id(2, 1))
	o4 := ot.Ins('d', 0, id(1, 2))
	o3 := ot.Ins('c', 0, id(3, 1))
	ctx12 := opid.NewSet(o1.ID, o2.ID)
	empty := opid.NewSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := statespace.New(nil)
		if _, err := s.Integrate(o1, empty, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Integrate(o2, empty, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Integrate(o4, ctx12, 4); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Integrate(o3, empty, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_CSSConstruction measures building Figure 4's shared space at
// all four replicas (the full protocol run), reporting the retained states.
func BenchmarkFig4_CSSConstruction(b *testing.B) {
	b.ReportAllocs()
	var states int
	for i := 0; i < b.N; i++ {
		cl, err := jupiter.NewCluster(jupiter.CSS, jupiter.Config{Clients: 3})
		if err != nil {
			b.Fatal(err)
		}
		for c := jupiter.ClientID(1); c <= 3; c++ {
			if err := cl.GenerateIns(c, rune('a'+c), 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := jupiter.Quiesce(cl); err != nil {
			b.Fatal(err)
		}
		states = cl.Stats()[0].States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkFig6_InvolvedSchedule measures the Figure 6 schedule (mixed
// causality: o1; o2→o3; o1→o4) under both Jupiter protocols.
func BenchmarkFig6_InvolvedSchedule(b *testing.B) {
	run := func(b *testing.B, p jupiter.Protocol) {
		cl, err := jupiter.NewCluster(p, jupiter.Config{Clients: 3})
		if err != nil {
			b.Fatal(err)
		}
		step := func(err error) {
			if err != nil {
				b.Fatal(err)
			}
		}
		step(cl.GenerateIns(1, 'a', 0))
		_, err = cl.DeliverToServer(1)
		step(err)
		_, err = cl.DeliverToClient(3)
		step(err)
		step(cl.GenerateIns(2, 'b', 0))
		step(cl.GenerateIns(2, 'c', 1))
		step(cl.GenerateIns(3, 'd', 1))
		step(jupiter.Quiesce(cl))
		if _, err := jupiter.CheckConverged(cl); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range []jupiter.Protocol{jupiter.CSS, jupiter.CSCW} {
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, p)
			}
		})
	}
}

// fig7History produces the Figure 7 history once (the counterexample run).
func fig7History(b *testing.B) *jupiter.History {
	b.Helper()
	cl, err := jupiter.NewCluster(jupiter.CSS, jupiter.Config{Clients: 3, Record: true})
	if err != nil {
		b.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	must(cl.GenerateIns(1, 'x', 0))
	must(jupiter.Quiesce(cl))
	must(cl.GenerateDel(1, 0))
	must(cl.GenerateIns(2, 'a', 0))
	must(cl.GenerateIns(3, 'b', 1))
	cl.Read(2)
	cl.Read(3)
	must(jupiter.Quiesce(cl))
	for _, c := range cl.Clients() {
		cl.Read(c)
	}
	return cl.History()
}

// BenchmarkFig7_StrongCheck measures detecting the strong-list violation in
// the Figure 7 history (the checker must find the (a,x),(x,b),(b,a) cycle).
func BenchmarkFig7_StrongCheck(b *testing.B) {
	h := fig7History(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := jupiter.CheckStrong(h); err == nil {
			b.Fatal("violation not detected")
		}
	}
}

// BenchmarkFig8_WeakCheck measures detecting the weak-list violation in the
// Figure 8 history from the incorrect protocol.
func BenchmarkFig8_WeakCheck(b *testing.B) {
	initial := jupiter.FromString("abc", 100)
	cl, err := jupiter.NewCluster(jupiter.Broken, jupiter.Config{Clients: 3, Initial: initial, Record: true})
	if err != nil {
		b.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	must(cl.GenerateIns(1, 'x', 2))
	must(cl.GenerateDel(2, 1))
	must(cl.GenerateIns(3, 'y', 1))
	_, err = cl.DeliverToServer(3)
	must(err)
	_, err = cl.DeliverToClient(1)
	must(err)
	_, err = cl.DeliverToClient(2)
	must(err)
	must(jupiter.Quiesce(cl))
	cl.Read(1)
	cl.Read(2)
	h := cl.History()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := jupiter.CheckWeak(h); err == nil {
			b.Fatal("violation not detected")
		}
	}
}

// --------------------------------------------------------- experiments ----

// BenchmarkE2_Throughput sweeps protocol × cluster size over a fixed
// per-client operation count, measuring whole-run wall time (generation,
// serialization, transformation, delivery).
func BenchmarkE2_Throughput(b *testing.B) {
	// CSS retains its full state-space (no GC here — that is E3), and the
	// space grows super-linearly with concurrency; 25 ops per client keeps
	// the largest CSS point to seconds while preserving the scaling shape.
	const opsPerClient = 25
	for _, p := range []jupiter.Protocol{jupiter.CSS, jupiter.CSCW, jupiter.RGA, jupiter.Logoot, jupiter.TreeDoc, jupiter.WOOT} {
		for _, n := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", p, n), func(b *testing.B) {
				b.ReportAllocs()
				var st []jupiter.SpaceStat
				for i := 0; i < b.N; i++ {
					cl, err := jupiter.NewCluster(p, jupiter.Config{Clients: n})
					if err != nil {
						b.Fatal(err)
					}
					w := jupiter.Workload{Seed: int64(i + 1), OpsPerClient: opsPerClient, DeleteRatio: 0.3}
					if err := jupiter.RunRandom(cl, w, false); err != nil {
						b.Fatal(err)
					}
					st = cl.Stats()
				}
				totalOps := float64(n * opsPerClient)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/totalOps/float64(b.N), "ns/op-applied")
				if len(st) > 0 {
					states := 0
					for _, s := range st {
						states += s.States
					}
					b.ReportMetric(float64(states)/totalOps, "states/op")
				}
			})
		}
	}
}

// BenchmarkE3_MetadataGC contrasts CSS metadata retention with and without
// the garbage-collection extension: same workload, frontier advanced every
// round vs never.
func BenchmarkE3_MetadataGC(b *testing.B) {
	const rounds, n = 20, 3
	run := func(b *testing.B, gcEvery int) {
		var retained int
		for i := 0; i < b.N; i++ {
			cl, err := jupiter.NewCluster(jupiter.CSS, jupiter.Config{Clients: n})
			if err != nil {
				b.Fatal(err)
			}
			for round := 0; round < rounds; round++ {
				for c := jupiter.ClientID(1); c <= n; c++ {
					doc, err := cl.Document(c.String())
					if err != nil {
						b.Fatal(err)
					}
					if err := cl.GenerateIns(c, rune('a'+round%26), len(doc)); err != nil {
						b.Fatal(err)
					}
				}
				if err := jupiter.Quiesce(cl); err != nil {
					b.Fatal(err)
				}
				if gcEvery > 0 && round%gcEvery == 0 {
					if _, err := jupiter.AdvanceFrontier(cl); err != nil {
						b.Fatal(err)
					}
					if err := jupiter.Quiesce(cl); err != nil {
						b.Fatal(err)
					}
				}
			}
			retained = 0
			for _, s := range cl.Stats() {
				retained += s.States
			}
		}
		b.ReportMetric(float64(retained), "retained-states")
	}
	b.Run("no-gc", func(b *testing.B) { run(b, 0) })
	b.Run("gc-every-round", func(b *testing.B) { run(b, 1) })
	b.Run("gc-every-5", func(b *testing.B) { run(b, 5) })
}

// BenchmarkE4_TransformSeq measures OT sequence transformation cost as a
// function of the concurrent-operation chain length k.
func BenchmarkE4_TransformSeq(b *testing.B) {
	for _, k := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			seq := make([]ot.Op, k)
			for i := range seq {
				seq[i] = ot.Ins(rune('a'+i%26), i, id(2, uint64(i+1)))
			}
			o := ot.Ins('Z', 0, id(1, 1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oL, _ := ot.TransformSeq(o, seq)
				if oL.Kind != ot.KindIns {
					b.Fatal("bad transform")
				}
			}
		})
	}
}

// benchHistory builds a recorded history of roughly the given event count
// under the given protocol.
func benchHistory(b *testing.B, p jupiter.Protocol, events int) *jupiter.History {
	b.Helper()
	cl, err := jupiter.NewCluster(p, jupiter.Config{Clients: 3, Record: true})
	if err != nil {
		b.Fatal(err)
	}
	w := jupiter.Workload{Seed: 7, OpsPerClient: events / 6, DeleteRatio: 0.3}
	if err := jupiter.RunRandom(cl, w, true); err != nil {
		b.Fatal(err)
	}
	return cl.History()
}

// BenchmarkE5_Checkers measures specification-checking cost vs history size.
// Convergence and the weak check run on CSS histories (both hold by
// Theorems 6.7/8.2); the strong check runs on RGA histories, which are the
// only ones guaranteed to satisfy it (a random Jupiter history may
// legitimately violate the strong specification — that is Theorem 8.1).
func BenchmarkE5_Checkers(b *testing.B) {
	for _, events := range []int{60, 240, 960} {
		hCSS := benchHistory(b, jupiter.CSS, events)
		hRGA := benchHistory(b, jupiter.RGA, events)
		checks := []struct {
			name string
			h    *jupiter.History
			fn   func(*jupiter.History) error
		}{
			{"convergence", hCSS, jupiter.CheckConvergence},
			{"weak", hCSS, jupiter.CheckWeak},
			{"strong", hRGA, jupiter.CheckStrong},
		}
		for _, c := range checks {
			b.Run(fmt.Sprintf("%s/events=%d", c.name, c.h.Len()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.fn(c.h); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE6_DocBackend is the document-backend ablation: random edits on
// the slice-backed vs treap-backed document across sizes, looking for the
// crossover.
func BenchmarkE6_DocBackend(b *testing.B) {
	for _, size := range []int{100, 1000, 10000, 100000} {
		for _, backend := range []string{"slice", "tree"} {
			b.Run(fmt.Sprintf("%s/size=%d", backend, size), func(b *testing.B) {
				var d list.Doc
				if backend == "slice" {
					d = list.NewDocument()
				} else {
					d = list.NewTreeDocument()
				}
				var seq uint64
				for i := 0; i < size; i++ {
					seq++
					if err := d.Insert(i, list.Elem{Val: 'x', ID: id(1, seq)}); err != nil {
						b.Fatal(err)
					}
				}
				r := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// One delete + one insert keeps the size stable.
					pos := r.Intn(d.Len())
					if _, err := d.Delete(pos, opid.OpID{}); err != nil {
						b.Fatal(err)
					}
					seq++
					if err := d.Insert(r.Intn(d.Len()+1), list.Elem{Val: 'y', ID: id(1, seq)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE1_SpaceIdentity measures the Proposition 6.6 check itself:
// fingerprinting all n+1 spaces of a quiesced CSS run and verifying they
// agree (the "single shared space" property).
func BenchmarkE1_SpaceIdentity(b *testing.B) {
	cl, err := jupiter.NewCluster(jupiter.CSS, jupiter.Config{Clients: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := jupiter.RunRandom(cl, jupiter.Workload{Seed: 3, OpsPerClient: 20, DeleteRatio: 0.3}, false); err != nil {
		b.Fatal(err)
	}
	spaces, ok := sim.SpacesOf(cl)
	if !ok {
		b.Fatal("not css")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := spaces[0].Fingerprint()
		for _, sp := range spaces[1:] {
			if sp.Fingerprint() != ref {
				b.Fatal("Proposition 6.6 violated")
			}
		}
	}
}

// BenchmarkAsyncRuntime measures the goroutine/channel runtime end to end.
func BenchmarkAsyncRuntime(b *testing.B) {
	for _, p := range []jupiter.Protocol{jupiter.CSS, jupiter.CSCW, jupiter.RGA, jupiter.Logoot} {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := jupiter.RunAsync(p, jupiter.AsyncConfig{
					Clients:      4,
					OpsPerClient: 25,
					Seed:         int64(i + 1),
					DeleteRatio:  0.3,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_DistributedCSS measures the server-less CSS variant (the
// paper's future-work extension): a full mesh of peers ordering operations
// with Lamport timestamps + stability, same state-space machinery.
func BenchmarkE7_DistributedCSS(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			const opsPerPeer = 15
			var states int
			for i := 0; i < b.N; i++ {
				cl, err := dcss.NewCluster(n, nil, false)
				if err != nil {
					b.Fatal(err)
				}
				r := rand.New(rand.NewSource(int64(i + 1)))
				for k := 0; k < opsPerPeer; k++ {
					for _, id := range cl.Peers() {
						doc, err := cl.Document(id)
						if err != nil {
							b.Fatal(err)
						}
						if err := cl.GenerateIns(id, rune('a'+k%26), r.Intn(len(doc)+1)); err != nil {
							b.Fatal(err)
						}
					}
					// Deliver a random subset each round to keep concurrency up.
					for _, from := range cl.Peers() {
						for _, to := range cl.Peers() {
							if from != to && r.Intn(2) == 0 {
								if _, err := cl.Deliver(from, to); err != nil {
									b.Fatal(err)
								}
							}
						}
					}
				}
				if err := cl.Quiesce(); err != nil {
					b.Fatal(err)
				}
				if _, err := cl.CheckConverged(); err != nil {
					b.Fatal(err)
				}
				p, _ := cl.Peer(1)
				states = p.Space().NumStates()
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkAblation_PriorityOrientation reruns the Figure 2 scenario with
// both insert tie-break orientations, checking convergence is insensitive
// to the choice (DESIGN.md ablation): the winner merely flips which order
// ties land in, never whether replicas agree.
func BenchmarkAblation_PriorityOrientation(b *testing.B) {
	base := list.NewDocument()
	for _, orient := range []string{"higher-wins", "lower-wins"} {
		b.Run(orient, func(b *testing.B) {
			flip := orient == "lower-wins"
			for i := 0; i < b.N; i++ {
				o1 := ot.Ins('a', 0, id(1, 1))
				o2 := ot.Ins('b', 0, id(2, 1))
				if flip {
					o1.Pri, o2.Pri = -o1.Pri, -o2.Pri
				}
				if err := ot.CheckCP1(base, o1, o2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_ContextWireSize contrasts the two CSS wire formats: explicit
// operation-ID-set contexts (theory-faithful) vs the two-counter compact
// encoding (production Jupiter). The custom metric reports the cumulative
// context payload in 8-byte words per protocol run; behavior is identical
// (verified by TestCompactContextsEquivalent).
func BenchmarkE8_ContextWireSize(b *testing.B) {
	const clients, rounds = 4, 30
	run := func(b *testing.B, compact bool) {
		var words int
		for i := 0; i < b.N; i++ {
			srv := css.NewServer(clientIDs(clients), nil, nil)
			var cls []*css.Client
			for _, id := range clientIDs(clients) {
				cl := css.NewClient(id, nil, nil)
				if compact {
					cl.UseCompactContexts()
				}
				cls = append(cls, cl)
			}
			if compact {
				srv.UseCompactContexts()
			}
			words = 0
			for round := 0; round < rounds; round++ {
				for k, cl := range cls {
					msg, err := cl.GenerateIns(rune('a'+round%26), len(cl.Document())/2)
					if err != nil {
						b.Fatal(err)
					}
					words += ctxWords(msg.Ctx, msg.Compact != nil)
					outs, err := srv.Receive(msg)
					if err != nil {
						b.Fatal(err)
					}
					for _, out := range outs {
						if out.Msg.Kind == css.MsgBroadcast {
							words += ctxWords(out.Msg.Ctx, out.Msg.Compact != nil)
						}
						if err := cls[out.To-1].Receive(out.Msg); err != nil {
							b.Fatal(err)
						}
					}
					_ = k
				}
			}
		}
		b.ReportMetric(float64(words), "ctx-words")
	}
	b.Run("explicit", func(b *testing.B) { run(b, false) })
	b.Run("compact", func(b *testing.B) { run(b, true) })
}

// ctxWords models the wire cost of a context in 8-byte words.
func ctxWords(ctx opid.Set, compact bool) int {
	if compact {
		return 3 // origin + remote-count + own-seq
	}
	return 2 * len(ctx) // (client, seq) per id
}

// clientIDs returns 1..n.
func clientIDs(n int) []opid.ClientID {
	out := make([]opid.ClientID, n)
	for i := range out {
		out[i] = opid.ClientID(i + 1)
	}
	return out
}

// BenchmarkE9_WorkloadProfiles contrasts position profiles under the CSS
// protocol: metadata growth depends on CONCURRENCY, not positions, so
// states/op should be stable across profiles while transform work varies.
func BenchmarkE9_WorkloadProfiles(b *testing.B) {
	profiles := []sim.Profile{sim.ProfileUniform, sim.ProfileAppend, sim.ProfileTyping, sim.ProfileHotspot}
	for _, prof := range profiles {
		b.Run(string(prof), func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				cl, err := jupiter.NewCluster(jupiter.CSS, jupiter.Config{Clients: 4})
				if err != nil {
					b.Fatal(err)
				}
				w := jupiter.Workload{Seed: int64(i + 1), OpsPerClient: 20, DeleteRatio: 0.3, Profile: prof}
				if err := jupiter.RunRandom(cl, w, false); err != nil {
					b.Fatal(err)
				}
				states = 0
				for _, s := range cl.Stats() {
					states += s.States
				}
			}
			b.ReportMetric(float64(states)/80, "states/op")
		})
	}
}

// e11Chain builds a state-space holding a purely sequential history of depth
// ops (every operation generated with full knowledge of its predecessors —
// the shape a server or an always-caught-up client sees), returning the
// space and the final context set.
func e11Chain(b *testing.B, ops int) (*statespace.Space, opid.Set) {
	b.Helper()
	s := statespace.New(nil)
	ctx := opid.NewSet()
	for i := 1; i <= ops; i++ {
		op := ot.Ins(rune('a'+i%26), 0, id(1, uint64(i)))
		if _, err := s.Integrate(op, ctx, statespace.OrderKey(i)); err != nil {
			b.Fatal(err)
		}
		ctx = ctx.Add(op.ID)
	}
	return s, ctx
}

// BenchmarkE11_HotPath measures the Algorithm 1 hot path as a function of
// history length (E11, EXPERIMENTS.md): the per-Integrate cost of state
// lookup, state creation, and ladder extension at histories of 100 and 1000
// operations. Each timed iteration integrates a burst of fresh operations
// into a prebuilt space (rebuilt outside the timer), so ns/op and allocs/op
// are per e11Burst integrations.
//
//   - integrate/seq: the integrated operation's context is the full history
//     (empty ladder) — isolates context lookup + state creation.
//   - integrate/ladder=8: the context is 8 operations behind the final
//     state, so every integration transforms along an 8-rung ladder —
//     isolates the per-rung state-identity cost.
//
// The cluster/* sub-benchmarks measure the same effect end to end for the
// three state-space protocols (CSS, CSCW for contrast, distributed CSS):
// whole-run wall time over 4 replicas × 250 ops, reported per applied op.
func BenchmarkE11_HotPath(b *testing.B) {
	const e11Burst = 64
	for _, hist := range []int{100, 1000} {
		b.Run(fmt.Sprintf("integrate/seq/hist=%d", hist), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, ctx := e11Chain(b, hist)
				ops := make([]ot.Op, e11Burst)
				ctxs := make([]opid.Set, e11Burst)
				for j := range ops {
					ops[j] = ot.Ins('x', 0, id(1, uint64(hist+j+1)))
					ctxs[j] = ctx
					ctx = ctx.Add(ops[j].ID)
				}
				b.StartTimer()
				for j := range ops {
					if _, err := s.Integrate(ops[j], ctxs[j], statespace.OrderKey(hist+j+1)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*e11Burst), "ns/integrate")
		})
		b.Run(fmt.Sprintf("integrate/ladder=8/hist=%d", hist), func(b *testing.B) {
			const lag = 8
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, full := e11Chain(b, hist)
				// Client 2 integrates while lag operations behind the final
				// state: its context is the history minus the last lag ops of
				// client 1, plus its own previous operations.
				ctx := opid.NewSet()
				for k := range full {
					if k.Seq <= uint64(hist-lag) {
						ctx = ctx.Add(k)
					}
				}
				ops := make([]ot.Op, e11Burst)
				ctxs := make([]opid.Set, e11Burst)
				for j := range ops {
					ops[j] = ot.Ins('y', 0, id(2, uint64(j+1)))
					ctxs[j] = ctx
					ctx = ctx.Add(ops[j].ID)
				}
				b.StartTimer()
				for j := range ops {
					if _, err := s.Integrate(ops[j], ctxs[j], statespace.OrderKey(hist+j+1)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*e11Burst), "ns/integrate")
		})
	}

	const clients, opsPerClient = 4, 250
	for _, p := range []jupiter.Protocol{jupiter.CSS, jupiter.CSCW} {
		b.Run(fmt.Sprintf("cluster/%s/ops=%d", p, clients*opsPerClient), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := jupiter.NewCluster(p, jupiter.Config{Clients: clients})
				if err != nil {
					b.Fatal(err)
				}
				w := jupiter.Workload{Seed: int64(i + 1), OpsPerClient: opsPerClient, DeleteRatio: 0.3}
				if err := jupiter.RunRandom(cl, w, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clients*opsPerClient), "ns/op-applied")
		})
	}
	b.Run(fmt.Sprintf("cluster/dcss/ops=%d", clients*opsPerClient), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl, err := dcss.NewCluster(clients, nil, false)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(i + 1)))
			for k := 0; k < opsPerClient; k++ {
				for _, pid := range cl.Peers() {
					doc, err := cl.Document(pid)
					if err != nil {
						b.Fatal(err)
					}
					if err := cl.GenerateIns(pid, rune('a'+k%26), r.Intn(len(doc)+1)); err != nil {
						b.Fatal(err)
					}
				}
				for _, from := range cl.Peers() {
					for _, to := range cl.Peers() {
						if from != to {
							if _, err := cl.Deliver(from, to); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
			if err := cl.Quiesce(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clients*opsPerClient), "ns/op-applied")
	})
}

// BenchmarkE10_ChaosLossSweep measures the cost of running CSS over the
// unreliable-network runtime at increasing packet-loss rates (E10,
// EXPERIMENTS.md): end-to-end run time plus the session layer's overhead in
// retransmissions per generated operation. Drop 0 routes everything through
// sessions but injects nothing, isolating the session-layer baseline.
func BenchmarkE10_ChaosLossSweep(b *testing.B) {
	const clients, ops = 3, 20
	for _, loss := range []float64{0, 0.01, 0.05, 0.20} {
		b.Run(fmt.Sprintf("drop=%.0f%%", loss*100), func(b *testing.B) {
			b.ReportAllocs()
			var retrans, ticks float64
			for i := 0; i < b.N; i++ {
				res, err := jupiter.RunAsync(jupiter.CSS, jupiter.AsyncConfig{
					Clients:      clients,
					OpsPerClient: ops,
					Seed:         int64(i + 1),
					DeleteRatio:  0.3,
					Faults: &jupiter.FaultConfig{
						Seed:     int64(i + 1),
						Drop:     loss,
						DelayMax: 2,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				retrans += float64(res.Net.Retransmits)
				ticks += float64(res.Ticks)
			}
			n := float64(b.N)
			b.ReportMetric(retrans/n/(clients*ops), "retransmits/op")
			b.ReportMetric(ticks/n, "ticks/run")
		})
	}
}

// BenchmarkE12_LoopbackTCP measures the real network runtime end to end
// (E12, EXPERIMENTS.md): jupiterd serving on the loopback interface with
// 1/4/16 TCP clients generating a random workload, timed from first insert
// to every replica having processed every serialized operation. The
// inproc/* sub-benchmarks run the identical workload through the in-process
// goroutine runtime (sim.RunAsync) as the no-network baseline, so the pair
// isolates what the wire codec, kernel sockets, and per-client frame
// bookkeeping cost per applied operation.
//
// The metrics endpoint is probed live during each net/* sub-benchmark: the
// bench fails if jupiterd stops serving counters while under load.
func BenchmarkE12_LoopbackTCP(b *testing.B) {
	const opsEach = 25
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("net/clients=%d", n), func(b *testing.B) {
			eng := server.New(server.Config{Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0"})
			if err := eng.Start(); err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = eng.Shutdown(ctx)
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				doc := fmt.Sprintf("e12-%d-%d", n, i)
				cs := make([]*netclient.Client, n)
				for j := range cs {
					c, err := netclient.Dial(netclient.Config{Addr: eng.Addr(), Doc: doc, Seed: int64(j + 1)})
					if err != nil {
						b.Fatal(err)
					}
					cs[j] = c
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for j, c := range cs {
					wg.Add(1)
					go func(j int, c *netclient.Client) {
						defer wg.Done()
						r := rand.New(rand.NewSource(int64(i*1000 + j + 1)))
						for k := 0; k < opsEach; k++ {
							doc := c.Document()
							if len(doc) > 0 && r.Float64() < 0.3 {
								if err := c.Delete(r.Intn(len(doc))); err != nil {
									b.Error(err)
									return
								}
							} else {
								if err := c.Insert(rune('a'+k%26), r.Intn(len(doc)+1)); err != nil {
									b.Error(err)
									return
								}
							}
						}
					}(j, c)
				}
				wg.Wait()
				for _, c := range cs {
					if err := c.WaitServerSeq(ctx, uint64(n*opsEach)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if i == 0 {
					// Live metrics probe while the engine is under bench load.
					resp, err := http.Get("http://" + eng.MetricsAddr() + "/")
					if err != nil {
						b.Fatalf("metrics endpoint down during bench: %v", err)
					}
					var m map[string]any
					if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
						b.Fatalf("metrics decode: %v", err)
					}
					resp.Body.Close()
					if m["ops_applied"].(float64) < float64(n*opsEach) {
						b.Fatalf("metrics ops_applied = %v, want >= %d", m["ops_applied"], n*opsEach)
					}
					b.Logf("live metrics: ops_applied=%v resumes=%v backpressure_disconnects=%v apply_latency=%v",
						m["ops_applied"], m["resumes_total"], m["backpressure_disconnects_total"], m["apply_latency"])
				}
				for _, c := range cs {
					_ = c.Close()
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*opsEach), "ns/op-applied")
		})
		b.Run(fmt.Sprintf("inproc/clients=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jupiter.RunAsync(jupiter.CSS, jupiter.AsyncConfig{
					Clients:      n,
					OpsPerClient: opsEach,
					Seed:         int64(i + 1),
					DeleteRatio:  0.3,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*opsEach), "ns/op-applied")
		})
	}
}

// BenchmarkE13_SocketLossSweep is E10 rebuilt over real sockets (E13,
// EXPERIMENTS.md): jupiterd on loopback behind the fault-injecting TCP
// proxy (internal/chaosproxy), three clients generating the E10 workload
// while the proxy drops the configured fraction of frames in both
// directions. Recovery is the protocol's own: dropped server→client frames
// trip the client's frame-gap detection, dropped client→server frames trip
// the server's op-sequence guard, and each forces a reconnect that replays
// from the retained outbox and resend buffer. After the edit phase the
// proxy heals (cutting every live link, the worst-case reconnect), and the
// clock stops when every replica has processed every serialized operation.
// ns/op-applied is therefore the delivered cost per operation including all
// retransmission and resume overhead at that loss rate.
func BenchmarkE13_SocketLossSweep(b *testing.B) {
	const clients, opsEach = 3, 20
	for _, loss := range []float64{0, 0.01, 0.05, 0.20} {
		b.Run(fmt.Sprintf("drop=%.0f%%", loss*100), func(b *testing.B) {
			eng := server.New(server.Config{Addr: "127.0.0.1:0"})
			if err := eng.Start(); err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = eng.Shutdown(ctx)
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			b.ReportAllocs()
			var links float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := chaosproxy.New(chaosproxy.Config{
					Listen:   "127.0.0.1:0",
					Upstream: eng.Addr(),
					Schedule: chaosproxy.Schedule{Seed: int64(i + 1), Drop: loss},
				})
				if err != nil {
					b.Fatal(err)
				}
				doc := fmt.Sprintf("e13-%.0f-%d", loss*100, i)
				cs := make([]*netclient.Client, clients)
				for j := range cs {
					c, err := netclient.Dial(netclient.Config{
						Addr:       p.Addr(),
						Doc:        doc,
						Seed:       int64(j + 1),
						MinBackoff: 2 * time.Millisecond,
						MaxBackoff: 50 * time.Millisecond,
					})
					if err != nil {
						b.Fatal(err)
					}
					cs[j] = c
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for j, c := range cs {
					wg.Add(1)
					go func(j int, c *netclient.Client) {
						defer wg.Done()
						r := rand.New(rand.NewSource(int64(i*1000 + j + 1)))
						for k := 0; k < opsEach; k++ {
							doc := c.Document()
							if len(doc) > 0 && r.Float64() < 0.3 {
								if err := c.Delete(r.Intn(len(doc))); err != nil {
									b.Error(err)
									return
								}
							} else {
								if err := c.Insert(rune('a'+k%26), r.Intn(len(doc)+1)); err != nil {
									b.Error(err)
									return
								}
							}
							// Pace the edits so frames are in flight while the
							// proxy is dropping: an unpaced burst finishes
							// before the first loss is even detectable.
							time.Sleep(200 * time.Microsecond)
						}
					}(j, c)
				}
				wg.Wait()
				// Stop injecting and cut every link: the final reconnect
				// replays whatever the drops ate, so the barrier terminates
				// at any loss rate.
				p.Heal()
				for _, c := range cs {
					if err := c.Sync(ctx); err != nil {
						b.Fatal(err)
					}
					if err := c.WaitServerSeq(ctx, uint64(clients*opsEach)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				links += float64(p.Stats().Links)
				for _, c := range cs {
					_ = c.Close()
				}
				_ = p.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clients*opsEach), "ns/op-applied")
			b.ReportMetric(links/float64(b.N), "links/run")
		})
	}
}
