package spec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/css"
	"jupiter/internal/opid"
	"jupiter/internal/sim"
	"jupiter/internal/spec"
)

// benchHistories caches the recorded histories BenchmarkCheckers runs on:
// building the largest one takes longer than checking it.
var benchHistories = map[string]*core.History{}

func benchHistory(b *testing.B, name string, build func(testing.TB) *core.History) *core.History {
	b.Helper()
	if h, ok := benchHistories[name]; ok {
		return h
	}
	h := build(b)
	benchHistories[name] = h
	return h
}

// simHistory records a dense sim history: a read after every client step,
// delete ratio 0.3.
func simHistory(p sim.Protocol, clients, ops int) func(testing.TB) *core.History {
	return func(tb testing.TB) *core.History {
		cl, err := sim.NewCluster(p, sim.Config{Clients: clients, Record: true})
		if err != nil {
			tb.Fatal(err)
		}
		if err := sim.RunRandom(cl, sim.Workload{Seed: 7, OpsPerClient: ops, DeleteRatio: 0.3}, true); err != nil {
			tb.Fatal(err)
		}
		return cl.History()
	}
}

// singleWriter drives what one document of the long-doc benchmark records:
// a compact-context CSS client writes ops operations (30 % deletes) through
// the server, which acknowledges each at once, and then reads: ops + 1
// events at the client. The server records nothing (it records only reads).
func singleWriter(tb testing.TB, ops int, rec core.Recorder) {
	srv := css.NewServer([]opid.ClientID{1}, nil, nil)
	srv.UseCompactContexts()
	c := css.NewClient(1, nil, rec)
	c.UseCompactContexts()
	r := rand.New(rand.NewSource(1))
	for k := 0; k < ops; k++ {
		var m css.ClientMsg
		var err error
		if n := c.DocLen(); n > 0 && r.Intn(10) < 3 {
			m, err = c.GenerateDel(r.Intn(n))
		} else {
			m, err = c.GenerateIns(rune('a'+k%26), r.Intn(n+1))
		}
		if err != nil {
			tb.Fatal(err)
		}
		out, err := srv.Receive(m)
		if err != nil {
			tb.Fatal(err)
		}
		for _, a := range out {
			if err := c.Receive(a.Msg); err != nil {
				tb.Fatal(err)
			}
		}
	}
	c.Read()
}

func singleWriterHistory(tb testing.TB) *core.History {
	h := &core.History{}
	singleWriter(tb, 2000, h)
	return h
}

// BenchmarkCheckers measures WellFormed and the three checkers on a
// long-doc document's history (one CSS writer, 2 000 operations, 2 001
// events) and on dense sim histories: CSCW 2 × 1000 (8 003 events) and
// 4 × 500 (12 005 events), RGA 4 × 250. The strong specification may
// legitimately fail on a CSS or CSCW history (Theorem 8.1); the benchmark
// times the check either way.
func BenchmarkCheckers(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func(testing.TB) *core.History
	}{
		{"css-1x2000", singleWriterHistory},
		{"cscw-2x1000", simHistory(sim.CSCW, 2, 1000)},
		{"cscw-4x500", simHistory(sim.CSCW, 4, 500)},
		{"rga-4x250", simHistory(sim.RGA, 4, 250)},
	} {
		for _, chk := range []struct {
			name string
			fn   func(*core.History) error
		}{
			{"wellformed", (*core.History).WellFormed},
			{"convergence", spec.CheckConvergence},
			{"weak", spec.CheckWeak},
			{"strong", spec.CheckStrong},
		} {
			b.Run(fmt.Sprintf("%s/%s", chk.name, c.name), func(b *testing.B) {
				h := benchHistory(b, c.name, c.build)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := chk.fn(h); err != nil && chk.name != "strong" {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(h.Len()), "events")
			})
		}
	}
}

// BenchmarkRecord measures what recording costs one writer: the
// single-writer run of BenchmarkCheckers (2 000 operations and a read),
// without a recorder and into a core.History. The difference per op is
// the recording overhead a long-doc warm-up round pays.
func BenchmarkRecord(b *testing.B) {
	for _, rec := range []bool{false, true} {
		name := "off"
		if rec {
			name = "history"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var r core.Recorder
				if rec {
					r = &core.History{}
				}
				singleWriter(b, 2000, r)
			}
		})
	}
}
