package spec_test

import (
	"fmt"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/sim"
	"jupiter/internal/spec"
)

// benchHistories caches the recorded sim histories BenchmarkCheckers runs
// on: building the largest one takes longer than checking it.
var benchHistories = map[string]*core.History{}

func benchHistory(b *testing.B, p sim.Protocol, clients, ops int) *core.History {
	b.Helper()
	name := fmt.Sprintf("%s-%dx%d", p, clients, ops)
	if h, ok := benchHistories[name]; ok {
		return h
	}
	cl, err := sim.NewCluster(p, sim.Config{Clients: clients, Record: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.RunRandom(cl, sim.Workload{Seed: 7, OpsPerClient: ops, DeleteRatio: 0.3}, true); err != nil {
		b.Fatal(err)
	}
	benchHistories[name] = cl.History()
	return cl.History()
}

// BenchmarkCheckers measures the weak and strong checkers on dense sim
// histories (a read after every client step), delete ratio 0.3: CSCW 2 ×
// 1000 (8 003 events) and 4 × 500 (12 005 events), RGA 4 × 250. The strong
// specification may legitimately fail on a CSCW history (Theorem 8.1); the
// benchmark times the check either way. Every event holds its visible set
// explicitly, so memory, not time, bounds the history size.
func BenchmarkCheckers(b *testing.B) {
	for _, c := range []struct {
		p            sim.Protocol
		clients, ops int
	}{
		{sim.CSCW, 2, 1000},
		{sim.CSCW, 4, 500},
		{sim.RGA, 4, 250},
	} {
		for _, chk := range []struct {
			name string
			fn   func(*core.History) error
		}{
			{"weak", spec.CheckWeak},
			{"strong", spec.CheckStrong},
		} {
			b.Run(fmt.Sprintf("%s/%s-%dx%d", chk.name, c.p, c.clients, c.ops), func(b *testing.B) {
				h := benchHistory(b, c.p, c.clients, c.ops)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := chk.fn(h); err != nil && chk.name == "weak" {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(h.Len()), "events")
			})
		}
	}
}
