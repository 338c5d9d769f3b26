package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the parent's
// median by which an end-to-end metric may get worse; per-layer metrics have
// none.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEnd is what a user of the system would see, the same six on every
// workload. The two that count bytes repeat to a few percent and are bounded
// tightly. The three that take time sit at the widest bound the benchmark
// contract allows: on the shared two-core host this was written on, memory-
// heavy code runs in phases, seconds to minutes long, that differ by 15 % and
// more (a single-goroutine replay of long-doc took 915 to 1480 ms per round
// within one process), and ten runs of the same code spread by 6 % of their
// median at a quiet time and 25 % at a busy one (README.md has the tables).
// When two sets of runs disagree by more than half a bound, raise the
// workload's round count; never switch to a fixed duration.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
	{"alloc_kb_per_op", "KiB", false, 0.05},
	{"live_heap_mb", "MiB", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

const allocPrefix = "replay.alloc_kb."

// perLayer lists the traced run's metrics; README.md maps each to the
// end-to-end metric it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "wire.op_bytes", unit: "B"},
		{name: "wire.srv_bytes", unit: "B"},
		{name: "wire.welcome_bytes", unit: "B"},
		{name: "statespace.states", unit: "count"},
		{name: "statespace.edges", unit: "count"},
		{name: "statespace.ctx_lag_p50", unit: "count"},
		{name: "statespace.ctx_lag_max", unit: "count"},
		{name: "server.apply_p50_ms", unit: "ms"},
		{name: "server.apply_queue_wait_p50_ms", unit: "ms"},
		{name: "server.ops_per_flush", unit: "count", higher: true},
		{name: "server.disconnects", unit: "count"},
		{name: "replay.self_us_per_op", unit: "us"},
		{name: "transport.residual_us_per_op", unit: "us"},
		{name: "e2e.op_p99_ms", unit: "ms"},
		{name: "e2e.trace_overhead_frac", unit: "frac"},
	}
	for _, s := range layerSpans {
		defs = append(defs, metricDef{name: s + "_us", unit: "us"}, metricDef{name: allocPrefix + s, unit: "KiB"})
	}
	return defs
}()

// tcpResult is what the TCP passes of one run measured.
type tcpResult struct {
	w         workload
	rounds    []roundStats // measured, untraced
	traced    []roundStats // measured, traced (trace mode only)
	engines   []engineStats
	setup     time.Duration
	attempted int
	failed    int
	retried   int
	oracle    string // one line on what the warm-up round's check found
}

// account adds one round, measured or not, to the run's totals.
func (r *tcpResult) account(st roundStats) {
	r.attempted += r.w.roundOps()
	r.failed += st.failed
	r.retried += st.retried
}

func perRound(rounds []roundStats, f func(roundStats) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, st := range rounds {
		out[i] = f(st)
	}
	return out
}

// One round's value of each timing metric.
func (st roundStats) opsPerSec() float64  { return float64(st.ops) / st.wall.Seconds() }
func (st roundStats) cpuUsPerOp() float64 { return float64(st.cpu.Microseconds()) / float64(st.ops) }
func (st roundStats) p50Ms() float64      { return ms(st.p50) }
func (st roundStats) p99Ms() float64      { return ms(st.p99) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues computes the six end-to-end metrics: every timing is the
// median over rounds, which is what makes two runs of the same code agree (a
// neighbour's stall lands in one round, not in the statistic).
func (r *tcpResult) endToEndValues() map[string]float64 {
	var alloc uint64
	ops := 0
	var heaps []float64
	for _, st := range r.rounds {
		alloc += st.allocBytes
		ops += st.ops
		if st.liveHeap > 0 {
			heaps = append(heaps, float64(st.liveHeap)/(1<<20))
		}
	}
	return map[string]float64{
		"ops_per_s":       median(perRound(r.rounds, roundStats.opsPerSec)),
		"op_p50_ms":       median(perRound(r.rounds, roundStats.p50Ms)),
		"cpu_us_per_op":   median(perRound(r.rounds, roundStats.cpuUsPerOp)),
		"alloc_kb_per_op": float64(alloc) / float64(ops) / 1024,
		"live_heap_mb":    median(heaps),
		"setup_s":         r.setup.Seconds(),
	}
}

func (r *tcpResult) opP99Ms() float64 {
	return median(perRound(r.rounds, roundStats.p99Ms))
}

func (r *tcpResult) disconnects() (n int64) {
	for _, e := range r.engines {
		n += e.disconnects
	}
	return n
}

// serverValues summarises the engines' own registries by the median engine.
func (r *tcpResult) serverValues() map[string]float64 {
	var apply, wait, flush []float64
	for _, e := range r.engines {
		apply = append(apply, e.applyP50Ms)
		wait = append(wait, e.queueWaitP50Ms)
		flush = append(flush, e.opsPerFlush)
	}
	return map[string]float64{
		"server.apply_p50_ms":            median(apply),
		"server.apply_queue_wait_p50_ms": median(wait),
		"server.ops_per_flush":           median(flush),
		"server.disconnects":             float64(r.disconnects()),
	}
}

// ctxLagValues summarises the traced rounds' context lags.
func (r *tcpResult) ctxLagValues() map[string]float64 {
	var all []int
	for _, st := range r.traced {
		all = append(all, st.ctxLag...)
	}
	if len(all) == 0 {
		return map[string]float64{"statespace.ctx_lag_p50": 0, "statespace.ctx_lag_max": 0}
	}
	slices.Sort(all)
	return map[string]float64{
		"statespace.ctx_lag_p50": float64(all[(len(all)-1)/2]),
		"statespace.ctx_lag_max": float64(all[len(all)-1]),
	}
}

// replayResult is what the replay's passes measured.
type replayResult struct {
	spans  []span // timing pass
	rounds []replayRound
	allocs []span // allocation pass, one round
	failed int
}

// perOp sums value(i) over the spans of one name under the measured root of
// each of the pass's rounds (numbered from 1), divides by the round's measured
// operations, and returns the median over rounds: the same statistic the
// end-to-end timings use. A round without such a span counts as zero.
func perOp(spans []span, rounds, ops int, name string, value func(i int) float64) float64 {
	vals := make([]float64, rounds)
	for i, s := range spans {
		if s.Name == name && spans[root(spans, i)].Name == spanMeasured {
			vals[s.Round-1] += value(i) / float64(ops)
		}
	}
	return median(vals)
}

// layerValues computes the replay's per-layer metrics. Every *_us metric is
// self time under the measured root per measured operation, so the layers add
// up to replay.self_us_per_op, and a layer the measured phase never calls
// reads 0 (css.snapshot_us on long-doc, client.generate_us on late-join).
func (rr *replayResult) layerValues(ops int) map[string]float64 {
	out := map[string]float64{}
	self := selfTimes(rr.spans)
	selfAlloc := selfAllocs(rr.allocs)
	total := 0.0
	for _, name := range layerSpans {
		us := perOp(rr.spans, replayRounds, ops, name, func(i int) float64 { return float64(self[i]) / 1e3 })
		out[name+"_us"] = us
		total += us
		out[allocPrefix+name] = perOp(rr.allocs, 1, ops, name, func(i int) float64 { return float64(selfAlloc[i]) / 1024 })
	}
	out["replay.self_us_per_op"] = total
	// Bytes are counted where a frame is parsed: what crossed the wire.
	bytes := func(i int) float64 { return float64(rr.spans[i].Bytes) }
	out["wire.op_bytes"] = perOp(rr.spans, replayRounds, ops, spanDecodeOp, bytes)
	out["wire.srv_bytes"] = perOp(rr.spans, replayRounds, ops, spanDecodeSrv, bytes)
	out["wire.welcome_bytes"] = perOp(rr.spans, replayRounds, ops, spanDecodeWelcome, bytes)
	out["statespace.states"] = float64(rr.rounds[0].states)
	out["statespace.edges"] = float64(rr.rounds[0].edges)
	return out
}

// printMetrics prints name, value and unit, one metric per line, in the
// order of defs.
func printMetrics(b *strings.Builder, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(b, "  %-42s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}
