// Command bench is the repository's benchmark: four fixed-work workloads
// driven over loopback TCP against an engine hosted in the same process, and
// a socket-free traced replay that says where an operation's time goes.
// README.md explains the workloads, the metrics and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"strings"
	"time"
)

// replayRounds is the number of rounds the replay's timing pass covers.
const replayRounds = 3

func main() {
	// Two threads, on a two-core host: the engine and its clients share the
	// process, as they share the cores.
	runtime.GOMAXPROCS(2)

	name := flag.String("workload", "", "workload to run: short-docs, long-doc, shared-doc or late-join")
	seed := flag.Int64("seed", 1, "seed of the operation streams")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "traced run: span file (default .bench_build/spans-<workload>.jsonl)")
	selfcheck := flag.Int("selfcheck", 0, "run every workload 2 x k times and compare the two sets of medians")
	// Work is fixed, never a duration: per-op cost grows with history, so a
	// fixed-time run does different work whenever speed wobbles. The flag is
	// accepted because the benchmark's callers pass it; round counts are sized
	// so that the measured phases take about BENCHMARK.json's run_seconds.
	flag.Int("seconds", 0, "accepted and ignored: every workload runs a fixed number of operations")
	flag.Parse()

	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck, *seed))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *trace != 0 && *traceOut == "" {
		*traceOut = ".bench_build/spans-" + w.name + ".jsonl"
	}
	ok, err := run(w, *seed, *trace != 0, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func hostFacts() string {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// run runs one workload, prints every metric by name and unit, and reports
// whether every output was correct.
func run(w workload, seed int64, traced bool, traceOut string) (bool, error) {
	var b strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	fmt.Fprintln(&b, hostFacts())
	fmt.Fprintf(&b, "workload: %s seed=%d rounds=%d ops/round=%d writers=%d window=%d (closed loop)\n",
		w.name, seed, w.rounds, w.roundOps(), writers, window)

	res, err := runTCP(w, seed, traced, logf)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(&b, res.oracle)
	e2e := res.endToEndValues()
	defs, vals := endToEnd, e2e
	failed := res.failed
	if !traced {
		fmt.Fprintf(&b, "end to end (median of %d rounds; op_p50_ms over %d samples per round):\n", len(res.rounds), w.roundOps())
		printMetrics(&b, defs, vals)
		fmt.Fprintf(&b, "  %-42s %14.4f ms (not gating: the per-round tail does not repeat)\n", "op_p99_ms", res.opP99Ms())
		fmt.Fprintf(&b, "ops_per_s by round: %.1f\n", perRound(res.rounds, roundStats.opsPerSec))
		fmt.Fprintf(&b, "cpu_us_per_op by round: %.1f\n", perRound(res.rounds, roundStats.cpuUsPerOp))
		fmt.Fprintf(&b, "op_p50_ms by round: %.3f\n", perRound(res.rounds, roundStats.p50Ms))
	} else {
		rr, err := runReplay(w, seed)
		if err != nil {
			return false, err
		}
		failed += rr.failed
		defs, vals = perLayer, rr.layerValues(w.roundOps())
		maps.Copy(vals, res.serverValues())
		maps.Copy(vals, res.ctxLagValues())
		// What the TCP run pays per operation that the replay's calls into
		// the layers do not account for. The rows add up by construction.
		vals["transport.residual_us_per_op"] = e2e["cpu_us_per_op"] - vals["replay.self_us_per_op"]
		vals["e2e.op_p99_ms"] = res.opP99Ms()
		vals["e2e.trace_overhead_frac"] = 1 - median(perRound(res.traced, roundStats.opsPerSec))/e2e["ops_per_s"]
		fmt.Fprintf(&b, "per layer (TCP: %d untraced and %d traced rounds, alternating; replay: %d timed rounds and 1 allocation round):\n",
			len(res.rounds), len(res.traced), replayRounds)
		printMetrics(&b, defs, vals)
		fmt.Fprintf(&b, "  untraced cpu_us_per_op %.4f = replay.self_us_per_op + transport.residual_us_per_op\n", e2e["cpu_us_per_op"])
		if err := writeSpans(traceOut, rr.spans); err != nil {
			return false, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(&b, "spans: %d written to %s\n", len(rr.spans), traceOut)
	}
	failed += int(res.disconnects())
	fmt.Fprintf(&b, "ops_attempted=%d ops_failed=%d ops_retried=%d server.disconnects=%d peak_rss_mib=%d\n",
		res.attempted, failed, res.retried, res.disconnects(), peakRSSMiB())

	out := outcome{Correct: failed == 0, Attempted: res.attempted, Failed: failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		out.Metrics[d.name] = measured{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Print(b.String())
	fmt.Println(string(line))
	return out.Correct, nil
}

// runTCP hosts engines and drives the workload's rounds over loopback TCP.
// The first round is the warm-up: unmeasured, on a recorded engine of its own,
// and checked by the oracle. In trace mode half the measured rounds also
// record context lag, alternating with the untraced ones so that drift over
// the run lands on both sides of e2e.trace_overhead_frac alike.
func runTCP(w workload, seed int64, trace bool, logf func(string, ...any)) (*tcpResult, error) {
	t0 := time.Now()
	r := newRunner(w, seed, logf)
	res := &tcpResult{w: w}
	var measuredFor time.Duration

	if err := warmUp(r, res); err != nil {
		return nil, err
	}
	if err := r.stopEngine(); err != nil {
		return nil, err
	}

	for i := 1; i <= w.rounds; i++ {
		first, last := (i-1)%w.roundsPerEngine == 0, i%w.roundsPerEngine == 0 || i == w.rounds
		if first {
			if err := r.startEngine(nil); err != nil {
				return nil, err
			}
		}
		traced := trace && i%2 == 0
		// live_heap is the price of what an engine keeps, so it is taken when
		// the engine holds all it ever will: at the end of its last round.
		st, err := r.round(i, nil, traced, last)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		res.account(st)
		measuredFor += st.wall
		if traced {
			res.traced = append(res.traced, st)
		} else {
			res.rounds = append(res.rounds, st)
		}
		if n := r.open.Load(); n != 0 {
			return nil, fmt.Errorf("round %d left %d sessions open", i, n)
		}
		if last {
			if err := r.stopEngine(); err != nil {
				return nil, err
			}
		}
	}
	res.engines = r.engines
	// Everything that is not a measured phase: engines starting and stopping,
	// the warm-up round and its check, dials outside the clock, late-join's
	// preload, live_heap's collections.
	res.setup = time.Since(t0) - measuredFor
	return res, nil
}

// warmUp runs the unmeasured first round on a recorded engine of its own and
// has the oracle check it. The engine is left for the caller to stop, after
// the histories have gone out of scope.
func warmUp(r *runner, res *tcpResult) error {
	orc := newOracle()
	if err := r.startEngine(orc.engineRecorder()); err != nil {
		return err
	}
	warm, err := r.round(0, orc, false, false)
	if err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	res.account(warm)
	violations, events := orc.check()
	for _, v := range violations {
		r.logf("VIOLATION %s", v)
	}
	res.failed += len(violations)
	res.oracle = fmt.Sprintf("warm-up: %d do events in %d documents checked against the weak list specification and convergence: %d violations",
		events, len(orc.docs), len(violations))
	return nil
}

// runReplay runs the replay's timing pass and its allocation pass.
func runReplay(w workload, seed int64) (rr *replayResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			re, ok := p.(replayError)
			if !ok {
				panic(p)
			}
			rr, err = nil, fmt.Errorf("replay: %w", re.err)
		}
	}()
	rr = &replayResult{}
	timing := &replay{w: w, seed: seed, t: newTracer(false)}
	for i := 1; i <= replayRounds; i++ {
		rr.rounds = append(rr.rounds, timing.round(i))
	}
	allocs := &replay{w: w, seed: seed, t: newTracer(true)}
	allocs.round(1)
	rr.spans, rr.allocs = timing.t.spans, allocs.t.spans
	rr.failed = timing.failed + allocs.failed
	return rr, nil
}
