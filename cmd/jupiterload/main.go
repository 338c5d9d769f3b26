// Command jupiterload is the open-loop load generator for jupiterd: Poisson
// arrivals at a configured aggregate rate, thousands of sessions multiplexed
// over a bounded connection pool, zipfian document popularity, mixed
// reader/writer populations, warmup/measure/drain phases, and a
// machine-readable JSON report with coordinated-omission-corrected latency
// and a sampled weak-spec runtime check. See internal/loadgen and
// EXPERIMENTS.md (E15).
//
// Modes:
//
//	jupiterload -addr 127.0.0.1:9170 -rate 2000 -docs 100 -sessions 1000 -duration 30s
//	    One run; the report JSON goes to -o (default stdout). Exit 1 when
//	    the run failed its SLO, its spec check, or its drain barriers.
//
//	jupiterload -sweep 500,1000,2000,4000 -addr ... -duration 10s -o BENCH_e15.json
//	    One run per target rate, emitting a SweepSummary with the derived
//	    maximum sustainable throughput (scripts/sweep_load.sh drives this).
//
//	jupiterload -gate old.json new.json -min-ratio 0.85
//	    Benchdiff-style regression gate over two sweep summaries: exit 1
//	    when new max-sustainable throughput fell below min-ratio × old.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jupiter/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jupiterload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("jupiterload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9170", "server address(es), comma-separated for a replicated cluster")
		place    = fs.String("placement", "", "jupiterplace route address; route documents across a sharded cluster instead of -addr")
		metrics  = fs.String("metrics", "", "jupiterd metrics address to scrape for server-side latency")
		rate     = fs.Float64("rate", 1000, "aggregate target arrival rate, ops/sec")
		docs     = fs.Int("docs", 10, "number of documents")
		sessions = fs.Int("sessions", 0, "virtual users (0 = 4×docs)")
		conns    = fs.Int("conns", 0, "TCP connection pool size (0 = docs; must be ≥ docs)")
		workers  = fs.Int("workers", 0, "generator goroutines (0 = NumCPU capped at 16)")
		warmup   = fs.Duration("warmup", 2*time.Second, "warmup phase")
		duration = fs.Duration("duration", 10*time.Second, "measure phase")
		drain    = fs.Duration("drain", 30*time.Second, "drain phase budget")
		writers  = fs.Float64("writer-frac", 0.9, "fraction of sessions that write (rest read)")
		zipfS    = fs.Float64("zipf", 1.2, "zipf skew of document popularity (≤1 = uniform)")
		seed     = fs.Int64("seed", 1, "deterministic seed for schedules and assignment")
		window   = fs.Int("window", 0, "client in-flight op window (0 = client default)")
		specN    = fs.Int("spec-sample", 0, "documents recording histories for the drain-time weak-spec check (0 = min(2,docs), -1 = off)")
		specCap  = fs.Int("spec-max-events", 0, "event cap per sampled history (overflow = check skipped)")
		debt     = fs.Duration("debt-threshold", 5*time.Millisecond, "dispatch lateness counted as coordinated-omission debt")
		sloP99   = fs.Duration("slo-p99", 0, "fail the run when e2e p99 exceeds this (0 = unconstrained)")
		sloP999  = fs.Duration("slo-p999", 0, "fail the run when e2e p999 exceeds this")
		sloErr   = fs.Float64("slo-error-rate", 0, "error budget as errors/intended (0 = zero budget)")
		sloRate  = fs.Float64("slo-min-rate", 0, "fail the run when achieved rate is below this")
		out      = fs.String("o", "", "write the JSON report here instead of stdout")
		quiet    = fs.Bool("q", false, "suppress live progress lines")
		every    = fs.Duration("progress-every", 5*time.Second, "progress line period")
		verbose  = fs.Bool("v", false, "log connection-level events")

		sweep    = fs.String("sweep", "", "comma-separated target rates: run each, emit a SweepSummary")
		knee     = fs.Float64("knee-p99-ms", 250, "sweep: p99 ceiling (ms) for a rate to count as sustained")
		minFrac  = fs.Float64("min-achieved-frac", 0.9, "sweep: achieved/target floor for a rate to count as sustained")
		gate     = fs.Bool("gate", false, "gate mode: compare two sweep summary files (old new)")
		minRatio = fs.Float64("min-ratio", 0.85, "gate: new max-sustainable must be ≥ this × old")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *gate {
		if fs.NArg() != 2 {
			return fmt.Errorf("gate mode wants exactly two summary files, got %d", fs.NArg())
		}
		return runGate(fs.Arg(0), fs.Arg(1), *minRatio, stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	addrs := strings.Split(*addr, ",")
	if *place != "" {
		addrs = nil // placement routing supersedes the static address list
	}
	cfg := loadgen.Config{
		Addrs:         addrs,
		Placement:     *place,
		Docs:          *docs,
		Sessions:      *sessions,
		Rate:          *rate,
		Warmup:        *warmup,
		Duration:      *duration,
		Drain:         *drain,
		WriterFrac:    *writers,
		ZipfS:         *zipfS,
		Conns:         *conns,
		Workers:       *workers,
		Seed:          *seed,
		SpecSample:    *specN,
		SpecMaxEvents: *specCap,
		DebtThreshold: *debt,
		MetricsAddr:   *metrics,
		Window:        *window,
		ProgressEvery: *every,
		SLO: loadgen.SLO{
			P99:          *sloP99,
			P999:         *sloP999,
			MaxErrorRate: *sloErr,
			MinRate:      *sloRate,
		},
	}
	if *writers == 0 {
		cfg.WriterFrac = -1 // explicit zero on the flag means "no writers"
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *verbose {
		cfg.Logf = log.New(os.Stderr, "jupiterload: ", log.Lmicroseconds).Printf
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *sweep != "" {
		return runSweep(ctx, cfg, *sweep, *knee, *minFrac, *out, stdout)
	}

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if err := emitJSON(res, *out, stdout); err != nil {
		return err
	}
	if res.Failed() {
		return fmt.Errorf("run failed: %s", strings.Join(res.Failures, "; "))
	}
	return nil
}

// runSweep runs one load run per target rate and emits the summary.
func runSweep(ctx context.Context, cfg loadgen.Config, rates string, knee, minFrac float64, out string, stdout *os.File) error {
	var parsed []float64
	for _, f := range strings.Split(rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 {
			return fmt.Errorf("bad sweep rate %q", f)
		}
		parsed = append(parsed, r)
	}
	sum := loadgen.SweepSummary{KneeP99Ms: knee, MinAchievedFrac: minFrac}
	for _, r := range parsed {
		rc := cfg
		rc.Rate = r
		// Fresh documents per rate: a run must not inherit the previous
		// rate's accumulated document state.
		rc.DocPrefix = fmt.Sprintf("load-r%d-", int(r))
		if rc.Progress != nil {
			fmt.Fprintf(rc.Progress, "[sweep] rate=%.0f/s\n", r)
		}
		res, err := loadgen.Run(ctx, rc)
		if err != nil {
			return fmt.Errorf("sweep rate %.0f: %w", r, err)
		}
		sum.Runs = append(sum.Runs, res)
		if ctx.Err() != nil {
			break
		}
	}
	sum.Finalize()
	if err := emitJSON(&sum, out, stdout); err != nil {
		return err
	}
	if sum.MaxSustainable <= 0 {
		return fmt.Errorf("sweep: no rate sustained (knee %.0fms, floor %.0f%%)", knee, minFrac*100)
	}
	return nil
}

// runGate compares two sweep summaries and fails on throughput regression.
func runGate(oldPath, newPath string, minRatio float64, stdout *os.File) error {
	oldJSON, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newJSON, err := os.ReadFile(newPath)
	if err != nil {
		return err
	}
	msg, gerr := loadgen.GateSweep(oldJSON, newJSON, minRatio)
	fmt.Fprintln(stdout, msg)
	return gerr
}

// emitJSON writes v as indented JSON to path ("" = stdout).
func emitJSON(v any, path string, stdout *os.File) error {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if path == "" {
		_, err = stdout.Write(body)
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
