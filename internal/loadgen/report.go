package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/metrics"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/spec"
)

// OpStats counts what the generator did during the MEASURE phase. Intended
// is the number of arrivals the open-loop schedule called for; Writes and
// Reads are what was actually issued; Acked is how many measure-phase writes
// the server acknowledged (including acks that landed during drain); Errors
// counts writes that could not be issued or were terminally rejected.
type OpStats struct {
	Intended int64 `json:"intended"`
	Writes   int64 `json:"writes"`
	Reads    int64 `json:"reads"`
	Acked    int64 `json:"acked"`
	Errors   int64 `json:"errors"`
	Warmup   int64 `json:"warmupWrites"` // writes issued during warmup (unmeasured)
}

// COStats is the coordinated-omission account: the generator records every
// arrival whose dispatch ran later than its intended time. Latency is
// measured from the INTENDED time, so queueing delay in the generator
// cannot hide server latency; these counters additionally expose how much
// schedule debt built up.
type COStats struct {
	ThresholdMs float64 `json:"thresholdMs"` // lateness below this is jitter, not debt
	DelayedOps  int64   `json:"delayedOps"`  // dispatches later than the threshold
	MaxDebtMs   float64 `json:"maxDebtMs"`   // worst single dispatch lateness
	TotalDebtMs float64 `json:"totalDebtMs"` // summed positive dispatch lateness
}

// SpecResult reports the sampled-history weak-spec runtime check.
type SpecResult struct {
	DocsSampled int      `json:"docsSampled"`
	DocsChecked int      `json:"docsChecked"` // sampled minus overflowed
	Events      int      `json:"events"`      // total history events checked
	Overflowed  []string `json:"overflowed,omitempty"`
	Violations  []string `json:"violations,omitempty"`
}

// SLO declares the acceptance envelope for a run. Zero fields are
// unconstrained.
type SLO struct {
	P99          time.Duration `json:"p99,omitempty"`
	P999         time.Duration `json:"p999,omitempty"`
	MaxErrorRate float64       `json:"maxErrorRate,omitempty"` // errors / intended
	MinRate      float64       `json:"minRate,omitempty"`      // achieved ops/sec floor
}

// SLOResult is the evaluated envelope.
type SLOResult struct {
	Declared   SLO      `json:"declared"`
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// Result is the machine-readable report of one load run. It marshals to the
// JSON document cmd/jupiterload emits and scripts/sweep_load.sh consumes.
type Result struct {
	// Workload echo, so a report is self-describing.
	Rate     float64 `json:"targetRate"`
	Docs     int     `json:"docs"`
	Sessions int     `json:"sessions"`
	Conns    int     `json:"conns"`
	Writers  float64 `json:"writerFrac"`
	ZipfS    float64 `json:"zipfS"`
	Seed     int64   `json:"seed"`

	WarmupMs  float64 `json:"warmupMs"`
	MeasureMs float64 `json:"measureMs"`
	DrainMs   float64 `json:"drainMs"`

	Ops          OpStats `json:"ops"`
	AchievedRate float64 `json:"achievedRate"` // measure-phase completed ops (acked writes + reads) / measure seconds

	// LatencyE2E is intended-send → server ack (coordinated-omission
	// corrected); LatencyAck is actual-send → ack (the service view).
	LatencyE2E metrics.HistSnapshot `json:"latencyE2E"`
	LatencyAck metrics.HistSnapshot `json:"latencyAck"`
	CO         COStats              `json:"coordinatedOmission"`

	// Server-side instrumentation scraped from the jupiterd metrics
	// endpoint at drain time (absent when no endpoint was configured).
	Server map[string]metrics.HistSnapshot `json:"server,omitempty"`

	Spec SpecResult `json:"spec"`
	SLO  SLOResult  `json:"slo"`

	// Failures aggregates everything that should fail the run: SLO
	// violations, spec violations, and drain problems.
	Failures []string `json:"failures,omitempty"`
}

// Failed reports whether the run should exit non-zero.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// evaluateSLO fills r.SLO and folds violations into r.Failures.
func (r *Result) evaluateSLO(slo SLO) {
	r.SLO.Declared = slo
	add := func(format string, args ...any) {
		r.SLO.Violations = append(r.SLO.Violations, fmt.Sprintf(format, args...))
	}
	if slo.P99 > 0 && r.LatencyE2E.P99Ms > float64(slo.P99)/float64(time.Millisecond) {
		add("p99 %.1fms above SLO %v", r.LatencyE2E.P99Ms, slo.P99)
	}
	if slo.P999 > 0 && r.LatencyE2E.P999Ms > float64(slo.P999)/float64(time.Millisecond) {
		add("p999 %.1fms above SLO %v", r.LatencyE2E.P999Ms, slo.P999)
	}
	if slo.MaxErrorRate > 0 && r.Ops.Intended > 0 {
		if rate := float64(r.Ops.Errors) / float64(r.Ops.Intended); rate > slo.MaxErrorRate {
			add("error rate %.4f above SLO %.4f", rate, slo.MaxErrorRate)
		}
	}
	if slo.MaxErrorRate == 0 && r.Ops.Errors > 0 {
		// No declared budget means zero budget.
		add("%d errors with no declared error budget", r.Ops.Errors)
	}
	if slo.MinRate > 0 && r.AchievedRate < slo.MinRate {
		add("achieved rate %.1f/s below SLO floor %.1f/s", r.AchievedRate, slo.MinRate)
	}
	r.SLO.Pass = len(r.SLO.Violations) == 0
	for _, v := range r.SLO.Violations {
		r.Failures = append(r.Failures, "slo: "+v)
	}
}

// CheckHistory pipes one document's recorded history through the weak list
// specification and convergence checkers, returning human-readable
// violations (empty = the history satisfies both). Exported so tests can
// prove a corrupted history is caught by exactly the path the drain-time
// runtime check uses.
func CheckHistory(doc string, h *core.History) []string {
	var out []string
	if err := h.WellFormed(); err != nil {
		return append(out, fmt.Sprintf("doc %s: recorder: %v", doc, err))
	}
	if err := spec.CheckWeak(h); err != nil {
		out = append(out, fmt.Sprintf("doc %s: %v", doc, err))
	}
	if err := spec.CheckConvergence(h); err != nil {
		out = append(out, fmt.Sprintf("doc %s: %v", doc, err))
	}
	return out
}

// cappedRecorder records a document history up to a cap, then stops and
// marks itself overflowed. A truncated history would produce FALSE
// violations (the checkers need complete visibility), so an overflowed
// document's check is skipped and reported, never run on the partial
// events. Safe for concurrent use.
type cappedRecorder struct {
	mu       sync.Mutex
	hist     *core.History
	capacity int
	overflow bool
}

func newCappedRecorder(capacity int) *cappedRecorder {
	return &cappedRecorder{hist: &core.History{}, capacity: capacity}
}

// Record implements core.Recorder.
func (c *cappedRecorder) Record(replica string, op ot.Op, returned []list.Elem, seen []opid.OpID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.overflow || len(c.hist.Events) >= c.capacity {
		c.overflow = true
		return
	}
	c.hist.Record(replica, op, returned, seen)
}

// overflowed reports whether the cap was hit (the history is incomplete).
func (c *cappedRecorder) overflowed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflow
}

// history returns the recorded history; call only after the run quiesced
// (every client synced and read), when no recorder can still be appending.
func (c *cappedRecorder) history() *core.History {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hist
}

// scrapeServerHists fetches the jupiterd metrics JSON and extracts the named
// histograms.
func scrapeServerHists(addr string, names ...string) (map[string]metrics.HistSnapshot, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]metrics.HistSnapshot)
	for _, n := range names {
		body, ok := raw[n]
		if !ok {
			continue
		}
		var s metrics.HistSnapshot
		if err := json.Unmarshal(body, &s); err == nil {
			out[n] = s
		}
	}
	return out, nil
}

// ------------------------------------------------------------- sweeps ----

// SweepSummary is the rate-sweep report scripts/sweep_load.sh writes to
// BENCH_e15.json: one Result per target rate plus the derived headline, the
// maximum sustainable throughput.
type SweepSummary struct {
	KneeP99Ms       float64   `json:"kneeP99Ms"`       // p99 ceiling for "sustainable"
	MinAchievedFrac float64   `json:"minAchievedFrac"` // achieved/target floor
	Runs            []*Result `json:"runs"`
	MaxSustainable  float64   `json:"maxSustainableRate"`
}

// Finalize derives MaxSustainable: the highest target rate whose run kept
// up (achieved ≥ MinAchievedFrac × target), stayed under the p99 knee,
// passed its spec check, and failed nothing else.
func (s *SweepSummary) Finalize() {
	s.MaxSustainable = 0
	for _, r := range s.Runs {
		if r == nil || r.Failed() {
			continue
		}
		if r.AchievedRate < s.MinAchievedFrac*r.Rate {
			continue
		}
		if s.KneeP99Ms > 0 && r.LatencyE2E.P99Ms > s.KneeP99Ms {
			continue
		}
		if r.Rate > s.MaxSustainable {
			s.MaxSustainable = r.Rate
		}
	}
}

// GateSweep compares two sweep summaries (benchdiff-style): it fails when
// the new max sustainable throughput fell below minRatio × old. The string
// describes the comparison either way.
func GateSweep(oldJSON, newJSON []byte, minRatio float64) (string, error) {
	var oldS, newS SweepSummary
	if err := json.Unmarshal(oldJSON, &oldS); err != nil {
		return "", fmt.Errorf("gate: parse old summary: %w", err)
	}
	if err := json.Unmarshal(newJSON, &newS); err != nil {
		return "", fmt.Errorf("gate: parse new summary: %w", err)
	}
	msg := fmt.Sprintf("max sustainable throughput: old %.0f/s, new %.0f/s (floor %.0f%%)",
		oldS.MaxSustainable, newS.MaxSustainable, minRatio*100)
	if oldS.MaxSustainable <= 0 {
		return msg + " — old baseline empty, nothing to gate", nil
	}
	if newS.MaxSustainable < minRatio*oldS.MaxSustainable {
		return msg, fmt.Errorf("throughput regression: %.0f/s < %.0f%% of %.0f/s",
			newS.MaxSustainable, minRatio*100, oldS.MaxSustainable)
	}
	return msg, nil
}
