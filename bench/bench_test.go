package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/opid"
)

// Scaled-down shapes of the four workloads, so that the tests stay fast.
var tiny = []workload{
	{name: "short-docs", rounds: 4, roundsPerEngine: 2, docsPerWriter: 3, opsPerDoc: 30, churn: true},
	{name: "long-doc", rounds: 2, roundsPerEngine: 1, docsPerWriter: 1, opsPerDoc: 70},
	{name: "shared-doc", rounds: 2, roundsPerEngine: 1, docsPerWriter: 1, opsPerDoc: 70, shared: true},
	{name: "late-join", rounds: 2, roundsPerEngine: 1, docsPerWriter: 1, opsPerDoc: 50, shared: true, joins: 2},
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// A stalled round must not move a timing metric: that is the point of taking
// the median over rounds and not total work over total time.
func TestTimingsAreMedianOverRounds(t *testing.T) {
	round := func(wall time.Duration) roundStats {
		return roundStats{ops: 1000, wall: wall, cpu: wall, p50: wall / 1000, allocBytes: 1000 << 10}
	}
	res := &tcpResult{rounds: []roundStats{round(time.Second), round(time.Second), round(10 * time.Second)}}
	v := res.endToEndValues()
	if v["ops_per_s"] != 1000 {
		t.Errorf("ops_per_s = %v, want the median round's 1000", v["ops_per_s"])
	}
	if v["cpu_us_per_op"] != 1000 {
		t.Errorf("cpu_us_per_op = %v, want 1000", v["cpu_us_per_op"])
	}
	if v["op_p50_ms"] != 1 {
		t.Errorf("op_p50_ms = %v, want 1", v["op_p50_ms"])
	}
	if v["alloc_kb_per_op"] != 1 {
		t.Errorf("alloc_kb_per_op = %v, want 1 (all bytes over all ops)", v["alloc_kb_per_op"])
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what accepts or rejects the benchmark.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 40, 20, 30, 70})
	if q1 != 15 || q3 != 55 {
		t.Errorf("quartiles = %v, %v, want 15, 55", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 50, End: 60},
		{Name: "a.inner", Parent: 1, Start: 12, End: 17},
		{Name: "late", Parent: 0, Start: 95, End: 120}, // only the part inside the parent counts
	}
	want := []time.Duration{100 - 20 - 10 - 5, 20 - 5, 10, 5, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if r := root(spans, 3); r != 0 {
		t.Errorf("root of the grandchild = %d, want 0", r)
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	type draw struct {
		del bool
		u   uint32
		val rune
	}
	take := func(seed int64, round, writer int) []draw {
		s := newOpStream(seed, round, writer)
		out := make([]draw, 500)
		for i := range out {
			out[i].del, out[i].u, out[i].val = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(take(7, 3, 1), take(7, 3, 1)) {
		t.Error("the same (seed, round, writer) gave two different streams")
	}
	for _, other := range [][]draw{take(8, 3, 1), take(7, 4, 1), take(7, 3, 0)} {
		if reflect.DeepEqual(take(7, 3, 1), other) {
			t.Error("a different seed, round or writer gave the same stream")
		}
	}
	dels := 0
	for _, d := range take(7, 3, 1) {
		if d.del {
			dels++
		}
	}
	if dels < 100 || dels > 200 {
		t.Errorf("%d deletes in 500 draws, want about 30 %%", dels)
	}
}

// The replay's schedule is fixed: the same seed must give the same spans, the
// same bytes on the wire and the same state-spaces, so that a later change can
// be judged by its counts.
func TestSameSeedSameReplayCounts(t *testing.T) {
	type counts struct {
		spans  map[string]int
		bytes  map[string]int
		rounds []replayRound
	}
	take := func(w workload) counts {
		rp := &replay{w: w, seed: 11, t: newTracer(false)}
		c := counts{spans: map[string]int{}, bytes: map[string]int{}}
		for i := 1; i <= 2; i++ {
			c.rounds = append(c.rounds, rp.round(i))
		}
		if rp.failed != 0 {
			t.Errorf("%s: %d replicas diverged in the replay", w.name, rp.failed)
		}
		for _, s := range rp.t.spans {
			c.spans[s.Name]++
			c.bytes[s.Name] += s.Bytes
		}
		return c
	}
	for _, w := range tiny {
		a, b := take(w), take(w)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two replays of one seed differ:\n%v\n%v", w.name, a, b)
		}
		if got, want := a.spans[spanServerReceive], 2*w.writeOps(); got != want {
			t.Errorf("%s: %d server receives in 2 rounds, want %d", w.name, got, want)
		}
		if w.shared && a.spans[spanReceiveRemote] != 2*w.writeOps() {
			t.Errorf("%s: %d remote receives, want one per op", w.name, a.spans[spanReceiveRemote])
		}
		if !w.shared && a.spans[spanReceiveRemote] != 0 {
			t.Errorf("%s: a sole writer received %d remote ops", w.name, a.spans[spanReceiveRemote])
		}
	}
}

// Layer metrics are per measured operation, so a layer the measured phase
// never calls reads 0 and the layers add up to replay.self_us_per_op.
func TestLayerValuesAddUp(t *testing.T) {
	for _, w := range tiny {
		rr, err := runReplay(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		v := rr.layerValues(w.roundOps())
		sum := 0.0
		for _, name := range layerSpans {
			sum += v[name+"_us"]
		}
		if math.Abs(sum-v["replay.self_us_per_op"]) > 1e-9 {
			t.Errorf("%s: layers sum to %v, replay.self_us_per_op = %v", w.name, sum, v["replay.self_us_per_op"])
		}
		writes, joins := v[spanGenerate+"_us"] > 0, v[spanSnapshot+"_us"] > 0
		wantWrites, wantJoins := w.joins == 0, w.joins > 0 || w.churn
		if writes != wantWrites || joins != wantJoins {
			t.Errorf("%s: measured phase has writes=%v joins=%v, want %v %v", w.name, writes, joins, wantWrites, wantJoins)
		}
		if v["wire.op_bytes"] <= 0 && wantWrites {
			t.Errorf("%s: wire.op_bytes = %v", w.name, v["wire.op_bytes"])
		}
		if v[allocPrefix+spanServerReceive] <= 0 && wantWrites {
			t.Errorf("%s: the allocation pass saw nothing in css.server_receive", w.name)
		}
	}
}

func TestCtxLags(t *testing.T) {
	// A sole writer: op k is acknowledged at global sequence k+1 whatever it
	// had seen when generated, so the lag is 0 however deep its window is.
	w := newWriter(6, 1)
	copy(w.genSeq, []uint64{0, 0, 0, 2, 3, 3})
	copy(w.ackSeq, []uint64{1, 2, 3, 4, 5, 6})
	if got := w.ctxLags(6, nil); !reflect.DeepEqual(got, []int{0, 0, 0, 0, 0, 0}) {
		t.Errorf("sole writer: lags %v, want all 0", got)
	}
	// With a second writer: op 0 generated on state 0 and serialized 4th met
	// 3 remote ops; op 1, generated on state 0 too, serialized 6th, met 4 (its
	// own op 0 was in flight and does not count); op 2 generated after seeing
	// everything up to 6 and serialized 7th met none.
	copy(w.genSeq, []uint64{0, 0, 6})
	copy(w.ackSeq, []uint64{4, 6, 7})
	if got := w.ctxLags(3, nil); !reflect.DeepEqual(got, []int{3, 4, 0}) {
		t.Errorf("two writers: lags %v, want [3 4 0]", got)
	}
}

// Hazard: client.Config.OnAck runs with the client's lock held. A callback
// that takes a lock the generating goroutine holds while it calls Insert
// deadlocks, which is why writer.onAck touches only its tables and a channel
// with room. This test pins the fact the design rests on: while OnAck runs, no
// other goroutine gets into the client.
func TestOnAckRunsUnderClientLock(t *testing.T) {
	r := newRunner(tiny[1], 1, t.Logf)
	if err := r.startEngine(nil); err != nil {
		t.Fatal(err)
	}
	defer r.stopEngine()
	var c *client.Client
	held := make(chan bool, 1)
	c, err := r.dial("lock", nil, func(opid.OpID, uint64) {
		entered := make(chan struct{})
		go func() { c.DocLen(); close(entered) }()
		select {
		case <-entered:
			held <- false
		case <-time.After(20 * time.Millisecond):
			held <- true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.hangUp(c)
	if err := c.Insert('x', 0); err != nil {
		t.Fatal(err)
	}
	if !<-held {
		t.Error("DocLen got in while OnAck ran: the callback no longer holds the client's lock, revisit writer.onAck's comment")
	}
}

// racedEditor believes the list has 5 elements when a remote delete has just
// emptied it.
type racedEditor struct {
	deletes int
	inserts []int
}

func (e *racedEditor) DocLen() int { return 5 }
func (e *racedEditor) Delete(int) error {
	e.deletes++
	return errors.New("position out of range")
}
func (e *racedEditor) Insert(_ rune, pos int) error {
	e.inserts = append(e.inserts, pos)
	return nil
}

// Hazard: DocLen-then-Delete can lose a race with a remote delete. The edit
// is retried as an insert at 0 and counted, not failed.
func TestLostDeleteRaceIsRetriedAsInsertAtZero(t *testing.T) {
	e := &racedEditor{}
	s := newOpStream(1, 1, 0)
	retried := 0
	for i := 0; i < 200; i++ {
		again, err := edit(e, s, true)
		if err != nil {
			t.Fatal(err)
		}
		if again {
			retried++
			if last := e.inserts[len(e.inserts)-1]; last != 0 {
				t.Fatalf("retry inserted at %d, want 0", last)
			}
		}
	}
	if retried == 0 || retried != e.deletes || len(e.inserts) != 200 {
		t.Errorf("%d deletes tried, %d retried, %d inserts: want every failed delete retried and 200 edits made", e.deletes, retried, len(e.inserts))
	}
}

// Hazard: an insert past the end wedges the session, so on a shared document
// inserts keep raceMargin away from the tail.
func TestInsertPosKeepsAwayFromASharedTail(t *testing.T) {
	for docLen := 0; docLen < 300; docLen += 7 {
		for u := uint32(0); u < 5000; u += 13 {
			if p := insertPos(u, docLen, true); p < 0 || p > max(0, docLen-raceMargin) {
				t.Fatalf("shared: insertPos(%d, %d) = %d", u, docLen, p)
			}
			if p := insertPos(u, docLen, false); p < 0 || p > docLen {
				t.Fatalf("sole writer: insertPos(%d, %d) = %d", u, docLen, p)
			}
		}
	}
	if insertPos(300, 300, false) != 300 {
		t.Error("a sole writer must be able to append")
	}
}

// Every shape runs end to end over TCP, traced and untraced: the oracle
// passes, nothing fails, and (hazard) every round closes its sessions before
// the next one starts — replicas leaked into later rounds tripled shared-doc's
// heap. runTCP refuses to go on when a round leaves one open.
func TestTinyRunsOverTCP(t *testing.T) {
	for _, w := range tiny {
		for _, traced := range []bool{false, true} {
			res, err := runTCP(w, 3, traced, t.Logf)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.disconnects() != 0 {
				t.Errorf("%s traced=%v: %d failed, %d disconnects\n%s", w.name, traced, res.failed, res.disconnects(), res.oracle)
			}
			if want := (w.rounds + 1) * w.roundOps(); res.attempted != want {
				t.Errorf("%s: attempted %d, want %d", w.name, res.attempted, want)
			}
			for name, v := range res.endToEndValues() {
				if !(v > 0) && !traced { // a traced run reports none of them
					t.Errorf("%s traced=%v: %s = %v, want > 0", w.name, traced, name, v)
				}
			}
			if !traced {
				continue
			}
			lag := res.ctxLagValues()
			if !w.shared && lag["statespace.ctx_lag_max"] != 0 {
				t.Errorf("%s: a sole writer saw context lag %v", w.name, lag["statespace.ctx_lag_max"])
			}
		}
	}
}

func TestRoundClosesItsSessions(t *testing.T) {
	for _, w := range tiny {
		r := newRunner(w, 1, t.Logf)
		if err := r.startEngine(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := r.round(1, nil, false, false); err != nil {
			t.Fatal(err)
		}
		if n := r.open.Load(); n != 0 {
			t.Errorf("%s: %d sessions still open after the round", w.name, n)
		}
		if err := r.stopEngine(); err != nil {
			t.Error(err)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in this package are what the
// program reports. They must say the same.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", w.name, len(w.why))
		}
	}
	check := func(kind string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: %d rows in BENCHMARK.json, %d in the program", kind, len(rows), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			r := rows[i]
			if r.Name != d.name || r.Unit != d.unit || r.Better != better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, r, d.name, d.unit, better)
			}
			if bounded != (r.Bound != nil) || bounded && *r.Bound != d.bound {
				t.Errorf("%s %s: bound %v, want %v (bounded=%v)", kind, d.name, r.Bound, d.bound, bounded)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
