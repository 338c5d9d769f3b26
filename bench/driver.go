package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/core"
	"jupiter/internal/metrics"
	"jupiter/internal/opid"
	"jupiter/internal/server"
)

// drainDeadline bounds every wait for the system to catch up (Sync,
// WaitServerSeq, engine shutdown). An operation still un-acknowledged then
// counts as failed.
const drainDeadline = 30 * time.Second

// roundStats is what one round measured.
type roundStats struct {
	wall       time.Duration // measured phase, wall clock
	cpu        time.Duration // user+sys of the process over the measured phase
	allocBytes uint64        // TotalAlloc delta over the measured phase
	ops        int           // measured operations completed
	failed     int           // operations (or checks) that failed
	retried    int           // deletes that lost the position race
	p50, p99   time.Duration // of the round's per-op latencies
	liveHeap   uint64        // HeapAlloc after a forced GC, sessions open; 0 = not taken
	ctxLag     []int         // traced rounds only: per-op context lag
}

// engineStats is what an engine's registry said when it stopped.
type engineStats struct {
	applyP50Ms, queueWaitP50Ms, opsPerFlush float64
	disconnects                             int64
}

// runner drives one workload against engines it hosts itself.
type runner struct {
	w    workload
	seed int64
	logf func(format string, args ...any)

	eng     *server.Engine
	writers [writers]*writer
	samples []int64      // the current round's latencies, reused
	open    atomic.Int32 // client sessions dialled and not yet closed
	engines []engineStats
}

func newRunner(w workload, seed int64, logf func(string, ...any)) *runner {
	r := &runner{w: w, seed: seed, logf: logf, samples: make([]int64, 0, w.writeOps()+w.joins)}
	for i := range r.writers {
		r.writers[i] = newWriter(w.opsPerDoc, w.docsPerWriter)
	}
	return r
}

// startEngine hosts what README's jupiterd quickstart runs: a zero-value
// configuration on a loopback port, no GC of the state-space.
func (r *runner) startEngine(rec core.Recorder) error {
	r.eng = server.New(server.Config{Addr: "127.0.0.1:0", Recorder: rec})
	return r.eng.Start()
}

func (r *runner) stopEngine() error {
	r.engines = append(r.engines, scrape(r.eng.Metrics()))
	ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	err := r.eng.Shutdown(ctx)
	r.eng = nil
	// Everything the engine held (and the warm-up's histories) is garbage
	// now. Collect it, so that every engine starts on the same heap and the
	// collector's pacing does not carry over from one engine to the next.
	runtime.GC()
	return err
}

func scrape(reg *metrics.Registry) engineStats {
	return engineStats{
		applyP50Ms:     reg.Histogram("apply_latency").Snapshot().P50Ms,
		queueWaitP50Ms: reg.Histogram("apply_queue_wait").Snapshot().P50Ms,
		// The engine records a flush's frame count as that many microseconds.
		opsPerFlush: reg.Histogram("batched_ops_per_flush").Snapshot().AvgMs * 1000,
		disconnects: reg.Counter("backpressure_disconnects_total").Value() +
			reg.Counter("op_gap_disconnects_total").Value() +
			reg.Counter("protocol_errors_total").Value(),
	}
}

func (r *runner) dial(doc string, rec core.Recorder, onAck func(opid.OpID, uint64)) (*client.Client, error) {
	c, err := client.Dial(client.Config{Addr: r.eng.Addr(), Doc: doc, Recorder: rec, OnAck: onAck})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", doc, err)
	}
	r.open.Add(1)
	return c, nil
}

func (r *runner) hangUp(c *client.Client) {
	_ = c.Close() // only ever ErrClosed
	r.open.Add(-1)
}

// writer is one connection's closed loop. Its tables are allocated once for
// the run and reused by every session: a fresh table per session showed up as
// most of alloc_kb_per_op.
type writer struct {
	// tokens holds one token per operation the writer may still send; onAck
	// returns them. Its capacity is the window, so onAck never blocks.
	tokens  chan struct{}
	epoch   time.Time
	sent    []int64 // ns since epoch at generation, by own sequence number
	lat     []int64 // generation to acknowledgement, ns
	samples []int64 // lat of every session of the current round
	// Traced sessions only: Client.ServerSeq at generation and the global
	// sequence the server gave the operation.
	genSeq, ackSeq []uint64
}

func newWriter(opsPerDoc, docs int) *writer {
	w := &writer{
		tokens:  make(chan struct{}, window),
		epoch:   time.Now(),
		sent:    make([]int64, opsPerDoc),
		lat:     make([]int64, opsPerDoc),
		samples: make([]int64, 0, opsPerDoc*docs),
		genSeq:  make([]uint64, opsPerDoc),
		ackSeq:  make([]uint64, opsPerDoc),
	}
	for i := 0; i < window; i++ {
		w.tokens <- struct{}{}
	}
	return w
}

// onAck is client.Config.OnAck. The client calls it with its own lock held,
// from its reader goroutine, so it may touch only state that needs no lock the
// generating goroutine could hold: a mutex shared with the generator
// deadlocks (generator holds it and waits for the client's lock inside
// Insert; the reader holds the client's lock and waits for it here). The
// tables are safe because each slot is written before Insert takes the
// client's lock and read after Sync released it; the channel has room by
// construction.
func (w *writer) onAck(id opid.OpID, seq uint64) {
	i := id.Seq - 1
	w.lat[i] = int64(time.Since(w.epoch)) - w.sent[i]
	w.ackSeq[i] = seq
	w.tokens <- struct{}{}
}

// session writes n operations through c in a closed loop, waits until all
// are acknowledged, and keeps their latencies.
func (w *writer) session(ctx context.Context, c *client.Client, s *opStream, n int, shared, traced bool) (retried int, err error) {
	for k := 0; k < n; k++ {
		select {
		case <-w.tokens:
		case <-ctx.Done():
			return retried, ctx.Err()
		}
		if traced {
			w.genSeq[k] = c.ServerSeq()
		}
		w.sent[k] = int64(time.Since(w.epoch))
		again, err := edit(c, s, shared)
		if err != nil {
			return retried, err
		}
		if again {
			retried++
		}
	}
	if err := c.Sync(ctx); err != nil {
		return retried, err
	}
	w.samples = append(w.samples, w.lat[:n]...)
	return retried, nil
}

// ctxLags returns, for each of the session's n operations, how many
// operations of other clients the server serialized between the state the
// operation was generated on and the operation itself: the depth of the
// ladder the server climbs to integrate it. That is everything serialized in
// between (ackSeq-1-genSeq) minus the writer's own operations still in
// flight then, which are exactly its earlier ones acknowledged past genSeq
// (the channel is FIFO, so everything at or below genSeq was already seen).
func (w *writer) ctxLags(n int, out []int) []int {
	j := 0 // first earlier op with ackSeq > genSeq[k]; both are ascending
	for k := 0; k < n; k++ {
		for j < k && w.ackSeq[j] <= w.genSeq[k] {
			j++
		}
		out = append(out, int(w.ackSeq[k]-1-w.genSeq[k])-(k-j))
	}
	return out
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the most memory the process ever held resident.
func peakRSSMiB() int64 { return rusage().Maxrss >> 10 } // Linux reports KiB

// stopwatch brackets a measured phase.
type stopwatch struct {
	t0    time.Time
	cpu0  time.Duration
	alloc uint64
}

func startWatch() stopwatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return stopwatch{alloc: ms.TotalAlloc, cpu0: cpuTime(), t0: time.Now()}
}

func (sw stopwatch) stop(st *roundStats) {
	st.wall = time.Since(sw.t0)
	st.cpu = cpuTime() - sw.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.allocBytes = ms.TotalAlloc - sw.alloc
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// round runs one round against the current engine. orc, when non-nil, makes
// it the warm-up round: every replica records its history and the oracle
// checks it afterwards. traced rounds also record each operation's context
// lag. heap asks for live_heap at the end of the round, while the engine and
// the round's sessions are still open.
func (r *runner) round(round int, orc *oracle, traced, heap bool) (roundStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	rr := &roundRun{runner: r, round: round, orc: orc, traced: traced, texts: map[string]string{}}
	// Every session is closed before the round returns: replicas leaked into
	// the next round tripled shared-doc's heap.
	defer rr.hangUpAll()
	r.samples = r.samples[:0]

	if err := rr.write(ctx); err != nil {
		return rr.st, err
	}
	want, err := rr.verify()
	if err != nil {
		return rr.st, err
	}
	if r.w.joins > 0 {
		rr.join(want)
	}

	slices.Sort(r.samples)
	rr.st.p50 = time.Duration(percentileNs(r.samples, 0.50))
	rr.st.p99 = time.Duration(percentileNs(r.samples, 0.99))
	if heap {
		rr.st.liveHeap = liveHeap()
	}
	return rr.st, nil
}

// roundRun is the state of one round in progress.
type roundRun struct {
	*runner
	round  int
	orc    *oracle
	traced bool

	mu      sync.Mutex              // guards the fields below while the writers run
	conns   []*client.Client        // open sessions
	dialled [writers]*client.Client // without churn: each writer's one session
	texts   map[string]string       // churn: a closed session's final text, by document
	st      roundStats
}

func (rr *roundRun) connect(writer, d int) (*client.Client, error) {
	doc := rr.w.docName(rr.round, writer, d)
	c, err := rr.dial(doc, rr.orc.recorder(doc), rr.writers[writer].onAck)
	if err == nil {
		rr.mu.Lock()
		rr.conns = append(rr.conns, c)
		rr.mu.Unlock()
	}
	return c, err
}

func (rr *roundRun) disconnect(c *client.Client) {
	rr.mu.Lock()
	rr.conns = slices.DeleteFunc(rr.conns, func(x *client.Client) bool { return x == c })
	rr.mu.Unlock()
	rr.hangUp(c)
}

// hangUpAll closes every open session and lets go of the replicas, so that
// live_heap does not count sessions the round has finished with.
func (rr *roundRun) hangUpAll() {
	for _, c := range rr.conns {
		rr.hangUp(c)
	}
	rr.conns = nil
	rr.dialled = [writers]*client.Client{}
}

// write runs the two writers side by side, each through its documents in
// turn. It is the measured phase unless the workload measures joins.
func (rr *roundRun) write(ctx context.Context) error {
	w := rr.w
	if !w.churn {
		for i := range rr.dialled {
			var err error
			if rr.dialled[i], err = rr.connect(i, 0); err != nil {
				return err
			}
		}
	}
	sw := startWatch()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rr.writeDocs(ctx, i)
		}(i)
	}
	wg.Wait()
	if w.joins == 0 {
		sw.stop(&rr.st)
		rr.st.ops = w.writeOps() - rr.st.failed
	}
	for _, wr := range rr.writers {
		rr.samples = append(rr.samples, wr.samples...)
	}
	return errors.Join(errs...)
}

// writeDocs is one writer's share of a round.
func (rr *roundRun) writeDocs(ctx context.Context, i int) error {
	w, wr := rr.w, rr.writers[i]
	stream := newOpStream(rr.seed, rr.round, i)
	wr.samples = wr.samples[:0]
	for d := 0; d < w.docsPerWriter; d++ {
		doc := w.docName(rr.round, i, d)
		c := rr.dialled[i]
		if w.churn {
			var err error
			if c, err = rr.connect(i, d); err != nil {
				return err
			}
		}
		retried, err := wr.session(ctx, c, stream, w.opsPerDoc, w.shared, rr.traced)
		rr.mu.Lock()
		rr.st.retried += retried
		rr.st.failed += c.Pending()
		if rr.traced && err == nil {
			rr.st.ctxLag = wr.ctxLags(w.opsPerDoc, rr.st.ctxLag)
		}
		rr.mu.Unlock()
		if err == nil && w.shared {
			err = c.WaitServerSeq(ctx, uint64(w.writeOps()))
		}
		if err != nil {
			return fmt.Errorf("writer %d on %s: %w", i, doc, err)
		}
		if w.churn {
			rr.orc.observe(c)
			text := c.Text()
			rr.mu.Lock()
			rr.texts[doc] = text
			rr.mu.Unlock()
			rr.disconnect(c)
		}
	}
	return nil
}

// verify checks that every replica holds what the engine holds, and returns
// the engine's text of the last document looked at (late-join has only one).
func (rr *roundRun) verify() (want string, err error) {
	for _, c := range rr.conns {
		rr.orc.observe(c)
	}
	for i := 0; i < writers; i++ {
		for d := 0; d < rr.w.docsPerWriter; d++ {
			doc := rr.w.docName(rr.round, i, d)
			ds, ok := rr.eng.DocState(doc)
			if !ok {
				return "", fmt.Errorf("engine does not host %s", doc)
			}
			got, closed := rr.texts[doc]
			if !closed {
				got = rr.dialled[i].Text()
			}
			if want = ds.Text; got != want {
				rr.st.failed++
				rr.logf("DIVERGED %s: writer %d holds %q, engine %q", doc, i, got, want)
			}
		}
	}
	return want, nil
}

// join is late-join's measured phase: sequential joins to the preloaded
// document, each timed from Dial until its text is verified against want.
func (rr *roundRun) join(want string) {
	// The preload's writers hang up first: at most two connections are ever
	// open. Their sessions stay registered with the engine.
	rr.hangUpAll()
	rr.samples = rr.samples[:0] // one op is one join: the preload's latencies are not samples
	failedBefore := rr.st.failed
	sw := startWatch()
	for j := 0; j < rr.w.joins; j++ {
		t0 := time.Now()
		c, err := rr.connect(0, 0)
		if err != nil {
			rr.st.failed++
			rr.logf("JOIN FAILED: %v", err)
			continue
		}
		if got := c.Text(); got != want {
			rr.st.failed++
			rr.logf("DIVERGED: joiner %d holds %q, engine %q", j, got, want)
		}
		rr.samples = append(rr.samples, int64(time.Since(t0)))
		rr.orc.observe(c)
		if j < rr.w.joins-1 { // the last joiner stays for live_heap
			rr.disconnect(c)
		}
	}
	sw.stop(&rr.st)
	rr.st.ops = rr.w.joins - (rr.st.failed - failedBefore)
}
