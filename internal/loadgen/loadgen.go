// Package loadgen is the open-workload load generator for jupiterd: the
// harness ROADMAP item 5 calls for, and the judge the scale items (sharding,
// GC) are measured by.
//
// Everything measured before this package was closed-loop: a handful of
// clients, each issuing its next operation only after the previous one was
// acknowledged. Closed loops hide latency — a slow server slows the
// generator, so the generator never observes the queueing it causes. This
// generator is OPEN-LOOP: operations arrive on a Poisson schedule at a
// configured aggregate rate whether or not the server keeps up, which is how
// traffic from millions of independent users actually behaves.
//
// Shape. Thousands of lightweight SESSIONS (virtual users) are multiplexed
// over a bounded pool of real TCP connections (one internal/client per
// document, plus extra connections for the hottest documents). Each session
// is pinned to a document — chosen zipfian, so popularity is skewed like
// real corpora — and to a role: writers generate inserts/deletes, readers
// poll the replica. Worker goroutines run independent Poisson arrival
// processes that sum to the target rate; each arrival fires one session.
//
// Measurement. A run has three phases: warmup (ops flow, nothing recorded),
// measure, and drain (generation stops, every in-flight op must be
// acknowledged and every connection must converge). Latency is recorded
// from the op's INTENDED arrival time, not its actual dispatch time, so
// generator lag cannot mask server latency (coordinated omission); the
// schedule debt itself is reported separately. Histograms are per-connection
// and merged for reporting (metrics.Histogram.Merge), so the hot path never
// shares a mutex.
//
// Runtime checking. A configurable sample of documents records complete
// do-event histories which are piped through internal/spec (weak list
// specification + convergence) at drain time — the paper's correctness
// bar enforced while the system is under open load, not just in unit tests.
// A history that outgrows its event cap is skipped and reported, never
// checked partially (a truncated history would produce false violations).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/metrics"
	"jupiter/internal/opid"
	"jupiter/internal/placement"
)

// Config configures one load run.
type Config struct {
	// Addrs are the server addresses (a replicated cluster's full list).
	Addrs []string
	// Placement, when non-empty, supersedes Addrs: the placement service's
	// route address. Every pool connection routes its document through one
	// shared routing cache, so the run drives a doc-sharded cluster and
	// follows live migrations mid-run.
	Placement string
	// Docs is how many documents the workload spreads over (named
	// DocPrefix + index).
	Docs int
	// DocPrefix names the documents ("" = "load-").
	DocPrefix string
	// Sessions is the number of virtual users (default 4 × Docs).
	Sessions int
	// Rate is the aggregate target arrival rate in ops/sec (required).
	Rate float64
	// Warmup runs load without recording before the measure phase.
	Warmup time.Duration
	// Duration is the measure phase length (required).
	Duration time.Duration
	// Drain bounds the post-measure quiesce: sync + convergence barriers
	// and the spec check (0 = 30s).
	Drain time.Duration
	// WriterFrac is the fraction of sessions that edit; the rest read.
	// 0 = 0.9, negative = no writers.
	WriterFrac float64
	// ZipfS is the zipf skew of document popularity (0 = 1.2; values ≤ 1
	// mean uniform).
	ZipfS float64
	// Conns sizes the TCP connection pool. The pool holds one connection
	// per document (a wire session joins exactly one doc), plus extra
	// connections round-robined onto the most popular documents. 0 = Docs;
	// values below Docs are an error.
	Conns int
	// Workers is the number of generator goroutines, each running an
	// independent Poisson process at Rate/Workers (0 = NumCPU, capped at 16).
	Workers int
	// Seed makes arrival schedules, document assignment, and op content
	// deterministic (0 = 1). Timing still depends on the host.
	Seed int64
	// SpecSample is how many documents record full histories for the
	// drain-time weak-spec check (0 = min(2, Docs); negative = off). The
	// coolest documents are sampled, bounding checker cost; hot documents
	// would overflow SpecMaxEvents and be skipped anyway.
	SpecSample int
	// SpecMaxEvents caps a sampled document's recorded history; an
	// overflowed history is reported and skipped, not checked partially
	// (0 = 4096).
	SpecMaxEvents int
	// DebtThreshold is how late a dispatch may run before it counts as
	// coordinated-omission debt rather than scheduler jitter (0 = 5ms).
	DebtThreshold time.Duration
	// SLO declares the acceptance envelope evaluated into the result.
	SLO SLO
	// MetricsAddr, when non-empty, is the jupiterd metrics endpoint to
	// scrape at drain time for server-side apply/queue latency.
	MetricsAddr string
	// Window passes through to internal/client.
	Window int
	// Progress, when non-nil, receives live one-line status updates.
	Progress io.Writer
	// ProgressEvery paces progress output and OnProgress (0 = 5s).
	ProgressEvery time.Duration
	// OnProgress, when non-nil, observes each live snapshot (tests assert
	// monotone counters with it).
	OnProgress func(Progress)
	// Logf, when non-nil, receives connection-level events.
	Logf func(format string, args ...any)
}

func (c *Config) docPrefix() string {
	if c.DocPrefix == "" {
		return "load-"
	}
	return c.DocPrefix
}

func (c *Config) sessions() int {
	if c.Sessions <= 0 {
		return 4 * c.Docs
	}
	return c.Sessions
}

func (c *Config) drain() time.Duration {
	if c.Drain <= 0 {
		return 30 * time.Second
	}
	return c.Drain
}

func (c *Config) writerFrac() float64 {
	if c.WriterFrac == 0 {
		return 0.9
	}
	if c.WriterFrac < 0 {
		return 0
	}
	return c.WriterFrac
}

func (c *Config) zipfS() float64 {
	if c.ZipfS == 0 {
		return 1.2
	}
	return c.ZipfS
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	w := runtime.NumCPU()
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (c *Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c *Config) specSample() int {
	if c.SpecSample < 0 {
		return 0
	}
	if c.SpecSample == 0 {
		if c.Docs < 2 {
			return c.Docs
		}
		return 2
	}
	if c.SpecSample > c.Docs {
		return c.Docs
	}
	return c.SpecSample
}

func (c *Config) specMaxEvents() int {
	if c.SpecMaxEvents <= 0 {
		return 4096
	}
	return c.SpecMaxEvents
}

func (c *Config) debtThreshold() time.Duration {
	if c.DebtThreshold <= 0 {
		return 5 * time.Millisecond
	}
	return c.DebtThreshold
}

func (c *Config) progressEvery() time.Duration {
	if c.ProgressEvery <= 0 {
		return 5 * time.Second
	}
	return c.ProgressEvery
}

// Progress is one live status snapshot.
type Progress struct {
	Elapsed  time.Duration
	Phase    string // "warmup", "measure", "drain"
	Intended int64
	Writes   int64
	Acked    int64
	Reads    int64
	Errors   int64
	Delayed  int64
	E2E      metrics.HistSnapshot
}

func (p Progress) String() string {
	return fmt.Sprintf("[load] t=%s phase=%s intended=%d writes=%d acked=%d reads=%d errs=%d delayed=%d p50=%.1fms p99=%.1fms p999=%.1fms",
		p.Elapsed.Truncate(100*time.Millisecond), p.Phase, p.Intended, p.Writes, p.Acked,
		p.Reads, p.Errors, p.Delayed, p.E2E.P50Ms, p.E2E.P99Ms, p.E2E.P999Ms)
}

// pendEntry is one in-flight write awaiting its ack.
type pendEntry struct {
	intended time.Time
	sent     time.Time
	measure  bool
}

// poolConn is one TCP connection of the pool: the client, its in-flight op
// table, and its private latency histograms (merged at reporting time).
type poolConn struct {
	cl  *client.Client
	doc int

	mu      sync.Mutex
	pending map[opid.OpID]pendEntry
	early   map[opid.OpID]time.Time // acks that raced ahead of track()

	e2e metrics.Histogram // intended → ack
	ack metrics.Histogram // sent → ack
}

// track registers a generated op. The ack can arrive (on the client's
// manager goroutine) before the generator returns from InsertID — the early
// table catches that ordering.
func (pc *poolConn) track(st *stats, id opid.OpID, intended, sent time.Time, measure bool) {
	pc.mu.Lock()
	if at, ok := pc.early[id]; ok {
		delete(pc.early, id)
		pc.mu.Unlock()
		pc.observe(st, at, pendEntry{intended, sent, measure})
		return
	}
	pc.pending[id] = pendEntry{intended, sent, measure}
	pc.mu.Unlock()
}

// onAck resolves one acknowledged op. Called with the client's lock held —
// it must stay cheap and never call back into the client.
func (pc *poolConn) onAck(st *stats, id opid.OpID) {
	now := time.Now()
	pc.mu.Lock()
	e, ok := pc.pending[id]
	if !ok {
		pc.early[id] = now
		pc.mu.Unlock()
		return
	}
	delete(pc.pending, id)
	pc.mu.Unlock()
	pc.observe(st, now, e)
}

func (pc *poolConn) observe(st *stats, ackedAt time.Time, e pendEntry) {
	if !e.measure {
		return
	}
	st.acked.Add(1)
	pc.e2e.Observe(ackedAt.Sub(e.intended))
	pc.ack.Observe(ackedAt.Sub(e.sent))
}

// session is one virtual user: a document (via its pool connection), a
// role, and the rune it types.
type session struct {
	pc     *poolConn
	writer bool
	val    rune
}

// stats are the run's shared counters (hot-path: atomics only).
type stats struct {
	intended atomic.Int64
	writes   atomic.Int64
	reads    atomic.Int64
	acked    atomic.Int64
	errors   atomic.Int64
	warmup   atomic.Int64
	delayed  atomic.Int64
	debtNs   atomic.Int64
	maxDebt  atomic.Int64
}

func (s *stats) noteDebt(late time.Duration, threshold time.Duration) {
	ns := late.Nanoseconds()
	s.debtNs.Add(ns)
	for {
		cur := s.maxDebt.Load()
		if ns <= cur || s.maxDebt.CompareAndSwap(cur, ns) {
			break
		}
	}
	if late > threshold {
		s.delayed.Add(1)
	}
}

// Run executes one load run: build the pool, generate through
// warmup+measure, drain, check, and report. The returned error covers
// infrastructure failures (bad config, pool dial failure, context
// cancellation); workload failures (SLO misses, spec violations, drain
// timeouts) land in Result.Failures with the partial numbers preserved.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Addrs) == 0 && cfg.Placement == "" {
		return nil, errors.New("loadgen: no server addresses")
	}
	if cfg.Docs <= 0 {
		return nil, errors.New("loadgen: Docs must be positive")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("loadgen: Rate must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be positive")
	}
	conns := cfg.Conns
	if conns == 0 {
		conns = cfg.Docs
	}
	if conns < cfg.Docs {
		return nil, fmt.Errorf("loadgen: Conns (%d) below Docs (%d): a wire session serves exactly one document", conns, cfg.Docs)
	}

	g := &gen{cfg: cfg, conns: conns}
	if err := g.setup(); err != nil {
		return nil, err
	}
	defer g.closePool()
	return g.run(ctx)
}

// gen is one run's state.
type gen struct {
	cfg   Config
	conns int

	pool     []*poolConn
	docConns [][]int // doc index → pool indices
	sessions []*session
	sampled  map[int]*cappedRecorder // doc index → recorder
	docOps   []atomic.Int64          // successful generates per doc (all phases)
	st       stats
}

func (g *gen) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// setup assigns sessions to documents (zipfian) and roles, picks the spec
// sample, and dials the connection pool.
func (g *gen) setup() error {
	cfg := &g.cfg
	rng := rand.New(rand.NewSource(cfg.seed()))

	// Sessions: document via zipf over popularity ranks (doc 0 hottest).
	var zipf *rand.Zipf
	if cfg.Docs > 1 && cfg.zipfS() > 1 {
		zipf = rand.NewZipf(rng, cfg.zipfS(), 1, uint64(cfg.Docs-1))
	}
	nSess := cfg.sessions()
	sessDoc := make([]int, nSess)
	sessWriter := make([]bool, nSess)
	perDoc := make([]int, cfg.Docs)
	writersPerDoc := make([]int, cfg.Docs)
	for i := 0; i < nSess; i++ {
		di := 0
		if zipf != nil {
			di = int(zipf.Uint64())
		} else if cfg.Docs > 1 {
			di = rng.Intn(cfg.Docs)
		}
		sessDoc[i] = di
		sessWriter[i] = rng.Float64() < cfg.writerFrac()
		perDoc[di]++
		if sessWriter[i] {
			writersPerDoc[di]++
		}
	}

	// Spec sample: the coolest documents that still see writes, so the
	// recorded histories stay within the event cap. (Docs with writers,
	// fewest sessions first; fall back to any doc with sessions.)
	g.sampled = make(map[int]*cappedRecorder)
	if n := cfg.specSample(); n > 0 {
		order := make([]int, 0, cfg.Docs)
		for di := 0; di < cfg.Docs; di++ {
			if perDoc[di] > 0 {
				order = append(order, di)
			}
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := order[a], order[b]
			wa, wb := writersPerDoc[da] > 0, writersPerDoc[db] > 0
			if wa != wb {
				return wa // writer docs first
			}
			if perDoc[da] != perDoc[db] {
				return perDoc[da] < perDoc[db]
			}
			return da > db
		})
		if len(order) > n {
			order = order[:n]
		}
		for _, di := range order {
			g.sampled[di] = newCappedRecorder(cfg.specMaxEvents())
		}
	}

	// Pool: one connection per document, extras round-robined onto the
	// hottest documents (low indices).
	g.docConns = make([][]int, cfg.Docs)
	g.docOps = make([]atomic.Int64, cfg.Docs)
	type dial struct{ doc int }
	dials := make([]dial, 0, g.conns)
	for di := 0; di < cfg.Docs; di++ {
		dials = append(dials, dial{di})
	}
	for i := 0; len(dials) < g.conns; i++ {
		dials = append(dials, dial{i % cfg.Docs})
	}

	g.pool = make([]*poolConn, len(dials))
	var pcache *placement.Cache
	if cfg.Placement != "" {
		pcache = placement.NewCache(cfg.Placement)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(dials))
	for i, d := range dials {
		pc := &poolConn{
			doc:     d.doc,
			pending: make(map[opid.OpID]pendEntry),
			early:   make(map[opid.OpID]time.Time),
		}
		g.pool[i] = pc
		g.docConns[d.doc] = append(g.docConns[d.doc], i)
		wg.Add(1)
		go func(pc *poolConn) {
			defer wg.Done()
			ccfg := client.Config{
				Addrs:          cfg.Addrs,
				PlacementCache: pcache,
				Doc:            fmt.Sprintf("%s%03d", cfg.docPrefix(), pc.doc),
				Seed:           cfg.seed()*10000 + int64(pc.doc) + 1,
				MinBackoff:     10 * time.Millisecond,
				MaxBackoff:     500 * time.Millisecond,
				Window:         cfg.Window,
				OnAck:          func(id opid.OpID, _ uint64) { pc.onAck(&g.st, id) },
				Logf:           cfg.Logf,
			}
			if rec, ok := g.sampled[pc.doc]; ok {
				ccfg.Recorder = rec
			}
			cl, err := dialRetry(ccfg)
			if err != nil {
				errCh <- fmt.Errorf("loadgen: dial doc %d: %w", pc.doc, err)
				return
			}
			pc.cl = cl
		}(pc)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}

	// Sessions bind to their document's connections round-robin.
	next := make([]int, cfg.Docs)
	g.sessions = make([]*session, nSess)
	for i := 0; i < nSess; i++ {
		di := sessDoc[i]
		ci := g.docConns[di][next[di]%len(g.docConns[di])]
		next[di]++
		g.sessions[i] = &session{
			pc:     g.pool[ci],
			writer: sessWriter[i],
			val:    rune('a' + i%26),
		}
	}
	g.logf("loadgen: pool ready: %d conns, %d docs, %d sessions (%d sampled docs)",
		len(g.pool), cfg.Docs, nSess, len(g.sampled))
	return nil
}

// dialRetry dials with a few retries: against a chaos proxy (or a cluster
// mid-failover) the first handshakes can legitimately fail.
func dialRetry(cfg client.Config) (*client.Client, error) {
	var lastErr error
	for attempt := 0; attempt < 40; attempt++ {
		cl, err := client.Dial(cfg)
		if err == nil {
			return cl, nil
		}
		lastErr = err
		time.Sleep(25 * time.Millisecond)
	}
	return nil, lastErr
}

func (g *gen) closePool() {
	var wg sync.WaitGroup
	for _, pc := range g.pool {
		if pc == nil || pc.cl == nil {
			continue
		}
		wg.Add(1)
		go func(pc *poolConn) {
			defer wg.Done()
			_ = pc.cl.Close()
		}(pc)
	}
	wg.Wait()
}

// run drives the phases and assembles the result.
func (g *gen) run(ctx context.Context) (*Result, error) {
	cfg := &g.cfg
	start := time.Now()
	warmupEnd := start.Add(cfg.Warmup)
	measureEnd := warmupEnd.Add(cfg.Duration)

	genCtx, cancelGen := context.WithCancel(ctx)
	defer cancelGen()

	// Progress ticker (also feeds OnProgress).
	phase := func() string {
		now := time.Now()
		switch {
		case now.Before(warmupEnd):
			return "warmup"
		case now.Before(measureEnd):
			return "measure"
		default:
			return "drain"
		}
	}
	tickDone := make(chan struct{})
	tickStop := make(chan struct{})
	go func() {
		defer close(tickDone)
		t := time.NewTicker(cfg.progressEvery())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p := g.progress(start, phase())
				if cfg.Progress != nil {
					fmt.Fprintln(cfg.Progress, p.String())
				}
				if cfg.OnProgress != nil {
					cfg.OnProgress(p)
				}
			case <-tickStop:
				return
			}
		}
	}()
	defer func() { close(tickStop); <-tickDone }()

	// Generator workers: independent Poisson processes summing to Rate.
	nW := cfg.workers()
	byWorker := make([][]*session, nW)
	for i, s := range g.sessions {
		byWorker[i%nW] = append(byWorker[i%nW], s)
	}
	var wg sync.WaitGroup
	for w := 0; w < nW; w++ {
		if len(byWorker[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, sess []*session) {
			defer wg.Done()
			g.worker(genCtx, w, sess, float64(nW), warmupEnd, measureEnd)
		}(w, byWorker[w])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: canceled during generation: %w", err)
	}

	// Drain: quiesce, converge, check.
	drainStart := time.Now()
	res := g.baseResult()
	res.WarmupMs = float64(cfg.Warmup) / float64(time.Millisecond)
	res.MeasureMs = float64(drainStart.Sub(warmupEnd)) / float64(time.Millisecond)
	g.drain(ctx, res)
	res.DrainMs = float64(time.Since(drainStart)) / float64(time.Millisecond)

	// Final numbers (acks that landed during drain count).
	g.fillStats(res)
	if sec := res.MeasureMs / 1000; sec > 0 {
		// Completed operations per second: reads complete at their reply,
		// writes at their server ack. Counting only writes would cap a
		// perfectly healthy run at WriterFrac × target.
		res.AchievedRate = float64(res.Ops.Acked+res.Ops.Reads) / sec
	}
	if cfg.MetricsAddr != "" {
		hists, err := scrapeServerHists(cfg.MetricsAddr, "apply_latency", "apply_queue_wait")
		if err != nil {
			g.logf("loadgen: metrics scrape: %v", err)
		} else {
			res.Server = hists
		}
	}
	res.evaluateSLO(cfg.SLO)
	return res, ctx.Err()
}

// worker runs one Poisson arrival process over its sessions.
func (g *gen) worker(ctx context.Context, w int, sess []*session, nW float64, warmupEnd, measureEnd time.Time) {
	cfg := &g.cfg
	rng := rand.New(rand.NewSource(cfg.seed()*7919 + int64(w)))
	mean := float64(time.Second) * nW / cfg.Rate
	threshold := cfg.debtThreshold()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	next := time.Now()
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() * mean))
		if next.After(measureEnd) {
			return
		}
		now := time.Now()
		if d := next.Sub(now); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return
			}
		}
		measure := !next.Before(warmupEnd)
		if measure {
			g.st.intended.Add(1)
			if late := time.Since(next); late > 0 {
				g.st.noteDebt(late, threshold)
			}
		}
		g.fire(sess[rng.Intn(len(sess))], next, measure, rng)
	}
}

// fire issues one session's op at its intended arrival time.
func (g *gen) fire(s *session, intended time.Time, measure bool, rng *rand.Rand) {
	pc := s.pc
	if !s.writer {
		_ = pc.cl.DocLen()
		if measure {
			g.st.reads.Add(1)
		}
		return
	}
	sent := time.Now()
	dl := pc.cl.DocLen()
	var id opid.OpID
	var err error
	if dl > 8 && rng.Intn(4) == 0 {
		// Delete from the front half: concurrent sessions shrink the doc
		// under us, so leave margin before the position is validated.
		id, err = pc.cl.DeleteID(rng.Intn(dl / 2))
	} else {
		id, err = pc.cl.InsertID(s.val, rng.Intn(dl+1))
	}
	if err != nil {
		// A position race under concurrent edits is part of the workload,
		// not an error budget hit; retry once as a prepend, which can only
		// fail for terminal reasons.
		id, err = pc.cl.InsertID(s.val, 0)
	}
	if err != nil {
		if measure {
			g.st.errors.Add(1)
		}
		return
	}
	if measure {
		g.st.writes.Add(1)
	} else {
		g.st.warmup.Add(1)
	}
	g.docOps[pc.doc].Add(1)
	pc.track(&g.st, id, intended, sent, measure)
}

// drain quiesces the system and runs the runtime checks, folding problems
// into res.Failures.
func (g *gen) drain(ctx context.Context, res *Result) {
	cfg := &g.cfg
	dctx, cancel := context.WithTimeout(ctx, cfg.drain())
	defer cancel()

	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	// Write barrier: every generated op acknowledged, on every connection.
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, pc := range g.pool {
		wg.Add(1)
		go func(i int, pc *poolConn) {
			defer wg.Done()
			if err := pc.cl.Sync(dctx); err != nil {
				mu.Lock()
				fail("drain: conn %d (doc %d) sync: %v", i, pc.doc, err)
				mu.Unlock()
			}
		}(i, pc)
	}
	wg.Wait()

	// Read barrier: every connection of a document applies its full
	// serialization (docOps counts every successful generate on that doc).
	for di, idxs := range g.docConns {
		want := uint64(g.docOps[di].Load())
		if want == 0 {
			continue
		}
		for _, i := range idxs {
			pc := g.pool[i]
			wg.Add(1)
			go func(i int, pc *poolConn, want uint64) {
				defer wg.Done()
				if err := pc.cl.WaitServerSeq(dctx, want); err != nil {
					mu.Lock()
					fail("drain: conn %d (doc %d) wait seq %d (at %d): %v", i, pc.doc, want, pc.cl.ServerSeq(), err)
					mu.Unlock()
				}
			}(i, pc, want)
		}
	}
	wg.Wait()
	if len(res.Failures) > 0 {
		// Barriers failed; convergence and spec results would be noise.
		return
	}

	// Convergence: every connection of a document holds the same text.
	for di, idxs := range g.docConns {
		if len(idxs) < 2 {
			continue
		}
		want := g.pool[idxs[0]].cl.Text()
		for _, i := range idxs[1:] {
			if got := g.pool[i].cl.Text(); got != want {
				fail("drain: doc %d diverged between conns %d and %d (%d vs %d chars)",
					di, idxs[0], i, len(want), len(got))
			}
		}
	}

	// Sampled weak-spec runtime check: final reads, then the checkers.
	for di, rec := range g.sampled {
		for _, i := range g.docConns[di] {
			g.pool[i].cl.Read()
		}
		res.Spec.DocsSampled++
		doc := fmt.Sprintf("%s%03d", cfg.docPrefix(), di)
		if rec.overflowed() {
			res.Spec.Overflowed = append(res.Spec.Overflowed, doc)
			g.logf("loadgen: spec: doc %s overflowed %d events, check skipped", doc, cfg.specMaxEvents())
			continue
		}
		h := rec.history()
		res.Spec.DocsChecked++
		res.Spec.Events += h.Len()
		for _, v := range CheckHistory(doc, h) {
			res.Spec.Violations = append(res.Spec.Violations, v)
			fail("spec: %s", v)
		}
	}
	sort.Strings(res.Spec.Overflowed)
}

func (g *gen) baseResult() *Result {
	cfg := &g.cfg
	return &Result{
		Rate:     cfg.Rate,
		Docs:     cfg.Docs,
		Sessions: cfg.sessions(),
		Conns:    g.conns,
		Writers:  cfg.writerFrac(),
		ZipfS:    cfg.zipfS(),
		Seed:     cfg.seed(),
	}
}

// fillStats folds the counters and per-conn histograms into the result.
func (g *gen) fillStats(res *Result) {
	res.Ops = OpStats{
		Intended: g.st.intended.Load(),
		Writes:   g.st.writes.Load(),
		Reads:    g.st.reads.Load(),
		Acked:    g.st.acked.Load(),
		Errors:   g.st.errors.Load(),
		Warmup:   g.st.warmup.Load(),
	}
	res.CO = COStats{
		ThresholdMs: float64(g.cfg.debtThreshold()) / float64(time.Millisecond),
		DelayedOps:  g.st.delayed.Load(),
		MaxDebtMs:   float64(g.st.maxDebt.Load()) / float64(time.Millisecond),
		TotalDebtMs: float64(g.st.debtNs.Load()) / float64(time.Millisecond),
	}
	var e2e, ack metrics.Histogram
	for _, pc := range g.pool {
		e2e.Merge(&pc.e2e)
		ack.Merge(&pc.ack)
	}
	res.LatencyE2E = e2e.Snapshot()
	res.LatencyAck = ack.Snapshot()
}

// progress builds one live snapshot.
func (g *gen) progress(start time.Time, phase string) Progress {
	var e2e metrics.Histogram
	for _, pc := range g.pool {
		e2e.Merge(&pc.e2e)
	}
	return Progress{
		Elapsed:  time.Since(start),
		Phase:    phase,
		Intended: g.st.intended.Load(),
		Writes:   g.st.writes.Load(),
		Acked:    g.st.acked.Load(),
		Reads:    g.st.reads.Load(),
		Errors:   g.st.errors.Load(),
		Delayed:  g.st.delayed.Load(),
		E2E:      e2e.Snapshot(),
	}
}
