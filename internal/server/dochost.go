package server

import (
	"time"

	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/replog"
	"jupiter/internal/wire"
)

// docHost runs one document: a css.Server owned exclusively by a single
// apply-loop goroutine. Connection readers submit work as closures on the
// request queue; the loop executes them serially, which IS the protocol's
// serialization order. Submitters block when the queue is full — that is
// the natural backpressure path for a client producing faster than the
// document can apply (its own TCP reader stalls; nobody else's does).
type docHost struct {
	eng  *Engine
	name string

	reqs   chan func()
	stopCh chan struct{}

	// Everything below is owned by the apply loop.
	srv     *css.Server
	clients map[opid.ClientID]*clientSlot
	nextID  int32

	// migrating freezes the document while its state transfers to another
	// shard: joins and ops are rejected with the retryable backpressure code,
	// so clients back off, re-route, and resume on the new home. Set on the
	// apply loop; cleared only if the transfer fails.
	migrating bool

	// pending holds, per log index, the outputs computed at APPLY time but
	// not releasable to clients until the entry COMMITS (replicated engines
	// only). Apply and release both run on this loop; the replicator's
	// release goroutine merely submits the closures.
	pending map[uint64]*pendingRelease

	// flushQ lists clients with frames delivered but not yet shipped; the
	// run loop flushes it after draining a burst of requests, so frames
	// produced by consecutive operations coalesce into batch frames.
	flushQ      []opid.ClientID
	frameBudget int // soft byte cap for one composed batch frame
}

// batchMax bounds how many srv frames coalesce into one srvb batch frame,
// and how many queued requests the apply loop drains before it flushes.
const batchMax = 32

// pendingRelease is one applied-but-uncommitted log entry's deferred output:
// the srv frames it produced and, for a join on the leader, the encoded
// welcome owed to the connection that joined.
type pendingRelease struct {
	outs    []css.Addressed
	welcome []byte
	joinID  opid.ClientID
	conn    *conn
}

// outEntry is one retained outbox frame plus its encoded body, cached so
// that resends (resume replay) and batch composition never re-marshal.
type outEntry struct {
	fr  wire.Server
	enc []byte
}

// clientSlot is one client session: the retained outbox keyed by frame
// sequence numbers, the resume/dedup bookkeeping, and the currently attached
// connection (nil while the client is away).
type clientSlot struct {
	id opid.ClientID

	// outbox holds every frame sent but not yet acknowledged, in frame-seq
	// order; outbox[0].fr.Seq == ackedSeq+1 whenever non-empty.
	outbox   []outEntry
	nextSeq  uint64 // last frame sequence assigned
	ackedSeq uint64 // highest frame sequence the client confirmed

	lastOpSeq uint64 // highest operation sequence received (dedup on resend)

	// pendingN counts outbox tail entries delivered but not yet flushed to
	// the connection; buffered marks membership in the host's flush queue.
	pendingN int
	buffered bool

	conn *conn
}

func newDocHost(e *Engine, name string) *docHost {
	maxFrame := e.cfg.MaxFrame
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxFrame
	}
	h := &docHost{
		eng:         e,
		name:        name,
		reqs:        make(chan func(), 1024),
		stopCh:      make(chan struct{}),
		srv:         css.NewServer(nil, nil, e.cfg.Recorder),
		clients:     make(map[opid.ClientID]*clientSlot),
		pending:     make(map[uint64]*pendingRelease),
		frameBudget: maxFrame / 2,
	}
	h.srv.UseCompactContexts() // what every client replica sends
	return h
}

func (h *docHost) run() {
	defer h.eng.wg.Done()
	for {
		select {
		case f := <-h.reqs:
			f()
			// Opportunistically drain a bounded burst of already-queued
			// requests before flushing, so frames produced by consecutive
			// operations coalesce into batch frames. Bounded by batchMax:
			// a hot document still flushes regularly.
		drain:
			for n := 0; n < batchMax; n++ {
				select {
				case g := <-h.reqs:
					g()
				default:
					break drain
				}
			}
			h.flush()
		case <-h.stopCh:
			// Drain whatever was already queued, then exit.
			for {
				select {
				case f := <-h.reqs:
					f()
				default:
					h.flush()
					return
				}
			}
		}
	}
}

func (h *docHost) stop() { close(h.stopCh) }

// submit enqueues a closure for the apply loop, giving up when the host is
// stopping. Blocking on a full queue is intentional (see type comment).
func (h *docHost) submit(f func()) bool {
	select {
	case h.reqs <- f:
		return true
	case <-h.stopCh:
		return false
	}
}

// call runs a closure on the apply loop and waits for it.
func (h *docHost) call(f func()) bool {
	done := make(chan struct{})
	if !h.submit(func() { f(); close(done) }) {
		return false
	}
	select {
	case <-done:
		return true
	case <-h.stopCh:
		// The loop may still execute the request during its drain; wait a
		// bounded moment for the result before giving up.
		select {
		case <-done:
			return true
		case <-time.After(time.Second):
			return false
		}
	}
}

// ---------------------------------------------------------- join/resume ----

// join handles a Hello for this document: minting a new client session or
// resuming an existing one. It reports whether the connection is attached
// and under which client id; on failure the error frame has already been
// sent.
func (h *docHost) join(c *conn, hello wire.Hello) (bool, int32) {
	var ok bool
	var id int32
	if !h.call(func() { ok, id = h.doJoin(c, hello) }) {
		return false, 0
	}
	return ok, id
}

func (h *docHost) doJoin(c *conn, hello wire.Hello) (bool, int32) {
	if h.migrating {
		c.reject(wire.CodeBackpressed, "document migrating")
		return false, 0
	}
	if hello.ClientID == 0 {
		return h.doJoinNew(c)
	}
	return h.doResume(c, hello)
}

func (h *docHost) doJoinNew(c *conn) (bool, int32) {
	h.nextID++
	id := opid.ClientID(h.nextID)
	// The welcome is encoded once, here: the same bytes feed the snapshot
	// size metrics and go to the socket.
	welcome, err := wire.EncodeWith(wire.BinaryCodec, &wire.Frame{Type: wire.TWelcome, Welcome: &wire.Welcome{
		ClientID: int32(id), Snapshot: h.srv.Snapshot(), Codec: wire.CodecBinary,
	}})
	if err == nil {
		err = h.srv.AddClient(id)
	}
	if err != nil {
		c.reject(wire.CodeProtocol, "join: "+err.Error())
		return false, 0
	}
	h.clients[id] = &clientSlot{id: id, conn: c}
	h.eng.reg.Counter("snapshot_bytes_total").Add(int64(len(welcome)))
	h.eng.reg.Gauge("snapshot_bytes_last").Set(int64(len(welcome)))
	if r := h.eng.repl; r != nil {
		// Replicated: the session is only durable once a majority holds the
		// join entry, so the welcome waits for commit. A session the client
		// knows about (welcome received) therefore survives failover.
		idx := r.appendEntry(replog.Entry{Kind: replog.KindJoin, Doc: h.name, ClientID: int32(id)})
		h.pending[idx] = &pendingRelease{welcome: welcome, joinID: id, conn: c}
		h.eng.logf("doc %q: new client c%d from %s (join at log %d)", h.name, id, c.nc.RemoteAddr(), idx)
		return true, int32(id)
	}
	if !c.enqueueRaw(welcome) {
		h.clients[id].conn = nil
		c.close()
		return false, 0
	}
	h.eng.reg.Counter("joins_total").Inc()
	h.eng.logf("doc %q: new client c%d from %s", h.name, id, c.nc.RemoteAddr())
	return true, int32(id)
}

func (h *docHost) doResume(c *conn, hello wire.Hello) (bool, int32) {
	id := opid.ClientID(hello.ClientID)
	slot, ok := h.clients[id]
	if !ok {
		c.reject(wire.CodeBadResume, "unknown client session")
		return false, 0
	}
	if hello.LastFrameSeq < slot.ackedSeq || hello.LastFrameSeq > slot.nextSeq {
		c.reject(wire.CodeBadResume, "resume point outside retained window")
		return false, 0
	}
	if slot.conn != nil && slot.conn != c {
		// Latest connection wins; the stale one is cut.
		slot.conn.close()
		slot.conn = nil
	}
	// The resume point doubles as an acknowledgement.
	h.trimOutbox(slot, hello.LastFrameSeq)
	slot.conn = c
	// The replay below covers the whole retained outbox, including any tail
	// not yet flushed to the previous connection — clear the flush debt so
	// the next flush does not ship those frames twice.
	slot.pendingN = 0
	if !c.enqueue(&wire.Frame{Type: wire.TWelcome, Welcome: &wire.Welcome{ClientID: int32(id), Resume: true, Codec: wire.CodecBinary}}) {
		slot.conn = nil
		c.close()
		return false, 0
	}
	// Replay the missed suffix. The send queue bounds one round of replay;
	// an outbox larger than the queue disconnects the client partway, and
	// the next resume continues from its new ack point — progress is
	// monotone because the client acks what it got.
	h.shipFrames(slot, slot.outbox)
	if slot.conn == nil {
		return false, 0
	}
	h.eng.reg.Counter("resumes_total").Inc()
	h.eng.logf("doc %q: c%d resumed at frame %d (%d replayed) from %s",
		h.name, id, hello.LastFrameSeq, len(slot.outbox), c.nc.RemoteAddr())
	return true, int32(id)
}

// ------------------------------------------------------------- op / ack ----

// submitOp routes one client operation to the apply loop. The elapsed time
// between enqueue and execution is recorded as apply_queue_wait: under open
// load the interesting server-side latency is this queueing delay, not the
// (fast, E11) transformation itself.
func (h *docHost) submitOp(c *conn, msg css.ClientMsg) {
	t0 := time.Now()
	h.submit(func() {
		h.eng.reg.Histogram("apply_queue_wait").Observe(time.Since(t0))
		h.doOp(c, msg)
	})
}

// submitOps routes one op batch to the apply loop as a single request: the
// whole batch applies in one queue slot, and its broadcasts coalesce into
// the same flush. Queue wait is recorded once per batch (it is a property
// of the queue slot, not of each op).
func (h *docHost) submitOps(c *conn, msgs []css.ClientMsg) {
	t0 := time.Now()
	h.submit(func() {
		h.eng.reg.Histogram("apply_queue_wait").Observe(time.Since(t0))
		for i := range msgs {
			if !h.doOp(c, msgs[i]) {
				return
			}
		}
	})
}

// doOp applies one client operation; it reports false when the connection
// was cut or superseded (a batch stops at the first failure).
func (h *docHost) doOp(c *conn, msg css.ClientMsg) bool {
	slot, ok := h.clients[msg.From]
	if !ok || slot.conn != c {
		return false // stale connection; the client has moved on
	}
	if h.migrating {
		// The exported blob will not contain this op; reject retryably so the
		// client resends it (its own ClientID + op seq, deduplicated) on the
		// target shard after re-routing.
		c.reject(wire.CodeBackpressed, "document migrating")
		slot.conn = nil
		return false
	}
	if msg.Op.ID.Seq <= slot.lastOpSeq {
		h.eng.reg.Counter("dedup_dropped_total").Inc()
		return true // duplicate resend after reconnect
	}
	if msg.Op.ID.Seq != slot.lastOpSeq+1 {
		// A gap in the client's own operation sequence means the transport
		// lost a frame while the stream stayed up — FIFO is broken. Cut the
		// connection without touching the document; the client's reconnect
		// replay is contiguous from lastOpSeq+1.
		h.eng.reg.Counter("op_gap_disconnects_total").Inc()
		h.eng.logf("doc %q: c%d: op seq gap (got %d, want %d), disconnecting",
			h.name, slot.id, msg.Op.ID.Seq, slot.lastOpSeq+1)
		c.reject(wire.CodeOpGap, "operation sequence gap: transport dropped a frame")
		slot.conn = nil
		c.close()
		return false
	}
	t0 := time.Now()
	outs, err := h.srv.Receive(msg)
	if err != nil {
		h.eng.reg.Counter("protocol_errors_total").Inc()
		h.eng.logf("doc %q: c%d: %v", h.name, slot.id, err)
		c.reject(wire.CodeProtocol, err.Error())
		slot.conn = nil
		c.close()
		return false
	}
	h.eng.reg.Histogram("apply_latency").Observe(time.Since(t0))
	h.eng.reg.Counter("ops_applied").Inc()
	h.eng.docRate.Inc(h.name)
	slot.lastOpSeq = msg.Op.ID.Seq
	outs = h.foldFrontier(outs)
	if r := h.eng.repl; r != nil {
		// Replicated: hold the outputs until a majority holds the entry.
		idx := r.appendEntry(replog.Entry{Kind: replog.KindOp, Doc: h.name, Msg: &msg})
		h.pending[idx] = &pendingRelease{outs: outs}
		return true
	}
	for _, out := range outs {
		h.deliver(out.To, out.Msg)
	}
	return true
}

// foldFrontier appends the GC-frontier messages (if due) to an operation's
// outputs. Deterministic given the op stream and GCEvery, so leader and
// followers fold identically.
func (h *docHost) foldFrontier(outs []css.Addressed) []css.Addressed {
	if h.eng.cfg.GCEvery <= 0 || h.srv.SeqOf()%uint64(h.eng.cfg.GCEvery) != 0 {
		return outs
	}
	fouts, err := h.srv.AdvanceFrontier()
	if err != nil {
		h.eng.reg.Counter("protocol_errors_total").Inc()
		h.eng.logf("doc %q: frontier: %v", h.name, err)
		return outs
	}
	return append(outs, fouts...)
}

// ------------------------------------------------------- replication ----

// applyReplicated integrates one replicated log entry on a follower, exactly
// as the leader's apply loop did: same css mutations, same outputs, same
// per-client bookkeeping — parked in pending until the entry commits.
func (h *docHost) applyReplicated(e replog.Entry) {
	switch e.Kind {
	case replog.KindJoin:
		id := opid.ClientID(e.ClientID)
		if e.ClientID > h.nextID {
			h.nextID = e.ClientID
		}
		if err := h.srv.AddClient(id); err != nil {
			h.eng.reg.Counter("repl_apply_errors_total").Inc()
			h.eng.logf("doc %q: replicated join c%d: %v", h.name, id, err)
			return
		}
		h.clients[id] = &clientSlot{id: id}
		h.pending[e.Index] = &pendingRelease{}
	case replog.KindOp:
		msg := *e.Msg
		outs, err := h.srv.Receive(msg)
		if err != nil {
			// The leader applied this successfully; failing here means the
			// replicas diverged. Loud counter, skip the entry.
			h.eng.reg.Counter("repl_apply_errors_total").Inc()
			h.eng.logf("doc %q: replicated op %s: %v", h.name, msg.Op.ID, err)
			return
		}
		if slot, ok := h.clients[msg.From]; ok && msg.Op.ID.Seq > slot.lastOpSeq {
			slot.lastOpSeq = msg.Op.ID.Seq
		}
		h.eng.reg.Counter("ops_applied").Inc()
		h.eng.docRate.Inc(h.name)
		h.pending[e.Index] = &pendingRelease{outs: h.foldFrontier(outs)}
	}
}

// release ships one committed entry's held outputs: the leader's welcome (if
// the joining connection is still the attached one) and the srv frames, which
// stamp per-client frame sequences in commit order — identical on every node.
func (h *docHost) release(idx uint64) {
	p, ok := h.pending[idx]
	if !ok {
		return
	}
	delete(h.pending, idx)
	if p.welcome != nil {
		slot := h.clients[p.joinID]
		if slot != nil && p.conn != nil && slot.conn == p.conn {
			if c := slot.conn; !c.enqueueRaw(p.welcome) {
				slot.conn = nil
				c.close()
			} else {
				h.eng.reg.Counter("joins_total").Inc()
			}
		}
	}
	for _, out := range p.outs {
		h.deliver(out.To, out.Msg)
	}
}

// deliver stamps the next frame sequence for the target client and retains
// the frame in its outbox. Nothing touches the connection here: the frame is
// counted against the slot's unflushed tail, and the run loop's flush ships
// the whole tail at once — one batch frame instead of one frame per op.
func (h *docHost) deliver(to opid.ClientID, msg css.ServerMsg) {
	slot, ok := h.clients[to]
	if !ok {
		return
	}
	slot.nextSeq++
	slot.outbox = append(slot.outbox, outEntry{fr: wire.Server{Seq: slot.nextSeq, Msg: msg}})
	h.eng.reg.Gauge("outbox_frames").Add(1)
	if slot.conn == nil {
		return
	}
	slot.pendingN++
	if !slot.buffered {
		slot.buffered = true
		h.flushQ = append(h.flushQ, to)
	}
}

// flush ships every buffered client's unflushed outbox tail. Runs on the
// apply loop after each drained burst of requests.
func (h *docHost) flush() {
	if len(h.flushQ) == 0 {
		return
	}
	q := h.flushQ
	h.flushQ = h.flushQ[:0]
	for _, id := range q {
		slot, ok := h.clients[id]
		if !ok {
			continue
		}
		slot.buffered = false
		n := slot.pendingN
		slot.pendingN = 0
		if n == 0 || slot.conn == nil {
			continue
		}
		h.eng.reg.Histogram("batched_ops_per_flush").Observe(time.Duration(n) * time.Microsecond)
		h.shipFrames(slot, slot.outbox[len(slot.outbox)-n:])
	}
}

// body returns the entry's encoded srv frame body (nil when it cannot be
// encoded), caching it on the entry so resume replays and batch composition
// never re-marshal an already-encoded frame.
func (e *outEntry) body() []byte {
	if e.enc == nil {
		body, err := wire.EncodeWith(wire.BinaryCodec, &wire.Frame{Type: wire.TServer, Server: &e.fr})
		if err != nil {
			return nil
		}
		e.enc = body
	}
	return e.enc
}

// shipFrames forwards a run of retained outbox entries to the slot's live
// connection as srvb batch frames, composed from the cached per-frame bodies
// without re-encoding and chunked by batchMax and a byte budget (a chunk of
// one ships as the plain srv frame it already is). A full send queue
// disconnects the target (backpressure policy); the frames stay retained for
// resume.
func (h *docHost) shipFrames(slot *clientSlot, entries []outEntry) {
	c := slot.conn
	if c == nil || len(entries) == 0 {
		return
	}
	cut := func() {
		h.eng.reg.Counter("backpressure_disconnects_total").Inc()
		h.eng.logf("doc %q: c%d too slow, disconnecting", h.name, slot.id)
		c.close()
		slot.conn = nil
	}
	for start := 0; start < len(entries); {
		end, total := start, 0
		for end < len(entries) && end-start < batchMax {
			body := entries[end].body()
			if body == nil {
				cut()
				return
			}
			if end > start && total+len(body) > h.frameBudget {
				break
			}
			total += len(body)
			end++
		}
		chunk := entries[start:end]
		body := chunk[0].enc
		if len(chunk) > 1 {
			// Compose the batch body from the cached inner bodies — the srvb
			// layout embeds complete srv frame bodies verbatim.
			bodies := make([][]byte, len(chunk))
			for i := range chunk {
				bodies[i] = chunk[i].enc
			}
			body = wire.AppendServerBatchRaw(nil, bodies)
			h.eng.reg.Counter("batch_frames_total").Inc()
		}
		if !c.enqueueRaw(body) {
			cut()
			return
		}
		start = end
	}
}

// submitAck trims the client's retained outbox up to seq.
func (h *docHost) submitAck(id int32, seq uint64) {
	h.submit(func() {
		slot, ok := h.clients[opid.ClientID(id)]
		if !ok {
			return
		}
		h.trimOutbox(slot, seq)
	})
}

func (h *docHost) trimOutbox(slot *clientSlot, seq uint64) {
	if seq <= slot.ackedSeq {
		return
	}
	n := 0
	for n < len(slot.outbox) && slot.outbox[n].fr.Seq <= seq {
		n++
	}
	if n > 0 {
		slot.outbox = append(slot.outbox[:0:0], slot.outbox[n:]...)
		h.eng.reg.Gauge("outbox_frames").Add(int64(-n))
	}
	slot.ackedSeq = seq
}

// detach clears the connection pointer when a reader exits; the session and
// its outbox remain for resume.
func (h *docHost) detach(c *conn, id int32) {
	h.submit(func() {
		slot, ok := h.clients[opid.ClientID(id)]
		if ok && slot.conn == c {
			slot.conn = nil
		}
	})
}

// state produces a consistent document snapshot for DocState.
func (h *docHost) state() (DocState, bool) {
	var st DocState
	ok := h.call(func() {
		st = DocState{
			Doc:     h.name,
			Seq:     h.srv.SeqOf(),
			Clients: len(h.clients),
			Text:    list.Render(h.srv.Document()),
		}
	})
	return st, ok
}
