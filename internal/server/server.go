// Package server is jupiterd: a real TCP server runtime for the CSS Jupiter
// protocol.
//
// The paper's architecture (Section 4.4) is one central server and n clients
// connected by FIFO channels. Here the FIFO channels are TCP connections
// carrying internal/wire frames, and the central server is an Engine hosting
// many independent documents. Each document gets ONE serialized apply-loop
// goroutine wrapping a css.Server — the protocol object is never touched
// concurrently, exactly like the in-process harnesses — while connection
// readers and writers run on their own goroutines and communicate with the
// apply loop through a request queue.
//
// Sessions and resume. A client joins a document with a Hello frame. New
// clients (ClientID 0) are minted an identifier and rooted at the css join
// snapshot (css.Server.Snapshot + AddClient, atomic inside the apply loop).
// Every server→client frame carries a per-client frame sequence number; the
// engine retains sent frames in a per-client outbox until the client
// acknowledges them (Ack frames), so a reconnecting client that presents its
// last processed frame sequence replays only what it missed. Operations are
// deduplicated by the per-client operation sequence number, so clients can
// blindly resend everything unacknowledged after a reconnect.
//
// Backpressure. Each connection has a bounded outbound queue. A client that
// cannot keep up — its queue stays full — is disconnected rather than
// allowed to stall the document: its frames remain in the retained outbox
// and are replayed when it reconnects. Slow consumers therefore cost memory
// (their outbox) but never latency for everyone else.
//
// Shutdown. Shutdown stops the accept loop, tells every connection to go
// away, drains each document's queued requests through its apply loop, and
// joins every goroutine. Operations still in a kernel socket buffer at that
// moment are not lost: their clients never got a protocol acknowledgement
// and resend them on reconnect.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"jupiter/internal/core"
	"jupiter/internal/metrics"
	"jupiter/internal/opid"
	"jupiter/internal/wire"
)

// Config configures an Engine.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// MetricsAddr, when non-empty, serves the metrics registry as JSON over
	// HTTP on this address (any path).
	MetricsAddr string
	// MaxFrame caps wire frame bodies (0 = wire.DefaultMaxFrame).
	MaxFrame int
	// SendQueue is the per-connection outbound frame queue capacity; a
	// connection whose queue overflows is disconnected (0 = 256).
	SendQueue int
	// WriteTimeout bounds a single frame write (0 = 10s).
	WriteTimeout time.Duration
	// HelloTimeout bounds the wait for a connection's Hello (0 = 10s).
	HelloTimeout time.Duration
	// GCEvery, when > 0, runs the stability-frontier GC (AdvanceFrontier)
	// after every GCEvery serialized operations of a document. In a
	// replicated cluster every node must configure the same value.
	GCEvery int
	// NodeID names this node within Cluster; required when Cluster has more
	// than one entry.
	NodeID string
	// Cluster lists every node of a replicated deployment in PRIORITY ORDER
	// (first entry = initial leader, failover follows list order). Empty or
	// single-entry means standalone: no replication, no commit gating.
	Cluster []Peer
	// ReplRetry paces follower dial/scan retries and scales the replication
	// heartbeat and I/O deadlines (0 = 500ms). Chaos tests shrink it.
	ReplRetry time.Duration
	// Listener, when non-nil, is used instead of listening on Addr — lets a
	// test pre-bind every cluster node so peer addresses are known up front.
	Listener net.Listener
	// ShardID names this engine within a doc-sharded deployment. When set,
	// hellos carrying a different shard id are rejected with
	// wire.CodeWrongShard (the client's routing table is stale) and the id is
	// echoed in migration logs. Sharding and replication are orthogonal
	// deployments: a sharded engine must be standalone.
	ShardID string
	// MigrationToken, when non-empty, gates the placement plane: Migrate and
	// MigState frames must carry the same token or they are refused before
	// touching any document state. Every shard and the placement service of
	// one cluster share the token. Empty leaves the plane open (trusted
	// networks, tests).
	MigrationToken string
	// PersistDir, when non-empty on a STANDALONE engine, saves every hosted
	// document's full state there on graceful shutdown and reloads it on
	// first use, so a restarted server resumes client sessions instead of
	// rejecting them. Ignored on replicated engines (followers are the
	// replica mechanism there).
	PersistDir string
	// Recorder, when non-nil, records the server's do events into a shared
	// history (loopback tests run the weak-list checker over it). It must be
	// safe for concurrent use (core.LockedRecorder).
	Recorder core.Recorder
	// Logf, when non-nil, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

func (c *Config) sendQueue() int {
	if c.SendQueue <= 0 {
		return 256
	}
	return c.SendQueue
}

func (c *Config) writeTimeout() time.Duration {
	if c.WriteTimeout <= 0 {
		return 10 * time.Second
	}
	return c.WriteTimeout
}

func (c *Config) helloTimeout() time.Duration {
	if c.HelloTimeout <= 0 {
		return 10 * time.Second
	}
	return c.HelloTimeout
}

func (c *Config) replRetry() time.Duration {
	if c.ReplRetry <= 0 {
		return 500 * time.Millisecond
	}
	return c.ReplRetry
}

// Engine is the jupiterd server: an accept loop, one apply loop per hosted
// document, and the connection plumbing between them.
type Engine struct {
	cfg  Config
	reg  *metrics.Registry
	repl *replicator // nil on standalone engines

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	// docRate tracks per-document operation rates (the doc_ops_rate top-k
	// instrument) so operators can spot migration candidates.
	docRate *metrics.TopK

	mu     sync.Mutex
	docs   map[string]*docHost
	conns  map[*conn]struct{}
	moved  map[string]wire.Moved // docs migrated away: doc → new home hint
	closed bool

	wg sync.WaitGroup
}

// helloWithoutTag refuses a hello or repl_hello whose Codecs lacks the
// protocol's version tag (wire.CodecBinary): a protocol v1 peer, which would
// send JSON bodies and could not read batch frames.
const helloWithoutTag = "protocol v1 is not spoken here: hello must offer the " + wire.CodecBinary + " codec"

// ErrClosed is returned for operations on a shut-down engine.
var ErrClosed = errors.New("server: engine closed")

// New creates an engine; call Start to begin serving.
func New(cfg Config) *Engine {
	reg := metrics.NewRegistry()
	return &Engine{
		cfg:     cfg,
		reg:     reg,
		docRate: reg.TopK("doc_ops_rate"),
		docs:    make(map[string]*docHost),
		conns:   make(map[*conn]struct{}),
		moved:   make(map[string]wire.Moved),
	}
}

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Start binds the listeners and spawns the accept loop (and, on a replicated
// node, the replication loops).
func (e *Engine) Start() error {
	if len(e.cfg.Cluster) > 1 {
		found := false
		for _, p := range e.cfg.Cluster {
			if p.ID == e.cfg.NodeID {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("server: node id %q not in cluster", e.cfg.NodeID)
		}
		e.repl = newReplicator(e)
	}
	ln := e.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", e.cfg.Addr)
		if err != nil {
			return fmt.Errorf("server: listen: %w", err)
		}
	}
	e.ln = ln
	if e.cfg.MetricsAddr != "" {
		hln, err := net.Listen("tcp", e.cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("server: metrics listen: %w", err)
		}
		e.httpLn = hln
		e.httpSrv = &http.Server{Handler: e.reg.Handler()}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			_ = e.httpSrv.Serve(hln)
		}()
	}
	e.wg.Add(1)
	go e.acceptLoop()
	if e.repl != nil {
		e.repl.start()
	}
	return nil
}

// Addr returns the bound protocol listen address.
func (e *Engine) Addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// MetricsAddr returns the bound metrics address ("" when disabled).
func (e *Engine) MetricsAddr() string {
	if e.httpLn == nil {
		return ""
	}
	return e.httpLn.Addr().String()
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

func (e *Engine) acceptLoop() {
	defer e.wg.Done()
	for {
		nc, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			nc.Close()
			return
		}
		c := newConn(e, nc)
		e.conns[c] = struct{}{}
		e.mu.Unlock()
		e.reg.Counter("connections_total").Inc()
		e.reg.Gauge("clients_connected").Add(1)
		e.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// host returns the apply loop for a document, creating it on first use. A
// document this shard migrated away is never re-hosted: the lookup fails
// with a *movedError carrying the new home, checked in the same critical
// section that would create the host — so a hello racing the migration's
// not-hosted handoff cannot fork the document by creating a live copy on
// the source after the moved hint was recorded.
func (e *Engine) host(doc string) (*docHost, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if mv, ok := e.moved[doc]; ok {
		return nil, &movedError{hint: mv}
	}
	return e.hostLocked(doc)
}

// hostLocked is host without the closed/moved gate; the caller holds e.mu.
func (e *Engine) hostLocked(doc string) (*docHost, error) {
	h, ok := e.docs[doc]
	if !ok {
		h = newDocHost(e, doc)
		if e.persistEnabled() {
			if err := h.loadPersisted(); err != nil {
				e.logf("%v", err)
				return nil, err
			}
		}
		e.docs[doc] = h
		e.reg.Gauge("docs_open").Add(1)
		e.wg.Add(1)
		go h.run()
	}
	return h, nil
}

// dropConn removes a connection from the engine's tracking.
func (e *Engine) dropConn(c *conn) {
	e.mu.Lock()
	if _, ok := e.conns[c]; ok {
		delete(e.conns, c)
		e.reg.Gauge("clients_connected").Add(-1)
	}
	e.mu.Unlock()
}

// Shutdown gracefully stops the engine: no new connections, every open
// connection told to go away, each document's queued requests drained
// through its apply loop, all goroutines joined. The context bounds the
// whole drain; on expiry remaining goroutines are abandoned and an error is
// returned.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	conns := make([]*conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	docs := make([]*docHost, 0, len(e.docs))
	for _, h := range e.docs {
		docs = append(docs, h)
	}
	e.mu.Unlock()

	e.ln.Close()
	if e.httpSrv != nil {
		_ = e.httpSrv.Close()
	}
	for _, c := range conns {
		c.shutdown()
	}
	if e.repl != nil {
		e.repl.stop()
	}
	for _, h := range docs {
		h.stop()
	}

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return e.persistDocs(docs)
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}

// Kill is the fail-stop counterpart of Shutdown: listener and sockets torn
// down at once, no notices, no drain past what is already queued, nothing
// persisted. It is how tests (and chaos suites) crash a node.
func (e *Engine) Kill() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	conns := make([]*conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	docs := make([]*docHost, 0, len(e.docs))
	for _, h := range e.docs {
		docs = append(docs, h)
	}
	e.mu.Unlock()

	e.ln.Close()
	if e.httpSrv != nil {
		_ = e.httpSrv.Close()
	}
	for _, c := range conns {
		c.close()
	}
	if e.repl != nil {
		e.repl.stop()
	}
	for _, h := range docs {
		h.stop()
	}
	e.wg.Wait()
}

// DocState is a synchronous view of a hosted document, produced inside its
// apply loop (so it is consistent with the serialization order).
type DocState struct {
	Doc     string
	Seq     uint64 // operations serialized so far
	Clients int    // registered client sessions (connected or not)
	Text    string // current document value
}

// DocState reports a hosted document's state, or false if the engine does
// not host it (querying never creates a document).
func (e *Engine) DocState(doc string) (DocState, bool) {
	e.mu.Lock()
	h, ok := e.docs[doc]
	e.mu.Unlock()
	if !ok {
		return DocState{}, false
	}
	return h.state()
}

// DocSerialized reports a hosted document's serialization order (operation
// identities in global sequence order), consistent with the apply loop.
func (e *Engine) DocSerialized(doc string) ([]opid.OpID, bool) {
	e.mu.Lock()
	h, ok := e.docs[doc]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	var ids []opid.OpID
	if !h.call(func() { ids = h.srv.Serialized() }) {
		return nil, false
	}
	return ids, true
}

// ---------------------------------------------------------------- conn ----

// conn is one client TCP connection. The read loop parses frames and routes
// them to the document's apply loop; the write loop drains the bounded send
// queue. The apply loop never blocks on a connection: enqueueing to a full
// send queue disconnects the offender instead.
type conn struct {
	eng   *Engine
	nc    net.Conn
	codec *wire.Stream

	sendCh chan outFrame

	closeOnce sync.Once
	closedCh  chan struct{}

	// Set by the read loop after a successful Hello; read by the apply loop
	// only from inside closures it executes (no lock needed there), and
	// guarded by attachMu for the conn's own goroutines.
	attachMu sync.Mutex
	host     *docHost
	clientID int32
}

// outFrame is one entry of a connection's send queue: either a frame for
// the stream to encode, or a pre-encoded body to write verbatim (welcomes,
// the outbox byte cache and batch composition).
type outFrame struct {
	f   *wire.Frame
	raw []byte
}

func newConn(e *Engine, nc net.Conn) *conn {
	return &conn{
		eng:      e,
		nc:       nc,
		codec:    wire.NewStream(nc, e.cfg.MaxFrame),
		sendCh:   make(chan outFrame, e.cfg.sendQueue()),
		closedCh: make(chan struct{}),
	}
}

// enqueue appends a frame for the write loop; it reports false (without
// blocking) when the queue is full or the connection is closed.
func (c *conn) enqueue(f *wire.Frame) bool {
	return c.enqueueOut(outFrame{f: f})
}

// enqueueRaw appends a pre-encoded frame body for the write loop, which
// prefixes and ships it without re-encoding.
func (c *conn) enqueueRaw(body []byte) bool {
	return c.enqueueOut(outFrame{raw: body})
}

func (c *conn) enqueueOut(of outFrame) bool {
	select {
	case <-c.closedCh:
		return false
	default:
	}
	select {
	case c.sendCh <- of:
		c.eng.reg.Histogram("send_queue_depth").Observe(time.Duration(len(c.sendCh)) * time.Microsecond)
		return true
	default:
		return false
	}
}

// flushBudget is the write deadline of a frame shipped during teardown: long
// enough for a reject notice to reach a live peer, short enough that a stuck
// one cannot delay engine shutdown.
const flushBudget = 500 * time.Millisecond

// close initiates teardown once; safe from any goroutine, never blocks. The
// reader is unblocked via an immediate read deadline; the write loop owns
// the socket close, flushing already-queued frames (error notices) first.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		// Only the read side gets a deadline in the past. This can run after
		// the write loop armed the deadline of a queued notice, so an
		// in-flight write is cut down to the flush budget, never to nothing —
		// or a refused peer sees EOF with no reason.
		now := time.Now()
		_ = c.nc.SetReadDeadline(now)
		_ = c.nc.SetWriteDeadline(now.Add(flushBudget))
	})
}

// shutdown is close preceded by a best-effort notification; the small delay
// lets the write loop flush the notice before the socket goes away.
func (c *conn) shutdown() {
	c.enqueue(&wire.Frame{Type: wire.TError, Error: &wire.Error{Code: wire.CodeShutdown, Msg: "server shutting down"}})
	time.AfterFunc(50*time.Millisecond, c.close)
}

// writeFrame sends one frame with the given deadline budget.
func (c *conn) writeFrame(of outFrame, budget time.Duration) bool {
	_ = c.nc.SetWriteDeadline(time.Now().Add(budget))
	var err error
	if of.raw != nil {
		err = c.codec.WriteRaw(of.raw)
	} else {
		err = c.codec.Write(of.f)
	}
	if err != nil {
		return false
	}
	c.eng.reg.Counter("frames_out").Inc()
	return true
}

// teardown closes the socket and deregisters; write-loop only.
func (c *conn) teardown() {
	c.nc.Close()
	c.eng.dropConn(c)
}

func (c *conn) writeLoop() {
	defer c.eng.wg.Done()
	defer c.teardown()
	for {
		select {
		case f := <-c.sendCh:
			if !c.writeFrame(f, c.eng.cfg.writeTimeout()) {
				c.close()
				return
			}
		case <-c.closedCh:
			// Flush the frames queued before the close (reject notices and
			// the like), each on the flush budget.
			for {
				select {
				case f := <-c.sendCh:
					if !c.writeFrame(f, flushBudget) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

func (c *conn) readLoop() {
	defer c.eng.wg.Done()
	defer c.close()
	defer func() {
		// Detach from the document so the apply loop stops targeting this
		// connection (the session itself stays registered for resume).
		c.attachMu.Lock()
		h, id := c.host, c.clientID
		c.attachMu.Unlock()
		if h != nil {
			h.detach(c, id)
		}
	}()

	// The first frame must be a Hello, promptly.
	_ = c.nc.SetReadDeadline(time.Now().Add(c.eng.cfg.helloTimeout()))
	f, err := c.codec.Read()
	if err != nil {
		c.eng.reg.Counter("bad_handshakes_total").Inc()
		return
	}
	if f.Type == wire.TReplHello {
		// A cluster peer, not a client: the replicator owns the connection
		// from here (reply, stream, acks).
		if c.eng.repl == nil {
			c.reject(wire.CodeProtocol, "not a replicated node")
			return
		}
		_ = c.nc.SetReadDeadline(time.Time{})
		c.eng.repl.handlePeer(c, *f.ReplHello)
		return
	}
	if f.Type == wire.TMigrate || f.Type == wire.TMigState {
		// A placement-plane peer (jupiterplace driving a migration, or a
		// source shard transferring a document), not a client.
		_ = c.nc.SetReadDeadline(time.Time{})
		c.adminLoop(f)
		return
	}
	if f.Type != wire.THello {
		c.reject(wire.CodeProtocol, "first frame must be hello")
		return
	}
	if !slices.Contains(f.Hello.Codecs, wire.CodecBinary) {
		c.reject(wire.CodeProtocol, helloWithoutTag)
		return
	}
	if r := c.eng.repl; r != nil {
		if ok, hint := r.allowClient(); !ok {
			c.eng.reg.Counter("not_leader_rejects_total").Inc()
			c.enqueue(&wire.Frame{Type: wire.TError, Error: &wire.Error{
				Code: wire.CodeNotLeader, Msg: "not the serving leader", Leader: hint,
			}})
			c.close()
			return
		}
	}
	if sid := c.eng.cfg.ShardID; sid != "" && f.Hello.Shard != "" && f.Hello.Shard != sid {
		// The client's routing table is stale: it thinks this address belongs
		// to another shard. Terminal here; the client refetches the table.
		c.eng.reg.Counter("wrong_shard_rejects_total").Inc()
		c.reject(wire.CodeWrongShard, "this is shard "+sid+", not "+f.Hello.Shard)
		return
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	h, err := c.eng.host(f.Hello.Doc)
	if err != nil {
		var mv *movedError
		if errors.As(err, &mv) {
			// The document migrated away; point the client at its new home.
			c.eng.reg.Counter("moved_hints_total").Inc()
			c.enqueue(&wire.Frame{Type: wire.TMoved, Moved: &mv.hint})
			c.close()
			return
		}
		c.reject(wire.CodeShutdown, "server shutting down")
		return
	}
	joined, id := h.join(c, *f.Hello)
	if !joined {
		return // join already sent the error frame
	}
	c.attachMu.Lock()
	c.host, c.clientID = h, id
	c.attachMu.Unlock()

	for {
		f, err := c.codec.Read()
		if err != nil {
			return
		}
		c.eng.reg.Counter("frames_in").Inc()
		switch f.Type {
		case wire.TOp:
			if int32(f.Op.Msg.From) != id {
				c.reject(wire.CodeProtocol, "op from foreign client id")
				return
			}
			h.submitOp(c, f.Op.Msg)
		case wire.TOpBatch:
			for i := range f.OpBatch.Msgs {
				if int32(f.OpBatch.Msgs[i].From) != id {
					c.reject(wire.CodeProtocol, "op from foreign client id")
					return
				}
			}
			h.submitOps(c, f.OpBatch.Msgs)
		case wire.TAck:
			h.submitAck(id, f.Ack.Seq)
		case wire.TBye:
			return
		default:
			c.reject(wire.CodeProtocol, "unexpected frame type "+f.Type)
			return
		}
	}
}

// reject queues a terminal error frame (flushed best-effort by the write
// loop during teardown) and initiates the close. Never blocks, so it is safe
// from the apply loop.
func (c *conn) reject(code, msg string) {
	c.eng.reg.Counter("rejects_total").Inc()
	c.enqueue(&wire.Frame{Type: wire.TError, Error: &wire.Error{Code: code, Msg: msg}})
	c.close()
}
