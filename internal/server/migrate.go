package server

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"time"

	"jupiter/internal/wire"
)

// Live document migration between shards.
//
// A document moves between standalone jupiterd shards through a
// freeze-transfer-redirect protocol driven by the placement service:
//
//  1. jupiterplace connects to the SOURCE shard and sends a Migrate frame.
//  2. The source freezes the document inside its apply loop: the migrating
//     flag makes every subsequent join and op fail with the retryable
//     backpressure code, and — because the flag is set by the same serialized
//     loop that applies ops — everything accepted before the freeze is in
//     the exported state, everything after is rejected. There is no window
//     where an op is both applied and absent from the transfer.
//  3. The frozen state (the persistence blob: css server + every client
//     session's outbox, frame-seq counters, and dedup watermark) is sent to
//     the TARGET shard as a MigState frame. The target installs it and acks.
//  4. The source retires the document: attached clients are cut with a Moved
//     hint, later hellos for the doc get the same hint, and the placement
//     service records an override so new lookups route to the target.
//
// Clients experience the migration as a reconnect: the resume protocol
// (client id + last frame seq + blind resend, deduplicated by the
// transferred watermark) guarantees no operation is lost or applied twice —
// the same argument as a server restart from PersistDir, with the restart
// happening on a different process.
//
// Failure is safe on both sides. If the transfer fails, the source
// unfreezes and remains authoritative; the target may hold a stale installed
// copy, but nothing routes to it, and a retried transfer replaces it (the
// target only refuses replacement once clients have attached — at which
// point the copy is live and the SOURCE's retry is wrong). If the transfer
// succeeds but the ack back to jupiterplace is lost, the source has already
// retired the doc and serves Moved hints forever, so clients still converge
// on the target even while placement believes the migration failed.
//
// The transfer rides the ordinary wire layer, so the blob must fit in one
// frame (MaxFrame, default 8 MiB). Its size is O(operations past the GC
// frontier), not O(states × operations) — see exportState. Bigger blobs need
// a chunked transfer; the protocol leaves room (MigState frames are
// self-delimiting) but the implementation keeps the single-frame
// simplification.

// adminLoop services a placement-plane connection: a Migrate command from
// jupiterplace (this shard is the migration source) or a MigState transfer
// from a peer shard (this shard is the target). Acks ride the normal write
// loop; the loop keeps reading until the peer closes, so the ack is flushed
// with the full write budget rather than the teardown best-effort budget.
//
// These frames arrive on the ordinary client port as a connection's first
// frame, so with a MigrationToken configured every frame is authenticated
// before it touches any document state: a peer that can merely reach the
// shard cannot freeze documents, exfiltrate session state, or inject
// replacement state.
func (c *conn) adminLoop(first *wire.Frame) {
	f := first
	for {
		var doc, token string
		switch f.Type {
		case wire.TMigrate:
			doc, token = f.Migrate.Doc, f.Migrate.Token
		case wire.TMigState:
			doc, token = f.MigState.Doc, f.MigState.Token
		case wire.TBye:
			return
		default:
			c.reject(wire.CodeProtocol, "unexpected frame type "+f.Type+" on admin connection")
			return
		}
		if want := c.eng.cfg.MigrationToken; want != "" &&
			subtle.ConstantTimeCompare([]byte(token), []byte(want)) != 1 {
			c.eng.reg.Counter("migration_auth_rejects_total").Inc()
			c.eng.logf("doc %q: refused unauthenticated %s frame from %s", doc, f.Type, c.nc.RemoteAddr())
			c.enqueue(&wire.Frame{Type: wire.TMigAck, MigAck: &wire.MigAck{Doc: doc, Err: "migration token mismatch"}})
			return // readLoop's deferred close flushes the nack and cuts the peer
		}
		switch f.Type {
		case wire.TMigrate:
			c.eng.handleMigrate(c, *f.Migrate)
		case wire.TMigState:
			c.eng.handleMigInstall(c, f.MigState)
		}
		var err error
		f, err = c.codec.Read()
		if err != nil {
			return
		}
	}
}

// movedError is how Engine.host refuses a migrated-away document: it carries
// the hint the client needs to find the document's new home.
type movedError struct{ hint wire.Moved }

func (e *movedError) Error() string {
	return "server: document " + e.hint.Doc + " moved to shard " + e.hint.Shard
}

// handleMigrate runs the source side of a migration.
func (e *Engine) handleMigrate(c *conn, m wire.Migrate) {
	ack := func(ok bool, msg string) {
		c.enqueue(&wire.Frame{Type: wire.TMigAck, MigAck: &wire.MigAck{Doc: m.Doc, OK: ok, Err: msg}})
	}
	if e.repl != nil {
		ack(false, "replicated engines do not migrate documents")
		return
	}
	hint := wire.Moved{Doc: m.Doc, Shard: m.TargetShard, Addrs: m.TargetAddrs}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		ack(false, "shard shutting down")
		return
	}
	h, hosted := e.docs[m.Doc]
	if !hosted && e.persistEnabled() && e.persistedStateExists(m.Doc) {
		// Persisted but not yet lazily reloaded (restart, no client joined
		// since): load it now and run the normal transfer path. Acking
		// "nothing to transfer" here would strand the on-disk state forever —
		// the moved hint recorded below stops loadPersisted from ever running.
		var err error
		if h, err = e.hostLocked(m.Doc); err != nil {
			e.mu.Unlock()
			ack(false, err.Error())
			return
		}
		hosted = true
	}
	if !hosted {
		// Nothing to transfer — the target creates the doc fresh on first
		// join. Record the hint so stragglers who knew this shard re-route.
		// Engine.host checks e.moved under this same lock, so a hello racing
		// this handoff either created the host before we looked (the branch
		// above runs the full transfer) or gets the hint — never a fresh
		// forked copy on this shard.
		e.moved[m.Doc] = hint
		e.mu.Unlock()
		ack(true, "")
		return
	}
	e.mu.Unlock()

	// Freeze and export atomically on the apply loop: every op serialized
	// before this closure is in the blob, every one after is rejected.
	var blob []byte
	var expErr error
	if !h.call(func() {
		h.migrating = true
		blob, expErr = h.exportState()
	}) {
		ack(false, "document host stopping")
		return
	}
	if expErr == nil {
		maxFrame := e.cfg.MaxFrame
		if maxFrame <= 0 {
			maxFrame = wire.DefaultMaxFrame
		}
		if len(blob) >= maxFrame {
			expErr = fmt.Errorf("document state (%d bytes) exceeds max frame %d", len(blob), maxFrame)
		}
	}
	if expErr == nil {
		expErr = e.transferState(m, blob)
	}
	if expErr != nil {
		// Unfreeze: the source stays authoritative.
		h.call(func() { h.migrating = false })
		e.reg.Counter("migration_failures_total").Inc()
		e.logf("doc %q: migration to shard %s failed: %v", m.Doc, m.TargetShard, expErr)
		ack(false, expErr.Error())
		return
	}
	e.finishMigration(h, hint)
	e.reg.Counter("migrations_out_total").Inc()
	e.logf("doc %q: migrated to shard %s (%d bytes)", m.Doc, m.TargetShard, len(blob))
	ack(true, "")
}

// transferState ships the frozen blob to the target shard and waits for its
// verdict. Dial errors try the next address; an explicit refusal is
// authoritative (every address is the same process) and fails the migration.
func (e *Engine) transferState(m wire.Migrate, blob []byte) error {
	var lastErr error
	for _, addr := range m.TargetAddrs {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		ack, err := e.sendState(nc, m.Doc, blob)
		nc.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if !ack.OK {
			return fmt.Errorf("target refused: %s", ack.Err)
		}
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("no target addresses")
	}
	return lastErr
}

func (e *Engine) sendState(nc net.Conn, doc string, blob []byte) (*wire.MigAck, error) {
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	st := wire.NewStream(nc, e.cfg.MaxFrame)
	ms := &wire.MigState{Doc: doc, State: blob, Token: e.cfg.MigrationToken}
	if err := st.Write(&wire.Frame{Type: wire.TMigState, MigState: ms}); err != nil {
		return nil, err
	}
	f, err := st.Read()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TMigAck {
		return nil, fmt.Errorf("unexpected %s frame from migration target", f.Type)
	}
	return f.MigAck, nil
}

// finishMigration retires a transferred document: unhost it, record the
// moved hint, cut attached clients with the hint, stop the apply loop. The
// sessions live on in the transferred blob and resume on the target. Any
// persisted save is deleted — the target owns the state now, and a restart
// of this shard (which loses the in-memory moved map) must not resurrect a
// stale copy from disk.
func (e *Engine) finishMigration(h *docHost, hint wire.Moved) {
	e.mu.Lock()
	if _, ok := e.docs[hint.Doc]; ok {
		delete(e.docs, hint.Doc)
		e.reg.Gauge("docs_open").Add(-1)
	}
	e.moved[hint.Doc] = hint
	e.mu.Unlock()
	e.removePersistedState(hint.Doc)
	h.call(func() {
		for _, slot := range h.clients {
			if cc := slot.conn; cc != nil {
				cc.enqueue(&wire.Frame{Type: wire.TMoved, Moved: &hint})
				cc.close()
				slot.conn = nil
			}
		}
	})
	h.stop()
}

// handleMigInstall runs the target side: restore the blob into a fresh doc
// host and swap it in. An existing host for the doc is replaced only while
// idle — attached clients mean the local copy is live and the incoming blob
// would fork its history.
func (e *Engine) handleMigInstall(c *conn, ms *wire.MigState) {
	ack := func(ok bool, msg string) {
		c.enqueue(&wire.Frame{Type: wire.TMigAck, MigAck: &wire.MigAck{Doc: ms.Doc, OK: ok, Err: msg}})
	}
	if e.repl != nil {
		ack(false, "replicated engines do not accept migrations")
		return
	}
	h := newDocHost(e, ms.Doc)
	if err := h.importState(ms.State); err != nil {
		ack(false, err.Error())
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		ack(false, "shard shutting down")
		return
	}
	old, hosted := e.docs[ms.Doc]
	if !hosted {
		e.docs[ms.Doc] = h
		delete(e.moved, ms.Doc)
		e.reg.Gauge("docs_open").Add(1)
		e.wg.Add(1)
		e.mu.Unlock()
		go h.run()
		e.installDone(ack, ms, h)
		return
	}
	e.mu.Unlock()
	// A copy already runs here: a previous transfer whose ack was lost, or a
	// doc the ring routed here before the explicit migration. Replace it only
	// while idle — and freeze it in the SAME serialized apply-loop step that
	// counts attached clients, so a join racing the swap is rejected with the
	// retryable code instead of attaching to (and landing acked ops on) a
	// host about to be discarded.
	attached := 0
	if !old.call(func() {
		for _, slot := range old.clients {
			if slot.conn != nil {
				attached++
			}
		}
		if attached == 0 {
			old.migrating = true
		}
	}) {
		ack(false, "existing document host stopping")
		return
	}
	if attached > 0 {
		ack(false, "doc has attached clients")
		return
	}
	e.mu.Lock()
	if e.closed || e.docs[ms.Doc] != old {
		e.mu.Unlock()
		// Refused after freezing: unfreeze so the still-authoritative copy
		// keeps serving. (If old was concurrently replaced, it is already
		// retired and the unfreeze is harmless.)
		old.call(func() { old.migrating = false })
		ack(false, "document changed during install, retry")
		return
	}
	e.docs[ms.Doc] = h
	delete(e.moved, ms.Doc)
	e.wg.Add(1)
	e.mu.Unlock()
	go h.run()
	// The replaced host stays frozen: late joins racing the swap get
	// retryable rejects instead of landing on a dead copy.
	old.stop()
	e.installDone(ack, ms, h)
}

func (e *Engine) installDone(ack func(bool, string), ms *wire.MigState, h *docHost) {
	e.reg.Counter("migrations_in_total").Inc()
	e.logf("doc %q: installed migrated state (%d bytes, %d sessions)", ms.Doc, len(ms.State), len(h.clients))
	ack(true, "")
}
