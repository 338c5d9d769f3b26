// Package client is the network counterpart of internal/server: a
// css.Client replica speaking the internal/wire protocol over TCP, with
// automatic reconnection.
//
// Lifecycle. Dial connects, performs the Hello/Welcome handshake (rooting
// the replica at the server's join snapshot), and starts a manager goroutine
// that owns the connection: it reads server frames, applies them to the
// replica, and — whenever the connection drops — redials with exponential
// backoff plus jitter and resumes the session (presenting the last processed
// frame sequence so the server replays only the missed suffix).
//
// Edits while disconnected are fine: operations are generated locally
// (optimistic local-first execution, exactly the paper's client behavior)
// and buffered; every operation stays in the resend buffer until the server
// acknowledges it with the protocol-level MsgAck, and the whole buffer is
// replayed after each reconnect. The server deduplicates by per-client
// operation sequence, so replaying is always safe.
//
// With a replicated cluster (Config.Addrs), the redial loop doubles as
// failover: each failed attempt rotates to the next candidate address, a
// not-leader rejection jumps straight to the hinted leader, and the resume
// handshake works against whichever node leads now because the replication
// layer keeps every node's per-client frame state identical (see
// internal/server).
//
// Sync() is the write barrier: it blocks until every locally generated
// operation has been serialized and acknowledged. WaitServerSeq(n) is the
// read barrier: it blocks until the replica has processed every serialized
// operation up to global sequence n. Together they give tests and tools a
// convergence point without polling.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"jupiter/internal/core"
	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/placement"
	"jupiter/internal/wire"
)

// Config configures a Client.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// Addrs, when non-empty, supersedes Addr: the candidate server addresses
	// of a replicated cluster. The client sticks with the address that last
	// worked, rotates to the next on any failed attempt, and jumps straight
	// to the leader a not-leader rejection hints at. Failover is therefore
	// just the ordinary redial loop landing on a different node and resuming
	// there.
	Addrs []string
	// Placement, when non-empty, supersedes Addr/Addrs: the placement
	// service's address. The client fetches the routing table from it and
	// dials the shard owning Doc, re-routing on Moved hints (the document
	// migrated) and wrong-shard rejections (the cached table went stale).
	Placement string
	// PlacementCache, when non-nil, supersedes Placement: a shared routing
	// cache, so the many clients of one process fetch the table once.
	PlacementCache *placement.Cache
	// Doc is the document to join.
	Doc string
	// MaxFrame caps wire frames (0 = wire.DefaultMaxFrame).
	MaxFrame int
	// Window bounds operations in flight (sent but not yet acknowledged) on
	// one connection; further ops wait in the resend buffer until acks make
	// room. Bounding the window bounds the server's transformation-ladder
	// depth under load (E12). 0 = 64; negative = unbounded.
	Window int
	// DialTimeout bounds one dial attempt (0 = 5s).
	DialTimeout time.Duration
	// MinBackoff/MaxBackoff bound the reconnect backoff (0 = 25ms / 2s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter (0 = 1).
	Seed int64
	// Sleep, when non-nil, replaces the real sleep between redial attempts
	// (deterministic reconnect tests observe the requested delays instead
	// of waiting them out).
	Sleep func(time.Duration)
	// Recorder, when non-nil, records the replica's do events (shared,
	// thread-safe recorder in tests).
	Recorder core.Recorder
	// OnServerFrame, when non-nil, observes every server frame just after it
	// was applied to the replica, in application order (failover suites
	// record each client's observation sequence with it). Called with the
	// client's lock held: keep it cheap and never call back into the client.
	OnServerFrame func(s *wire.Server)
	// OnAck, when non-nil, observes the protocol-level acknowledgement of
	// each locally generated operation: the op's identity and the global
	// sequence it was serialized at. This is the load generator's latency
	// hook — cheaper than filtering OnServerFrame, and scoped to own ops
	// only. Called with the client's lock held: keep it cheap and never call
	// back into the client.
	OnAck func(id opid.OpID, seq uint64)
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
}

func (c *Config) addrs() []string {
	if len(c.Addrs) > 0 {
		return c.Addrs
	}
	return []string{c.Addr}
}

func (c *Config) window() int {
	if c.Window < 0 {
		return int(^uint(0) >> 1) // unbounded
	}
	if c.Window == 0 {
		return 64
	}
	return c.Window
}

// batchOps bounds operations coalesced into one opb frame.
const batchOps = 16

func (c *Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

func (c *Config) minBackoff() time.Duration {
	if c.MinBackoff <= 0 {
		return 25 * time.Millisecond
	}
	return c.MinBackoff
}

func (c *Config) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return c.MaxBackoff
}

// Client is a connected (or reconnecting) replica of one document.
type Client struct {
	cfg   Config
	place *placement.Cache // nil without placement routing

	mu   sync.Mutex
	cond *sync.Cond // signaled on any state change under mu

	replica      *css.Client     // the protocol replica; nil never after Dial
	id           opid.ClientID   // assigned by the server at first join
	addrIdx      int             // index into the current dial list
	movedAddrs   []string        // Moved-hint addresses superseding cfg's list (no placement cache)
	resend       []css.ClientMsg // generated, not yet protocol-acked, in order
	sentN        int             // prefix of resend shipped on this connection
	lastFrameSeq uint64          // last server frame applied (resume point)
	serverSeq    uint64          // highest global op sequence processed
	connGen      int             // bumped on every successful handshake
	connected    bool
	closed       bool
	termErr      error // terminal failure (bad resume etc.)

	// Connection plumbing; writeMu serializes frame writes between the
	// manager (acks, replays) and generators (ops). Lock order: mu, then
	// writeMu.
	writeMu sync.Mutex
	nc      net.Conn
	codec   *wire.Stream

	backoff Backoff // redial schedule; guarded by the manager goroutine only

	wg sync.WaitGroup
}

// Errors.
var (
	ErrClosed = errors.New("client: closed")
)

// Dial connects, joins the document as a new client, and starts the
// reconnect manager. It returns once the replica is rooted and usable.
func Dial(cfg Config) (*Client, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{cfg: cfg, backoff: Backoff{
		Min:  cfg.minBackoff(),
		Max:  cfg.maxBackoff(),
		Rand: rand.New(rand.NewSource(seed)),
	}}
	c.place = cfg.PlacementCache
	if c.place == nil && cfg.Placement != "" {
		c.place = placement.NewCache(cfg.Placement)
	}
	c.cond = sync.NewCond(&c.mu)
	// One pass over the address list: with a replicated cluster the first
	// configured address may be a follower (or down), and the join should
	// land on whichever node is leading right now. With placement routing,
	// a couple of attempts absorb a Moved hint from a just-migrated doc.
	attempts := len(cfg.addrs())
	if c.place != nil && attempts < 3 {
		attempts = 3
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = c.connect(); err == nil {
			break
		}
		c.mu.Lock()
		terminal := c.termErr != nil
		c.mu.Unlock()
		if terminal {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.manage()
	return c, nil
}

// ID returns the server-assigned client identifier.
func (c *Client) ID() opid.ClientID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.id
}

// logf logs via the configured logger.
func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// dialList returns the static dial candidates: the addresses adopted from a
// Moved hint when the document migrated away (there is no placement cache to
// resolve shard ids, so the hint IS the routing information), else the
// configured list. Caller holds c.mu.
func (c *Client) dialList() []string {
	if len(c.movedAddrs) > 0 {
		return c.movedAddrs
	}
	return c.cfg.addrs()
}

// target returns the address the next attempt should dial and the shard id
// to present in the Hello. With placement routing the shard comes from the
// routing cache (fetch-on-miss, local Moved overrides first); otherwise it
// is the current dial list and no shard id.
func (c *Client) target() (addr, shard string, err error) {
	if c.place != nil {
		sh, err := c.place.Lookup(c.cfg.Doc)
		if err != nil {
			return "", "", err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		return sh.Addrs[c.addrIdx%len(sh.Addrs)], sh.ID, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := c.dialList()
	return addrs[c.addrIdx%len(addrs)], "", nil
}

// rotateAddr moves to the next candidate address after a failed attempt; a
// non-empty hint (the leader address from a not-leader rejection) jumps
// straight to that node when it is in the configured list. Successful
// attempts never rotate, so the client sticks with a working server. Under
// placement routing the index rotates within whatever address list the next
// target lookup returns (the modulo is applied at pick time).
func (c *Client) rotateAddr(hint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.place != nil {
		c.addrIdx++ // reduced modulo the shard's address list at pick time
		return
	}
	addrs := c.dialList()
	if hint != "" {
		for i, a := range addrs {
			if a == hint {
				c.addrIdx = i
				return
			}
		}
	}
	c.addrIdx = (c.addrIdx + 1) % len(addrs)
}

// applyMovedHint adopts a Moved frame: through the placement cache when one
// is configured, else by taking the hint's addresses as the new dial list.
// Without a cache AND without addresses the hint is unactionable — redialing
// the retired shard would loop on the same hint forever, so that case is a
// terminal failure instead.
func (c *Client) applyMovedHint(mv wire.Moved) error {
	if c.place != nil {
		c.place.ApplyMoved(mv)
		c.mu.Lock()
		c.addrIdx = 0 // the hint's address list starts fresh
		c.mu.Unlock()
		return nil
	}
	if len(mv.Addrs) == 0 {
		err := fmt.Errorf("client: document %q moved to shard %s, which the hint names no addresses for and no placement service is configured to resolve", mv.Doc, mv.Shard)
		c.fail(err)
		return err
	}
	c.mu.Lock()
	c.movedAddrs = append([]string(nil), mv.Addrs...)
	c.addrIdx = 0
	c.mu.Unlock()
	return nil
}

// connect dials and performs one handshake (new join or resume). On success
// the connection is installed and buffered operations are replayed; on
// failure the target rotates to the next candidate address.
func (c *Client) connect() error {
	addr, shard, err := c.target()
	if err != nil {
		// Placement service unreachable: invalidate so the next attempt
		// refetches, and let the backoff pace the retries.
		c.place.Invalidate()
		return err
	}
	nc, err := net.DialTimeout("tcp", addr, c.cfg.dialTimeout())
	if err != nil {
		c.rotateAddr("")
		return err
	}
	codec := wire.NewStream(nc, c.cfg.MaxFrame)

	c.mu.Lock()
	hello := wire.Hello{Doc: c.cfg.Doc, Shard: shard, Codecs: []string{wire.CodecBinary}}
	if c.replica != nil {
		hello.ClientID = int32(c.id)
		hello.LastFrameSeq = c.lastFrameSeq
	}
	c.mu.Unlock()

	_ = nc.SetDeadline(time.Now().Add(c.cfg.dialTimeout()))
	if err := codec.Write(&wire.Frame{Type: wire.THello, Hello: &hello}); err != nil {
		nc.Close()
		c.rotateAddr("")
		return err
	}
	f, err := codec.Read()
	if err != nil {
		nc.Close()
		c.rotateAddr("")
		return err
	}
	_ = nc.SetDeadline(time.Time{})

	switch f.Type {
	case wire.TWelcome:
	case wire.TMoved:
		// The document lives on another shard now; adopt the hint and let
		// the retry dial the new home.
		nc.Close()
		if err := c.applyMovedHint(*f.Moved); err != nil {
			return err
		}
		return fmt.Errorf("client: document moved to shard %s", f.Moved.Shard)
	case wire.TError:
		nc.Close()
		err := fmt.Errorf("client: server rejected session: %s: %s", f.Error.Code, f.Error.Msg)
		switch f.Error.Code {
		case wire.CodeBadResume:
			c.fail(err)
		case wire.CodeNotLeader:
			c.rotateAddr(f.Error.Leader)
		case wire.CodeWrongShard:
			// Our routing table is stale: drop it and refetch next attempt.
			if c.place != nil {
				c.place.Invalidate()
			}
			c.rotateAddr("")
		default:
			c.rotateAddr("")
		}
		return err
	default:
		nc.Close()
		c.rotateAddr("")
		return fmt.Errorf("client: unexpected handshake frame %q", f.Type)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return ErrClosed
	}
	if c.replica == nil {
		if f.Welcome.Snapshot == nil {
			c.mu.Unlock()
			nc.Close()
			return fmt.Errorf("client: welcome without snapshot for a new session")
		}
		replica, err := css.NewClientFromSnapshot(opid.ClientID(f.Welcome.ClientID), f.Welcome.Snapshot, c.cfg.Recorder)
		if err != nil {
			c.mu.Unlock()
			nc.Close()
			return fmt.Errorf("client: root from snapshot: %w", err)
		}
		// Compact contexts: O(1) per op instead of one id per concurrent op.
		replica.UseCompactContexts()
		c.replica = replica
		c.id = opid.ClientID(f.Welcome.ClientID)
		// Everything in the snapshot is already serialized; reads of it are
		// consistent from global sequence = number of replayed ops.
		c.serverSeq = uint64(len(f.Welcome.Snapshot.FrontierIDs) + len(f.Welcome.Snapshot.Replay))
	} else if !f.Welcome.Resume {
		c.mu.Unlock()
		nc.Close()
		return fmt.Errorf("client: expected resume welcome")
	}
	c.nc = nc
	c.codec = codec
	c.connected = true
	c.connGen++
	c.sentN = 0
	pending := len(c.resend)
	c.cond.Broadcast()
	c.mu.Unlock()

	// Replay unacknowledged operations: pump ships the resend prefix from
	// zero, in order, bounded by the send window; acks drive the rest out.
	c.pump()
	c.logf("client c%d: connected to %s (%d ops pending)", c.ID(), addr, pending)
	return nil
}

// pump ships generated-but-unsent operations, oldest first, while the send
// window has room: up to batchOps per frame, as one opb batch. It is called
// after anything that creates work (a local edit, a reconnect) or room (an
// ack). Writes happen with writeMu acquired under mu, so concurrent pumps
// leave the wire in generation order.
func (c *Client) pump() {
	for {
		c.mu.Lock()
		if !c.connected || c.closed || c.termErr != nil {
			c.mu.Unlock()
			return
		}
		n := len(c.resend) - c.sentN // available
		if room := c.cfg.window() - c.sentN; n > room {
			n = room
		}
		if n > batchOps {
			n = batchOps
		}
		if n <= 0 {
			c.mu.Unlock()
			return
		}
		msgs := append([]css.ClientMsg(nil), c.resend[c.sentN:c.sentN+n]...)
		c.sentN += n
		codec := c.codec
		c.writeMu.Lock()
		c.mu.Unlock()
		var err error
		if len(msgs) == 1 {
			err = codec.Write(&wire.Frame{Type: wire.TOp, Op: &wire.Op{Msg: msgs[0]}})
		} else {
			err = codec.Write(&wire.Frame{Type: wire.TOpBatch, OpBatch: &wire.OpBatch{Msgs: msgs}})
		}
		c.writeMu.Unlock()
		if err != nil {
			var we *wire.WriteError
			if errors.As(err, &we) {
				// Connection died under us; the ops stay in the resend buffer
				// and the manager's reconnect replays them (sentN resets there).
				c.logf("client c%d: send failed (buffered): %v", c.ID(), err)
				return
			}
			// Encode/validation failure: the frame never touched the wire and
			// the connection is still healthy, so waiting for a reconnect to
			// reset sentN would strand these ops forever. Retrying would fail
			// identically — surface it as a terminal error instead.
			c.fail(fmt.Errorf("client c%d: encode failed for %d op(s): %w", c.ID(), len(msgs), err))
			return
		}
	}
}

// manage owns reconnection: read frames until the connection dies, then
// redial with backoff until closed.
func (c *Client) manage() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for !c.connected && !c.closed && c.termErr == nil {
			c.mu.Unlock()
			if !c.backoffAndRedial() {
				return
			}
			c.mu.Lock()
		}
		if c.closed || c.termErr != nil {
			c.mu.Unlock()
			return
		}
		codec := c.codec
		nc := c.nc
		gen := c.connGen
		c.mu.Unlock()

		c.readFrames(codec, gen)

		nc.Close()
		c.mu.Lock()
		if c.connGen == gen {
			c.connected = false
			c.cond.Broadcast()
		}
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
	}
}

// backoffAndRedial sleeps the next backoff (with jitter) and tries one
// connect; it reports false when the client is done for good. The schedule
// restarts from Min on entry: a successful reconnect resets the penalty.
func (c *Client) backoffAndRedial() bool {
	c.backoff.Reset()
	for {
		c.sleep(c.backoff.Next())
		c.mu.Lock()
		if c.closed || c.termErr != nil {
			c.mu.Unlock()
			return false
		}
		c.mu.Unlock()
		err := c.connect()
		if err == nil {
			return true
		}
		if errors.Is(err, ErrClosed) {
			return false
		}
		c.mu.Lock()
		terminal := c.termErr != nil
		c.mu.Unlock()
		if terminal {
			return false
		}
		c.logf("client c%d: redial: %v", c.ID(), err)
	}
}

// sleep waits d via the configured hook or the real clock.
func (c *Client) sleep(d time.Duration) {
	if c.cfg.Sleep != nil {
		c.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

// readFrames applies server frames until the connection errors. gen guards
// against applying frames from a stale connection after a racing reconnect.
func (c *Client) readFrames(codec *wire.Stream, gen int) {
	for {
		f, err := codec.Read()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TServer:
			if !c.applyServerFrame(f.Server, gen) {
				return
			}
			// Frame-level ack: lets the server trim its retained outbox.
			c.writeMu.Lock()
			err := codec.Write(&wire.Frame{Type: wire.TAck, Ack: &wire.Ack{Seq: f.Server.Seq}})
			c.writeMu.Unlock()
			if err != nil {
				return
			}
			c.pump() // acks may have opened the send window
		case wire.TServerBatch:
			for i := range f.ServerBatch.Frames {
				if !c.applyServerFrame(&f.ServerBatch.Frames[i], gen) {
					return
				}
			}
			// One cumulative ack for the whole batch: Ack.Seq is a
			// watermark, so acking the last frame acks them all.
			last := f.ServerBatch.Frames[len(f.ServerBatch.Frames)-1].Seq
			c.writeMu.Lock()
			err := codec.Write(&wire.Frame{Type: wire.TAck, Ack: &wire.Ack{Seq: last}})
			c.writeMu.Unlock()
			if err != nil {
				return
			}
			c.pump()
		case wire.TMoved:
			// Mid-session migration: the shard cut us loose with a pointer to
			// the document's new home. Record it and let the manager redial;
			// the resume handshake (and the blind resend of anything
			// unacknowledged) runs against the target shard.
			if c.applyMovedHint(*f.Moved) != nil {
				return // terminal: no route to the document's new home
			}
			c.logf("client c%d: document moved to shard %s", c.ID(), f.Moved.Shard)
			return
		case wire.TError:
			if f.Error.Code == wire.CodeBadResume {
				c.fail(fmt.Errorf("client: server rejected resume: %s", f.Error.Msg))
			}
			c.logf("client c%d: server error: %s: %s", c.ID(), f.Error.Code, f.Error.Msg)
			return
		case wire.TBye:
			return
		default:
			c.logf("client c%d: unexpected frame %q", c.ID(), f.Type)
			return
		}
	}
}

// applyServerFrame integrates one server message into the replica.
func (c *Client) applyServerFrame(s *wire.Server, gen int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.connGen != gen {
		return false
	}
	if s.Seq != c.lastFrameSeq+1 {
		// FIFO violation (or duplicate after a torn resume): drop the
		// connection and resume from the last good frame.
		c.logf("client c%d: frame gap: got %d want %d", c.id, s.Seq, c.lastFrameSeq+1)
		return false
	}
	if err := c.replica.Receive(s.Msg); err != nil {
		c.failLocked(fmt.Errorf("client: apply frame %d: %w", s.Seq, err))
		return false
	}
	c.lastFrameSeq = s.Seq
	switch s.Msg.Kind {
	case css.MsgAck:
		if len(c.resend) > 0 && c.resend[0].Op.ID == s.Msg.AckID {
			c.resend = c.resend[1:]
			if c.sentN > 0 {
				c.sentN--
			}
		} else {
			// Out-of-order ack would be a protocol bug; scrub defensively.
			kept := c.resend[:0]
			for i, m := range c.resend {
				if m.Op.ID != s.Msg.AckID {
					kept = append(kept, m)
				} else if i < c.sentN {
					c.sentN--
				}
			}
			c.resend = kept
		}
		if s.Msg.Seq > c.serverSeq {
			c.serverSeq = s.Msg.Seq
		}
		if c.cfg.OnAck != nil {
			c.cfg.OnAck(s.Msg.AckID, s.Msg.Seq)
		}
	case css.MsgBroadcast:
		if s.Msg.Seq > c.serverSeq {
			c.serverSeq = s.Msg.Seq
		}
	}
	if c.cfg.OnServerFrame != nil {
		c.cfg.OnServerFrame(s)
	}
	c.cond.Broadcast()
	return true
}

// fail records a terminal error and wakes every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.failLocked(err)
	c.mu.Unlock()
}

// failLocked is fail for a caller that holds c.mu.
func (c *Client) failLocked(err error) {
	if c.termErr == nil {
		c.termErr = err
	}
	c.cond.Broadcast()
}

// generate runs one local edit and ships (or buffers) the message, returning
// the generated operation's identity so callers can correlate the later
// OnAck callback with this edit.
func (c *Client) generate(gen func(*css.Client) (css.ClientMsg, error)) (opid.OpID, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return opid.OpID{}, ErrClosed
	}
	if c.termErr != nil {
		defer c.mu.Unlock()
		return opid.OpID{}, c.termErr
	}
	msg, err := gen(c.replica)
	if err != nil {
		c.mu.Unlock()
		return opid.OpID{}, err
	}
	c.resend = append(c.resend, msg)
	id := msg.Op.ID
	c.mu.Unlock()
	// Local-first: generation never blocks. pump ships what the send window
	// permits (nothing, when disconnected — the reconnect replays it).
	c.pump()
	return id, nil
}

// Insert generates Ins(val, pos) locally and propagates it.
func (c *Client) Insert(val rune, pos int) error {
	_, err := c.InsertID(val, pos)
	return err
}

// InsertID is Insert returning the generated operation's identity (the load
// generator matches it against OnAck to measure end-to-end ack latency).
func (c *Client) InsertID(val rune, pos int) (opid.OpID, error) {
	return c.generate(func(r *css.Client) (css.ClientMsg, error) { return r.GenerateIns(val, pos) })
}

// Delete generates a delete of the element at pos and propagates it.
func (c *Client) Delete(pos int) error {
	_, err := c.DeleteID(pos)
	return err
}

// DeleteID is Delete returning the generated operation's identity.
func (c *Client) DeleteID(pos int) (opid.OpID, error) {
	return c.generate(func(r *css.Client) (css.ClientMsg, error) { return r.GenerateDel(pos) })
}

// Document returns the replica's current list value.
func (c *Client) Document() []list.Elem {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replica.Document()
}

// DocLen returns the replica's current list length without copying the
// elements — what an open-loop load generator calls once per generated op.
func (c *Client) DocLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replica.DocLen()
}

// Text returns the document rendered as a string.
func (c *Client) Text() string { return list.Render(c.Document()) }

// Read records a do(Read, w) event in the history and returns the list.
func (c *Client) Read() []list.Elem {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replica.Read()
}

// ServerSeq returns the highest global sequence number processed so far.
func (c *Client) ServerSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverSeq
}

// Pending returns how many local operations await acknowledgement.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.resend)
}

// wait blocks until pred (under mu) holds, the context ends, or the client
// terminally fails.
func (c *Client) wait(ctx context.Context, pred func() bool) error {
	done := make(chan struct{})
	defer close(done)
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !pred() {
		if c.termErr != nil {
			return c.termErr
		}
		if c.closed {
			return ErrClosed
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.cond.Wait()
	}
	return nil
}

// Sync blocks until every locally generated operation has been serialized
// and acknowledged by the server (the write barrier).
func (c *Client) Sync(ctx context.Context) error {
	return c.wait(ctx, func() bool { return len(c.resend) == 0 })
}

// WaitServerSeq blocks until the replica has processed every operation up
// to and including global sequence seq (the read barrier).
func (c *Client) WaitServerSeq(ctx context.Context, seq uint64) error {
	return c.wait(ctx, func() bool { return c.serverSeq >= seq })
}

// DropConnection forcibly closes the current TCP connection (a test hook
// simulating a network failure); the manager redials and resumes.
func (c *Client) DropConnection() {
	c.mu.Lock()
	nc := c.nc
	c.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

// Close stops the client for good.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	nc := c.nc
	c.cond.Broadcast()
	c.mu.Unlock()
	if nc != nil {
		// Best-effort goodbye, then cut.
		c.writeMu.Lock()
		if c.codec != nil {
			_ = nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			_ = c.codec.Write(&wire.Frame{Type: wire.TBye})
		}
		c.writeMu.Unlock()
		nc.Close()
	}
	c.wg.Wait()
	return nil
}
