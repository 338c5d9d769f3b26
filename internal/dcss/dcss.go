// Package dcss implements the DISTRIBUTED CSS protocol — the extension the
// paper's conclusion proposes: "integrating the compact n-ary ordered
// state-space with a distributed scheme to totally order operations".
//
// There is no central server. Peers form a full mesh of FIFO channels and
// broadcast their original operations stamped with Lamport timestamps
// (internal/tob); the total order "⇒" is the timestamp order. Each peer
// maintains the same n-ary ordered state-space as in the centralized CSS
// protocol and processes operations with the identical uniform procedure
// (statespace.Integrate / Algorithm 1):
//
//   - a locally generated operation is executed immediately (optimistic
//     replication) and integrated with its timestamp's order key — unlike
//     centralized CSS, the key is known at generation time, so there are no
//     pending keys and no acknowledgements;
//   - a remote operation is held in a timestamp-ordered queue until STABLE
//     (every peer has been heard from past its timestamp), then integrated
//     in total order.
//
// Stability delivery preserves exactly the property the centralized server
// provided: operations are integrated in "⇒" order, except a peer's own
// operations which run optimistically ahead — the same shape as a CSS
// client, so Algorithm 1's sibling ordering remains correct and
// Proposition 6.6 carries over (all peers converge to the same space). The
// tests verify this with state-space fingerprints, and verify convergence
// and the weak list specification over random runs.
//
// Liveness: a silent peer blocks stability (it cannot be ruled out as the
// source of an earlier-timestamped operation). Flush messages carry a bare
// timestamp to un-block delivery; the harness sends them at quiesce time,
// mirroring TIBOT's time-interval boundaries.
package dcss

import (
	"fmt"
	"sort"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/statespace"
	"jupiter/internal/tob"
)

// MsgKind distinguishes peer messages.
type MsgKind uint8

// Peer message kinds.
const (
	// MsgOp carries an original operation with its context and timestamp.
	MsgOp MsgKind = iota + 1
	// MsgFlush carries only a timestamp, advancing the stability horizon.
	MsgFlush
)

// Msg is a peer-to-peer message.
type Msg struct {
	Kind MsgKind
	From opid.ClientID
	Op   ot.Op    // MsgOp
	Ctx  opid.Set // MsgOp: the operation's context (Definition 4.6)
	TS   tob.Timestamp
	// Horizon piggybacks the sender's stability horizon: every operation
	// with a timestamp strictly below it has been DELIVERED at the sender.
	// Peers take the minimum over all senders to find the globally-delivered
	// frontier, which is safe to garbage-collect (see MaybeCompact).
	Horizon tob.Timestamp
}

// orderKey maps a timestamp to a state-space order key. Peer ids are small
// positive integers, so (clock << 16 | peer) preserves the (Clock, Peer)
// lexicographic order.
func orderKey(ts tob.Timestamp) statespace.OrderKey {
	return statespace.OrderKey(ts.Clock<<16 | uint64(uint16(ts.Peer)))
}

// Peer is one replica of the distributed CSS protocol.
type Peer struct {
	id      opid.ClientID
	peers   []opid.ClientID
	clock   *tob.Clock
	space   *statespace.Space
	doc     list.Doc
	queue   []Msg // pending remote operations, sorted by timestamp
	nextSeq uint64
	readSeq uint64
	rec     core.Tracker

	// GC bookkeeping: delivered operations in total order, the latest
	// horizon heard from each peer, and how far compaction has advanced.
	delivered   []deliveredOp
	horizons    map[opid.ClientID]tob.Timestamp
	compactedAt int
}

// deliveredOp records one integrated operation with its timestamp.
type deliveredOp struct {
	id opid.OpID
	ts tob.Timestamp
}

// NewPeer creates peer id within the given group. rec may be nil.
func NewPeer(id opid.ClientID, peers []opid.ClientID, initial list.Doc, rec core.Recorder, opts ...statespace.Option) *Peer {
	var doc list.Doc
	if initial != nil {
		doc = initial.Clone()
	} else {
		doc = list.NewDocument()
	}
	horizons := make(map[opid.ClientID]tob.Timestamp, len(peers))
	for _, p := range peers {
		if p != id {
			horizons[p] = tob.Timestamp{}
		}
	}
	return &Peer{
		id:       id,
		peers:    append([]opid.ClientID(nil), peers...),
		clock:    tob.NewClock(id, peers),
		space:    statespace.New(initial, opts...),
		doc:      doc,
		rec:      core.NewTracker(rec),
		horizons: horizons,
	}
}

// ID returns the peer identifier.
func (p *Peer) ID() opid.ClientID { return p.id }

// Document returns a copy of the peer's current list.
func (p *Peer) Document() []list.Elem { return p.doc.Elems() }

// Space returns the peer's n-ary ordered state-space.
func (p *Peer) Space() *statespace.Space { return p.space }

// QueueLen returns the number of remote operations awaiting stability.
func (p *Peer) QueueLen() int { return len(p.queue) }

// GenerateIns executes Ins(val, pos) locally and returns the message to
// broadcast to every other peer.
func (p *Peer) GenerateIns(val rune, pos int) (Msg, error) {
	p.nextSeq++
	op := ot.Ins(val, pos, opid.OpID{Client: p.id, Seq: p.nextSeq})
	return p.generate(op)
}

// GenerateDel executes a delete of the element at pos locally and returns
// the broadcast message.
func (p *Peer) GenerateDel(pos int) (Msg, error) {
	elem, err := p.doc.Get(pos)
	if err != nil {
		return Msg{}, fmt.Errorf("%s: generate del: %w", p.id, err)
	}
	p.nextSeq++
	op := ot.Del(elem, pos, opid.OpID{Client: p.id, Seq: p.nextSeq})
	return p.generate(op)
}

func (p *Peer) generate(op ot.Op) (Msg, error) {
	ts := p.clock.Tick()
	// Local-generation fast path: the matching state of a locally generated
	// operation is by definition the final state, so integrate there
	// directly; the context set is materialized once, for the wire.
	sigma := p.space.Final()
	ctx := sigma.Ops()
	exec, err := p.space.IntegrateAt(op, sigma, orderKey(ts))
	if err != nil {
		return Msg{}, fmt.Errorf("%s: %w", p.id, err)
	}
	if err := p.execute(op, exec, ts); err != nil {
		return Msg{}, err
	}
	if p.rec.On() {
		p.rec.Record(p.id.String(), op, p.doc.Elems())
	}
	return Msg{Kind: MsgOp, From: p.id, Op: op, Ctx: ctx, TS: ts, Horizon: p.horizon()}, nil
}

func (p *Peer) integrate(op ot.Op, ctx opid.Set, ts tob.Timestamp) error {
	exec, err := p.space.Integrate(op, ctx, orderKey(ts))
	if err != nil {
		return fmt.Errorf("%s: %w", p.id, err)
	}
	return p.execute(op, exec, ts)
}

// execute applies the transformed operation and records the delivery.
func (p *Peer) execute(op, exec ot.Op, ts tob.Timestamp) error {
	p.rec.Processed(op.ID) // in the space, so processed, even if execution fails
	if err := ot.Apply(p.doc, exec); err != nil {
		return fmt.Errorf("%s: execute %s: %w", p.id, exec, err)
	}
	// Record in total order. Own (optimistic) deliveries can land ahead of
	// remote ones with smaller timestamps, so insert sorted.
	i := len(p.delivered)
	for i > 0 && ts.Less(p.delivered[i-1].ts) {
		i--
	}
	p.delivered = append(p.delivered, deliveredOp{})
	copy(p.delivered[i+1:], p.delivered[i:])
	p.delivered[i] = deliveredOp{id: op.ID, ts: ts}
	return nil
}

// horizon returns this peer's stability horizon: everything strictly below
// it has been delivered here.
func (p *Peer) horizon() tob.Timestamp {
	h := tob.Timestamp{Clock: p.clock.Now() + 1, Peer: p.id}
	for _, heard := range p.clock.Heard() {
		if heard.Less(h) {
			h = heard
		}
	}
	return h
}

// MaybeCompact garbage-collects the peer's state-space up to the globally
// delivered frontier: operations strictly below every peer's gossiped
// horizon (and this peer's own).
//
// Safety has two parts. FUTURE arrivals from a peer q follow (FIFO) the
// message that gossiped H_q, so their contexts contain every operation
// timestamped below H_q ≥ frontier. Operations ALREADY QUEUED here awaiting
// stability carry older contexts, so the frontier is additionally capped to
// operations inside every queued context — with that, the compaction
// contract of statespace.CompactTo holds. It reports whether the space
// shrank.
func (p *Peer) MaybeCompact() (bool, error) {
	frontier := p.horizon()
	for _, h := range p.horizons {
		if h.Less(frontier) {
			frontier = h
		}
	}
	cut := 0
	ops := opid.NewSet()
	for _, d := range p.delivered {
		if !d.ts.Less(frontier) {
			break
		}
		inAllQueued := true
		for _, q := range p.queue {
			if !q.Ctx.Contains(d.id) {
				inAllQueued = false
				break
			}
		}
		if !inAllQueued {
			break
		}
		ops.Put(d.id)
		cut++
	}
	if cut <= p.compactedAt {
		return false, nil
	}
	if err := p.space.CompactTo(ops); err != nil {
		return false, fmt.Errorf("%s: compact: %w", p.id, err)
	}
	p.compactedAt = cut
	return true, nil
}

// Receive witnesses a message from another peer and delivers every remote
// operation that has become stable, in total order.
func (p *Peer) Receive(m Msg) error {
	if err := p.clock.Witness(m.TS); err != nil {
		return fmt.Errorf("%s: %w", p.id, err)
	}
	if prev, ok := p.horizons[m.From]; ok && prev.Less(m.Horizon) {
		p.horizons[m.From] = m.Horizon
	}
	if m.Kind == MsgOp {
		idx := sort.Search(len(p.queue), func(i int) bool { return m.TS.Less(p.queue[i].TS) })
		p.queue = append(p.queue, Msg{})
		copy(p.queue[idx+1:], p.queue[idx:])
		p.queue[idx] = m
	}
	return p.drain()
}

// drain integrates stable queued operations.
func (p *Peer) drain() error {
	for len(p.queue) > 0 && p.clock.Stable(p.queue[0].TS) {
		m := p.queue[0]
		p.queue = p.queue[1:]
		if err := p.integrate(m.Op, m.Ctx, m.TS); err != nil {
			return err
		}
	}
	return nil
}

// Flush produces a timestamp-only message letting other peers rule this
// peer out as a source of earlier operations. It also drains the local
// queue (our own clock may have been the laggard is impossible — local
// clock always satisfies stability — but queued heads may have become
// stable since the last receive).
func (p *Peer) Flush() (Msg, error) {
	ts := p.clock.Tick()
	if err := p.drain(); err != nil {
		return Msg{}, err
	}
	return Msg{Kind: MsgFlush, From: p.id, TS: ts, Horizon: p.horizon()}, nil
}

// Read records a do(Read, w) event returning the current list.
func (p *Peer) Read() []list.Elem {
	p.readSeq++
	id := opid.OpID{Client: -p.id - 4000, Seq: p.readSeq}
	w := p.doc.Elems()
	if p.rec.On() {
		p.rec.Record(p.id.String(), ot.Read(id), w)
	}
	return w
}
