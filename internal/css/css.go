// Package css implements the CSS (Compact State-Space) Jupiter protocol of
// Section 6 of the paper.
//
// Architecture (Section 4.4): a central server and n clients, connected by
// FIFO channels. Clients generate operations; the server serializes them
// (establishing the total order "⇒") and redirects the ORIGINAL operations
// to the other clients (footnote 7). Every replica — server and clients
// alike — maintains one n-ary ordered state-space and processes operations
// with the uniform procedure of Section 6.2, implemented by
// statespace.Integrate (Algorithm 1).
//
// Messages. ClientMsg carries a client's original operation together with
// its context (the set of original operations the client had processed when
// generating it, Definition 4.6). ServerMsg is either the redirected
// original operation stamped with its global sequence number, or an
// acknowledgement to the originator carrying the sequence number assigned to
// its operation. Acknowledgements are what lets a client place later remote
// operations correctly relative to its own previously-pending ones (see the
// order-key discussion in package statespace).
package css

import (
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/statespace"
)

// ClientMsg is an operation propagated from a client to the server. Ctx is
// the explicit context; in compact mode (see compactctx.go) Ctx is nil and
// Compact carries the two-counter encoding instead.
type ClientMsg struct {
	From    opid.ClientID
	Op      ot.Op    // original operation
	Ctx     opid.Set // context: original ops processed by the client before Op
	Compact *CompactCtx
}

// ServerMsgKind distinguishes the two server-to-client message types.
type ServerMsgKind uint8

// Server message kinds.
const (
	// MsgBroadcast redirects an original operation to a non-originating
	// client.
	MsgBroadcast ServerMsgKind = iota + 1
	// MsgAck informs the originating client of the global sequence number
	// assigned to its operation.
	MsgAck
	// MsgFrontier tells a client that every replica has processed the
	// operations in Ctx, so its state-space may be compacted to that
	// frontier (the GC extension; see statespace.CompactTo).
	MsgFrontier
)

// ServerMsg is a message from the server to a client.
type ServerMsg struct {
	Kind    ServerMsgKind
	Op      ot.Op    // MsgBroadcast: the original operation
	Ctx     opid.Set // MsgBroadcast: the operation's original context
	Compact *CompactCtx
	Seq     uint64 // global sequence number of the operation (both kinds)
	AckID   opid.OpID
	Origin  opid.ClientID
}

// Addressed pairs a server message with its destination client.
type Addressed struct {
	To  opid.ClientID
	Msg ServerMsg
}

// replica holds the state shared by the server and clients: the n-ary
// ordered state-space and the current document (Definition 4.5's replica
// state representation). The set of processed original operations is not
// stored separately — it is, by construction, exactly the operation set of
// the space's final state, materialized on demand at message boundaries.
type replica struct {
	name  string
	space *statespace.Space
	doc   list.Doc
	rec   core.Recorder

	// Compact-context support: whether this replica sends compact contexts,
	// and its running view of the serialization order for expanding them.
	compact bool
	order   orderLog

	// onExec, when set, observes every executed operation in its final
	// (possibly transformed) form — the hook the editor layer uses to move
	// carets. The bool reports whether the operation was locally generated.
	onExec func(op ot.Op, local bool)
}

func newReplica(name string, initial list.Doc, rec core.Recorder, opts []statespace.Option) replica {
	var doc list.Doc
	if initial != nil {
		doc = initial.Clone()
	} else {
		doc = list.NewDocument()
	}
	return replica{
		name:  name,
		space: statespace.New(initial, opts...),
		doc:   doc,
		rec:   rec,
	}
}

// processed returns the replica's processed-operations set (the final
// state's operation set), materialized fresh for the caller.
func (r *replica) processed() opid.Set { return r.space.Final().Ops() }

// integrate runs the uniform processing for one operation and executes the
// transformed result on the document, returning the executed form.
func (r *replica) integrate(o ot.Op, ctx opid.Set, key statespace.OrderKey, local bool) (ot.Op, error) {
	exec, err := r.space.Integrate(o, ctx, key)
	if err != nil {
		return ot.Op{}, fmt.Errorf("%s: %w", r.name, err)
	}
	return r.execute(exec, local)
}

// integrateLocal is the local-generation fast path: a locally generated
// operation's matching state is by definition the replica's final state, so
// it is integrated there directly, with no context resolution. The context
// (the final state's operation set, materialized for the wire and the
// history record) is returned.
func (r *replica) integrateLocal(o ot.Op, key statespace.OrderKey) (opid.Set, error) {
	sigma := r.space.Final()
	ctx := sigma.Ops()
	exec, err := r.space.IntegrateAt(o, sigma, key)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	if _, err := r.execute(exec, true); err != nil {
		return nil, err
	}
	return ctx, nil
}

func (r *replica) execute(exec ot.Op, local bool) (ot.Op, error) {
	if err := ot.Apply(r.doc, exec); err != nil {
		return ot.Op{}, fmt.Errorf("%s: execute %s: %w", r.name, exec, err)
	}
	if r.onExec != nil {
		r.onExec(exec, local)
	}
	return exec, nil
}

// OnExecute registers an observer for every executed operation, in its
// final transformed form. Used by the editor layer to keep carets aligned;
// must be set before any operation is processed.
func (r *replica) OnExecute(fn func(op ot.Op, local bool)) { r.onExec = fn }

// record appends a do event to the history, if recording is enabled.
func (r *replica) record(op ot.Op, visible opid.Set) {
	if r.rec != nil {
		r.rec.Record(r.name, op, r.doc.Elems(), visible)
	}
}

// Document returns a copy of the replica's current list.
func (r *replica) Document() []list.Elem { return r.doc.Elems() }

// DocLen returns the current list length without materializing a copy — the
// O(1) read the load generator uses to pick edit positions at high rates.
func (r *replica) DocLen() int { return r.doc.Len() }

// Space returns the replica's n-ary ordered state-space.
func (r *replica) Space() *statespace.Space { return r.space }

// Client is a CSS client replica.
type Client struct {
	replica
	id         opid.ClientID
	nextSeq    uint64
	readSeq    uint64
	broadcasts int // server broadcasts received so far (compact contexts)
}

// NewClient creates a client with the given identifier and initial document
// (cloned; nil for empty). rec may be nil to disable history recording.
// Extra state-space options (statespace.WithDocs, statespace.WithCP1Check)
// are for tests.
func NewClient(id opid.ClientID, initial list.Doc, rec core.Recorder, opts ...statespace.Option) *Client {
	return &Client{
		replica: newReplica(id.String(), initial, rec, opts),
		id:      id,
	}
}

// ID returns the client identifier.
func (c *Client) ID() opid.ClientID { return c.id }

// GenerateIns performs the local processing for Ins(val, pos): execute
// immediately, save along a new (pending) transition, and return the message
// to propagate to the server.
func (c *Client) GenerateIns(val rune, pos int) (ClientMsg, error) {
	// Checked before a sequence number is consumed and a pending transition
	// saved (GenerateDel's lookup below does the same): a refused edit must
	// leave the replica as it was, or the next operation reaches the server
	// with a gap in this client's sequence.
	if n := c.doc.Len(); pos < 0 || pos > n {
		return ClientMsg{}, fmt.Errorf("%s: generate ins: %w: insert at %d, len %d", c.name, list.ErrPosOutOfRange, pos, n)
	}
	c.nextSeq++
	op := ot.Ins(val, pos, opid.OpID{Client: c.id, Seq: c.nextSeq})
	return c.generate(op)
}

// GenerateDel performs the local processing for Del at pos: the element
// currently at pos is looked up, deleted locally, and the operation is
// propagated.
func (c *Client) GenerateDel(pos int) (ClientMsg, error) {
	elem, err := c.doc.Get(pos)
	if err != nil {
		return ClientMsg{}, fmt.Errorf("%s: generate del: %w", c.name, err)
	}
	c.nextSeq++
	op := ot.Del(elem, pos, opid.OpID{Client: c.id, Seq: c.nextSeq})
	return c.generate(op)
}

func (c *Client) generate(op ot.Op) (ClientMsg, error) {
	ctx, err := c.integrateLocal(op, statespace.PendingKey)
	if err != nil {
		return ClientMsg{}, err
	}
	c.record(op, ctx)
	if c.compact {
		return ClientMsg{From: c.id, Op: op, Compact: &CompactCtx{
			Origin: c.id,
			Remote: c.broadcasts,
			OwnSeq: op.ID.Seq,
		}}, nil
	}
	return ClientMsg{From: c.id, Op: op, Ctx: ctx}, nil
}

// Receive processes the next message from the server (remote processing of
// Section 6.2, or an acknowledgement).
func (c *Client) Receive(m ServerMsg) error {
	switch m.Kind {
	case MsgAck:
		if err := c.space.Promote(m.AckID, statespace.OrderKey(m.Seq)); err != nil {
			return fmt.Errorf("%s: ack: %w", c.name, err)
		}
		c.order.appendEntry(m.AckID, c.id)
		return nil
	case MsgBroadcast:
		ctx := m.Ctx
		if ctx == nil {
			if m.Compact == nil {
				return fmt.Errorf("%s: broadcast with neither explicit nor compact context", c.name)
			}
			var err error
			ctx, err = c.order.expand(*m.Compact)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		c.order.appendEntry(m.Op.ID, m.Origin)
		c.broadcasts++
		_, err := c.integrate(m.Op, ctx, statespace.OrderKey(m.Seq), false)
		return err
	case MsgFrontier:
		if err := c.space.CompactTo(m.Ctx); err != nil {
			return fmt.Errorf("%s: frontier: %w", c.name, err)
		}
		return nil
	default:
		return fmt.Errorf("%s: unknown server message kind %d", c.name, m.Kind)
	}
}

// Read records a do(Read, w) event returning the current list.
func (c *Client) Read() []list.Elem {
	c.readSeq++
	// Reads get identities in a disjoint namespace (negated client) purely
	// for logging; they are never transformed or propagated.
	id := opid.OpID{Client: -c.id - 1000, Seq: c.readSeq}
	w := c.doc.Elems()
	if c.rec != nil {
		c.rec.Record(c.name, ot.Read(id), w, c.processed())
	}
	return w
}

// Server is the CSS central server. It serializes client operations,
// maintains its own replicated list (footnote 6 of the paper) and state-
// space, and redirects original operations.
type Server struct {
	replica
	clients []opid.ClientID
	nextSeq uint64
	readSeq uint64

	// GC extension state: the serialization order, each client's reported
	// processed set (a lower bound, learned from message contexts), and how
	// far the stability frontier has already advanced.
	serialized []opid.OpID
	known      map[opid.ClientID]opid.Set
	frontierAt int

	// Join-snapshot state (join.go): the frontier prefix of the
	// serialization order, the document value at the frontier, and the
	// replay log of broadcasts past the frontier.
	frontierOps []opid.OpID
	frontierDoc list.Doc
	replay      []ServerMsg
}

// NewServer creates the server for the given set of clients.
func NewServer(clients []opid.ClientID, initial list.Doc, rec core.Recorder, opts ...statespace.Option) *Server {
	cs := make([]opid.ClientID, len(clients))
	copy(cs, clients)
	known := make(map[opid.ClientID]opid.Set, len(cs))
	for _, c := range cs {
		known[c] = opid.NewSet()
	}
	var fdoc list.Doc
	if initial != nil {
		fdoc = initial.Clone()
	} else {
		fdoc = list.NewDocument()
	}
	return &Server{
		replica:     newReplica(opid.ServerName, initial, rec, opts),
		clients:     cs,
		known:       known,
		frontierDoc: fdoc,
	}
}

// Receive processes one client operation: assign the next global sequence
// number, integrate and execute it, and produce the redirections (to every
// other client) plus the acknowledgement (to the originator).
func (s *Server) Receive(m ClientMsg) ([]Addressed, error) {
	ctx := m.Ctx
	if ctx == nil {
		if m.Compact == nil {
			return nil, fmt.Errorf("server: message from %s with neither explicit nor compact context", m.From)
		}
		var err error
		ctx, err = s.order.expand(*m.Compact)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		m.Ctx = ctx
	}
	// Claim the next sequence number but commit it only after the operation
	// integrates: a rejected operation (bad context from a broken transport)
	// must leave the serialization untouched, or SeqOf drifts from the number
	// of operations actually serialized.
	seq := s.nextSeq + 1
	if _, err := s.integrate(m.Op, ctx, statespace.OrderKey(seq), false); err != nil {
		return nil, err
	}
	s.nextSeq = seq
	s.order.appendEntry(m.Op.ID, m.From)
	s.serialized = append(s.serialized, m.Op.ID)
	s.replay = append(s.replay, ServerMsg{
		Kind:   MsgBroadcast,
		Op:     m.Op,
		Ctx:    ctx,
		Seq:    seq,
		Origin: m.From,
	})
	// The message context is a lower bound on what its sender has processed,
	// and the sender has certainly processed its own operation. The known
	// sets are private accumulators, so they grow in place.
	k := s.known[m.From]
	for id := range m.Ctx {
		k.Put(id)
	}
	k.Put(m.Op.ID)
	out := make([]Addressed, 0, len(s.clients))
	for _, c := range s.clients {
		if c == m.From {
			out = append(out, Addressed{To: c, Msg: ServerMsg{Kind: MsgAck, AckID: m.Op.ID, Seq: seq, Origin: m.From}})
			continue
		}
		bm := ServerMsg{
			Kind:   MsgBroadcast,
			Op:     m.Op,
			Seq:    seq,
			Origin: m.From,
		}
		if s.compact && m.Compact != nil {
			bm.Compact = m.Compact
		} else {
			bm.Ctx = m.Ctx
		}
		out = append(out, Addressed{To: c, Msg: bm})
	}
	return out, nil
}

// Read records a do(Read, w) event at the server.
func (s *Server) Read() []list.Elem {
	s.readSeq++
	id := opid.OpID{Client: -1, Seq: s.readSeq}
	w := s.doc.Elems()
	if s.rec != nil {
		s.rec.Record(s.name, ot.Read(id), w, s.processed())
	}
	return w
}

// SeqOf returns the number of operations the server has serialized so far.
func (s *Server) SeqOf() uint64 { return s.nextSeq }

// Serialized returns a copy of the serialization order (operation identities
// in global sequence order). Position i holds the operation with sequence
// number i+1.
func (s *Server) Serialized() []opid.OpID {
	out := make([]opid.OpID, len(s.serialized))
	copy(out, s.serialized)
	return out
}

// Clients returns a copy of the registered client identifiers.
func (s *Server) Clients() []opid.ClientID {
	out := make([]opid.ClientID, len(s.clients))
	copy(out, s.clients)
	return out
}

// StableFrontier computes the longest prefix of the serialization order
// every client is known (from reported message contexts) to have processed.
// By Lemma 6.4, a state with exactly that operation set lies on the leftmost
// path from the initial state, so it is a valid compaction target.
func (s *Server) StableFrontier() opid.Set {
	frontier := opid.NewSet()
	for _, id := range s.serialized {
		for _, c := range s.clients {
			if !s.known[c].Contains(id) {
				return frontier
			}
		}
		frontier.Put(id)
	}
	return frontier
}

// AdvanceFrontier runs the garbage-collection extension: it computes the
// stability frontier, compacts the server's own state-space to it, and
// returns the MsgFrontier messages instructing every client to do the same.
// It returns no messages when the frontier has not moved since the last
// call. Safety relies on FIFO channels: any operation still in flight was
// generated after its originator processed the frontier (see
// statespace.CompactTo), so its context contains the frontier.
func (s *Server) AdvanceFrontier() ([]Addressed, error) {
	frontier := s.StableFrontier()
	if len(frontier) == s.frontierAt {
		return nil, nil
	}
	// Advance the frontier document and operation prefix along the leftmost
	// path from the old frontier state (the space's current root) to the
	// new one, BEFORE compaction prunes that path (join.go relies on these).
	delta := len(frontier) - s.frontierAt
	cur := s.space.Initial()
	for k := 0; k < delta; k++ {
		if cur.EdgeCount() == 0 {
			return nil, fmt.Errorf("server: frontier walk stuck at %s", cur)
		}
		e := cur.EdgeAt(0)
		if err := ot.Apply(s.frontierDoc, e.Op); err != nil {
			return nil, fmt.Errorf("server: frontier doc: %w", err)
		}
		s.frontierOps = append(s.frontierOps, e.Op.ID)
		cur = e.To
	}
	if err := s.space.CompactTo(frontier); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.frontierAt = len(frontier)
	// Trim the replay log: operations inside the frontier need no replay.
	kept := s.replay[:0]
	for _, m := range s.replay {
		if m.Seq > uint64(s.frontierAt) {
			kept = append(kept, m)
		}
	}
	s.replay = kept
	out := make([]Addressed, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, Addressed{To: c, Msg: ServerMsg{Kind: MsgFrontier, Ctx: frontier}})
	}
	return out, nil
}

// UseCompactContexts switches the client to the two-counter wire context
// encoding (see compactctx.go). Call before any operation is generated or
// received; all replicas of a cluster must agree.
func (c *Client) UseCompactContexts() { c.compact = true }

// UseCompactContexts switches the server to the compact encoding for its
// redirected broadcasts. Call before any operation is processed.
func (s *Server) UseCompactContexts() { s.compact = true }
