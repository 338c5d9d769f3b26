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
	rec   core.Tracker // the recorder and the operations processed since its last event

	// compact is whether this replica sends compact contexts; order is the
	// serialization order as far as it has learned it (compactctx.go).
	compact bool
	order   orderLog
	ctxBuf  opid.Set // the last expanded context, refilled by the next (never retained)

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
		rec:   core.NewTracker(rec),
	}
}

// expand is order.expand into the replica's scratch set: the context is only
// looked up, so it stays valid until the next call and must not be retained.
func (r *replica) expand(c CompactCtx) (ctx opid.Set, err error) {
	if ctx, err = r.order.expand(c, r.ctxBuf); ctx != nil {
		r.ctxBuf = ctx
	}
	return ctx, err
}

// processed returns the replica's processed-operations set (the final
// state's operation set), materialized fresh for the caller.
func (r *replica) processed() opid.Set { return r.space.Final().Ops() }

// reportProcessed hands the recorder the replica's whole processed set, as
// the delta of its next event: a restored or joining replica has processed
// operations its recorder never saw it integrate.
func (r *replica) reportProcessed() {
	if r.rec.On() {
		r.rec.Processed(r.processed().Sorted()...)
	}
}

// integrate runs the uniform processing for one operation and executes the
// transformed result on the document, returning the executed form.
func (r *replica) integrate(o ot.Op, ctx opid.Set, key statespace.OrderKey, local bool) (ot.Op, error) {
	exec, err := r.space.Integrate(o, ctx, key)
	if err != nil {
		return ot.Op{}, fmt.Errorf("%s: %w", r.name, err)
	}
	r.rec.Processed(o.ID)
	return r.execute(exec, local)
}

// integrateLocal is the local-generation fast path: a locally generated
// operation's matching state is by definition the replica's final state, so
// it is integrated there directly, with no context resolution.
func (r *replica) integrateLocal(o ot.Op, key statespace.OrderKey) error {
	exec, err := r.space.IntegrateAt(o, r.space.Final(), key)
	if err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	r.rec.Processed(o.ID)
	_, err = r.execute(exec, true)
	return err
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
func (r *replica) record(op ot.Op) {
	if r.rec.On() {
		r.rec.Record(r.name, op, r.doc.Elems())
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
	// The context is the processed set as it stands before op. Only an
	// explicit-context message reads it; otherwise it is never built, or
	// every operation would cost O(history).
	var ctx opid.Set
	if !c.compact {
		ctx = c.processed()
	}
	if err := c.integrateLocal(op, statespace.PendingKey); err != nil {
		return ClientMsg{}, err
	}
	c.record(op)
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
		c.order = append(c.order, m.AckID)
		return nil
	case MsgBroadcast:
		ctx := m.Ctx
		if ctx == nil {
			if m.Compact == nil {
				return fmt.Errorf("%s: broadcast with neither explicit nor compact context", c.name)
			}
			var err error
			if ctx, err = c.expand(*m.Compact); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		c.order = append(c.order, m.Op.ID)
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
	if c.rec.On() {
		c.rec.Record(c.name, ot.Read(id), w)
	}
	return w
}

// Server is the CSS central server. It serializes client operations,
// maintains its own replicated list (footnote 6 of the paper) and state-
// space, and redirects original operations.
//
// The serialization order is kept once, as the replica's order log. Past the
// stable frontier the server also keeps each operation with the one counter
// of its context the log does not give (tail); everything else is a view over
// the log: SeqOf and Serialized read it, Snapshot is the frontier prefix plus
// the tail as broadcasts, Save writes it and RestoreServer replays it.
type Server struct {
	replica
	clients []opid.ClientID
	readSeq uint64

	// known is a lower bound on what each registered client has processed,
	// learned from the contexts of its messages.
	known map[opid.ClientID]progress

	// order[:frontierAt] is the stable frontier (see stableLen), frontierDoc
	// the list value there, and tail[i] the operation at order[frontierAt+i].
	frontierAt  int
	frontierDoc list.Doc
	tail        []tailEntry
}

// progress says a replica has processed the first remote logged operations
// that are not its own, and its own operations up to sequence number own.
type progress struct {
	remote int
	own    uint64
}

// tailEntry is a serialized operation the frontier has not reached, with the
// Remote counter of its context; Origin and OwnSeq are the operation's id.
type tailEntry struct {
	op     ot.Op
	remote int
}

func (e tailEntry) ctx() CompactCtx {
	return CompactCtx{Origin: e.op.ID.Client, Remote: e.remote, OwnSeq: e.op.ID.Seq}
}

// NewServer creates the server for the given set of clients.
func NewServer(clients []opid.ClientID, initial list.Doc, rec core.Recorder, opts ...statespace.Option) *Server {
	s := &Server{
		replica: newReplica(opid.ServerName, initial, rec, opts),
		clients: append([]opid.ClientID(nil), clients...),
		known:   make(map[opid.ClientID]progress, len(clients)),
	}
	for _, c := range clients {
		s.known[c] = progress{}
	}
	s.frontierDoc = s.doc.Clone()
	return s
}

// Receive processes one client operation: assign the next global sequence
// number, integrate and execute it, and produce the redirections (to every
// other client) plus the acknowledgement (to the originator). A refused
// message — a forged identity, a context no state matches — changes nothing:
// SeqOf stays the number of operations actually serialized.
func (s *Server) Receive(m ClientMsg) ([]Addressed, error) {
	cc, ctx, err := s.contextOf(m)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := s.serialize(m.Op, cc.Remote, ctx); err != nil {
		return nil, err
	}
	// The context is a lower bound on what its sender has processed, and the
	// sender has certainly processed its own operation.
	s.known[m.From] = progress{remote: cc.Remote, own: m.Op.ID.Seq}
	seq := s.SeqOf()
	out := make([]Addressed, 0, len(s.clients))
	for _, c := range s.clients {
		if c == m.From {
			out = append(out, Addressed{To: c, Msg: ServerMsg{Kind: MsgAck, AckID: m.Op.ID, Seq: seq, Origin: m.From}})
			continue
		}
		bm := ServerMsg{Kind: MsgBroadcast, Op: m.Op, Seq: seq, Origin: m.From}
		if s.compact {
			bm.Compact = &cc
		} else {
			bm.Ctx = ctx
		}
		out = append(out, Addressed{To: c, Msg: bm})
	}
	return out, nil
}

// contextOf checks that a message says only what its sender can, and returns
// its context in both forms. The log files an operation under id.Client, so a
// client that could name another as author would serialize operations in the
// victim's sequence and wedge it on ErrDuplicateOp: the sender must be
// registered, the operation and a compact context must be its own, and an
// explicit context must be exactly what its two counters expand to — the only
// shape a FIFO client's context has, and the one a join or restart replays.
// An expanded set is the replica's scratch (see expand) unless explicit
// broadcasts will carry it.
func (s *Server) contextOf(m ClientMsg) (CompactCtx, opid.Set, error) {
	cc := CompactCtx{Origin: m.From, OwnSeq: m.Op.ID.Seq}
	if _, ok := s.known[m.From]; !ok || m.Op.ID.Client != m.From {
		return cc, nil, fmt.Errorf("operation %s sent by %s, who is not its registered author", m.Op.ID, m.From)
	}
	switch {
	case m.Ctx != nil:
		for id := range m.Ctx {
			if id.Client != m.From {
				cc.Remote++
			}
		}
		if want, err := s.expand(cc); err != nil || !want.Equal(m.Ctx) {
			return cc, nil, fmt.Errorf("context %s of %s is not one %s can have", m.Ctx, m.Op.ID, m.From)
		}
		return cc, m.Ctx, nil
	case m.Compact == nil:
		return cc, nil, fmt.Errorf("message from %s with neither explicit nor compact context", m.From)
	case m.Compact.Origin != cc.Origin || m.Compact.OwnSeq != cc.OwnSeq:
		return cc, nil, fmt.Errorf("compact context %+v does not belong to operation %s", *m.Compact, m.Op.ID)
	}
	if s.compact {
		ctx, err := s.expand(*m.Compact)
		return *m.Compact, ctx, err
	}
	ctx, err := s.order.expand(*m.Compact, nil)
	return *m.Compact, ctx, err
}

// serialize appends one operation to the log: it is integrated at its context
// under the next sequence number, executed, and kept in the tail. An
// operation that does not integrate leaves the log untouched.
func (s *Server) serialize(op ot.Op, remote int, ctx opid.Set) error {
	if _, err := s.integrate(op, ctx, statespace.OrderKey(len(s.order)+1), false); err != nil {
		return err
	}
	s.order = append(s.order, op.ID)
	s.tail = append(s.tail, tailEntry{op: op, remote: remote})
	return nil
}

// Read records a do(Read, w) event at the server.
func (s *Server) Read() []list.Elem {
	s.readSeq++
	id := opid.OpID{Client: -1, Seq: s.readSeq}
	w := s.doc.Elems()
	if s.rec.On() {
		s.rec.Record(s.name, ot.Read(id), w)
	}
	return w
}

// SeqOf returns the number of operations the server has serialized so far.
func (s *Server) SeqOf() uint64 { return uint64(len(s.order)) }

// Serialized returns a copy of the serialization order (operation identities
// in global sequence order). Position i holds the operation with sequence
// number i+1.
func (s *Server) Serialized() []opid.OpID {
	return append([]opid.OpID(nil), s.order...)
}

// Clients returns a copy of the registered client identifiers.
func (s *Server) Clients() []opid.ClientID {
	return append([]opid.ClientID(nil), s.clients...)
}

// stableLen is the length of the stable frontier, the longest prefix P of the
// log such that
//
//   - every registered client is known to have processed P, so no operation
//     in flight or still to come has a context below it (FIFO), and
//   - every operation that stays in the tail was generated on a state
//     containing P, so a replica rooted at P — a late joiner, a restarted
//     server — has the matching state of each one it replays. An operation
//     serialized late can have been generated early; its sender's later
//     messages say nothing about it.
//
// Both are one inequality: a replica that has processed remote foreign
// operations, own of whose operations lie in a prefix of length k, has
// processed that prefix iff k − own ≤ remote. The scan walks k down from the
// whole log; an operation passed on the way joins the tail and its context
// replaces its author's bound (per author the earliest tail entry is the
// weakest). By Lemma 6.4 a state with exactly P's operations lies on the
// leftmost path from the root, so P is a valid compaction target.
func (s *Server) stableLen() int {
	bound := make(map[opid.ClientID]progress, len(s.known))
	for c, p := range s.known {
		bound[c] = p
	}
	covers := func(k int) bool {
		for _, p := range bound {
			if k-int(p.own) > p.remote {
				return false
			}
		}
		return true
	}
	k := len(s.order)
	for ; k > s.frontierAt && !covers(k); k-- {
		e := s.tail[k-1-s.frontierAt]
		bound[e.op.ID.Client] = progress{remote: e.remote, own: e.op.ID.Seq - 1}
	}
	return k
}

// StableFrontier returns the stable frontier as an operation set.
func (s *Server) StableFrontier() opid.Set {
	return opid.NewSet(s.order[:s.stableLen()]...)
}

// AdvanceFrontier runs the garbage-collection extension: it computes the
// stability frontier, compacts the server's own state-space to it, and
// returns the MsgFrontier messages instructing every client to do the same.
// It returns no messages when the frontier has not moved since the last
// call. Safety relies on FIFO channels: any operation still in flight was
// generated after its originator processed the frontier (see
// statespace.CompactTo), so its context contains the frontier.
func (s *Server) AdvanceFrontier() ([]Addressed, error) {
	k := s.stableLen()
	if k == s.frontierAt {
		return nil, nil
	}
	// Advance the frontier document along the leftmost path from the old
	// frontier state (the space's current root) to the new one, BEFORE
	// compaction prunes that path.
	cur := s.space.Initial()
	for range k - s.frontierAt {
		if cur.EdgeCount() == 0 {
			return nil, fmt.Errorf("server: frontier walk stuck at %s", cur)
		}
		e := cur.EdgeAt(0)
		if err := ot.Apply(s.frontierDoc, e.Op); err != nil {
			return nil, fmt.Errorf("server: frontier doc: %w", err)
		}
		cur = e.To
	}
	frontier := opid.NewSet(s.order[:k]...)
	if err := s.space.CompactTo(frontier); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.tail = append(s.tail[:0:0], s.tail[k-s.frontierAt:]...)
	s.frontierAt = k
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
