// Package cscw implements the CSCW Jupiter protocol (Section 5 of the
// paper): the complete multi-client description, from the CSCW'14 paper of
// Xu, Sun and Li, of the two-way synchronization protocol first proposed in
// the original Jupiter paper.
//
// In contrast with the CSS protocol (internal/css):
//
//   - the server redirects TRANSFORMED operations o{L1}, not originals
//     (Section 5.2.2 step 5 versus CSS footnote 7);
//   - each replica keeps 2D state-spaces: the server one per client (DSSsi),
//     each client its own (DSSci) — 2n spaces in total, with replica states
//     "dispersed" across them (Section 1);
//   - clients perform fewer OTs: the protocol "is slightly optimized in
//     implementation by eliminating redundant OTs at clients" (Section 7).
//
// The operational core is the classical Jupiter algorithm: the server
// transforms an incoming client operation against the operations it has
// processed that the client had not seen; a client transforms an incoming
// server operation against its own unacknowledged (pending) operations.
// Acknowledgements trim the pending list. The 2D state-spaces are maintained
// as explicit bookkeeping (type DSS) so that experiment E1 can compare their
// number and size against the CSS protocol's single n-ary space, exactly the
// contrast the paper draws.
package cscw

import (
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// ClientMsg is an operation propagated from a client to the server, with
// its generation context.
type ClientMsg struct {
	From opid.ClientID
	Op   ot.Op    // original operation
	Ctx  opid.Set // original ops processed by the client before Op
}

// ServerMsgKind distinguishes server-to-client message types.
type ServerMsgKind uint8

// Server message kinds.
const (
	// MsgBroadcast carries the server-transformed operation o{L1} to a
	// non-originating client.
	MsgBroadcast ServerMsgKind = iota + 1
	// MsgAck tells the originator its oldest pending operation is serialized.
	MsgAck
)

// ServerMsg is a message from the server to a client.
type ServerMsg struct {
	Kind   ServerMsgKind
	Op     ot.Op // MsgBroadcast: the transformed operation o{L1}
	Seq    uint64
	AckID  opid.OpID
	Origin opid.ClientID
}

// Addressed pairs a server message with its destination client.
type Addressed struct {
	To  opid.ClientID
	Msg ServerMsg
}

// DSS records the size of one 2D state-space: the operations saved along
// its local and global dimensions and the states/edges created by the OTs
// performed in it. It is measurement bookkeeping; the operational protocol
// state lives in the pending/against lists.
type DSS struct {
	Name   string
	Local  int // operations saved along the local dimension
	Global int // operations saved along the global dimension
	States int // grid states materialized (origin included)
	Edges  int // transitions materialized
}

func newDSS(name string) *DSS {
	return &DSS{Name: name, States: 1}
}

// extendLocal records saving one operation along the local dimension.
func (d *DSS) extendLocal() { d.Local++; d.States++; d.Edges++ }

// extendGlobal records saving one operation along the global dimension.
func (d *DSS) extendGlobal() { d.Global++; d.States++; d.Edges++ }

// cell records one OT step, which materializes one new grid state and the
// two transitions of the commutative square that reach it.
func (d *DSS) cell() { d.States++; d.Edges += 2 }

// Client is a CSCW client replica.
type Client struct {
	id        opid.ClientID
	doc       list.Doc
	pending   []ot.Op // own operations not yet acknowledged, progressively transformed
	processed opid.Set
	nextSeq   uint64
	readSeq   uint64
	rec       core.Tracker
	dss       *DSS
}

// NewClient creates a CSCW client. rec may be nil.
func NewClient(id opid.ClientID, initial list.Doc, rec core.Recorder) *Client {
	var doc list.Doc
	if initial != nil {
		doc = initial.Clone()
	} else {
		doc = list.NewDocument()
	}
	return &Client{
		id:        id,
		doc:       doc,
		processed: opid.NewSet(),
		rec:       core.NewTracker(rec),
		dss:       newDSS("DSS" + id.String()),
	}
}

// ID returns the client identifier.
func (c *Client) ID() opid.ClientID { return c.id }

// Document returns a copy of the client's current list.
func (c *Client) Document() []list.Elem { return c.doc.Elems() }

// DSS returns the client's 2D state-space bookkeeping.
func (c *Client) DSS() DSS { return *c.dss }

// PendingLen returns the number of unacknowledged own operations.
func (c *Client) PendingLen() int { return len(c.pending) }

// GenerateIns performs the local processing of Section 5.2.1 for
// Ins(val, pos).
func (c *Client) GenerateIns(val rune, pos int) (ClientMsg, error) {
	c.nextSeq++
	op := ot.Ins(val, pos, opid.OpID{Client: c.id, Seq: c.nextSeq})
	return c.generate(op)
}

// GenerateDel performs the local processing of Section 5.2.1 for a delete
// of the element currently at pos.
func (c *Client) GenerateDel(pos int) (ClientMsg, error) {
	elem, err := c.doc.Get(pos)
	if err != nil {
		return ClientMsg{}, fmt.Errorf("%s: generate del: %w", c.id, err)
	}
	c.nextSeq++
	op := ot.Del(elem, pos, opid.OpID{Client: c.id, Seq: c.nextSeq})
	return c.generate(op)
}

func (c *Client) generate(op ot.Op) (ClientMsg, error) {
	ctx := c.processed.Clone()
	if err := ot.Apply(c.doc, op); err != nil {
		return ClientMsg{}, fmt.Errorf("%s: execute %s: %w", c.id, op, err)
	}
	c.pending = append(c.pending, op)
	c.dss.extendLocal()
	c.processed.Put(op.ID)
	c.rec.Processed(op.ID)
	if c.rec.On() {
		c.rec.Record(c.id.String(), op, c.doc.Elems())
	}
	return ClientMsg{From: c.id, Op: op, Ctx: ctx}, nil
}

// Receive performs the remote processing of Section 5.2.3 (or consumes an
// acknowledgement): the incoming transformed operation o{L1} is transformed
// with the sequence L2 of pending local operations, the pending operations
// are symmetrically updated to include it, and the result is executed.
func (c *Client) Receive(m ServerMsg) error {
	switch m.Kind {
	case MsgAck:
		if len(c.pending) == 0 {
			return fmt.Errorf("%s: ack %s with empty pending list", c.id, m.AckID)
		}
		if c.pending[0].ID != m.AckID {
			return fmt.Errorf("%s: ack %s out of order, oldest pending is %s", c.id, m.AckID, c.pending[0].ID)
		}
		c.pending = c.pending[1:]
		return nil
	case MsgBroadcast:
		o := m.Op
		c.dss.extendGlobal()
		for i, p := range c.pending {
			c.pending[i] = ot.Transform(p, o)
			o = ot.Transform(o, p)
			c.dss.cell()
		}
		if err := ot.Apply(c.doc, o); err != nil {
			return fmt.Errorf("%s: execute %s: %w", c.id, o, err)
		}
		c.processed.Put(o.ID)
		c.rec.Processed(o.ID)
		return nil
	default:
		return fmt.Errorf("%s: unknown server message kind %d", c.id, m.Kind)
	}
}

// Read records a do(Read, w) event returning the current list.
func (c *Client) Read() []list.Elem {
	c.readSeq++
	id := opid.OpID{Client: -c.id - 1000, Seq: c.readSeq}
	w := c.doc.Elems()
	if c.rec.On() {
		c.rec.Record(c.id.String(), ot.Read(id), w)
	}
	return w
}

// Server is the CSCW central server.
type Server struct {
	doc       list.Doc
	clients   []opid.ClientID
	against   map[opid.ClientID][]ot.Op // per client: processed ops the client has not yet seen
	dss       map[opid.ClientID]*DSS
	processed opid.Set
	nextSeq   uint64
	readSeq   uint64
	rec       core.Tracker
}

// NewServer creates the CSCW server for the given clients.
func NewServer(clients []opid.ClientID, initial list.Doc, rec core.Recorder) *Server {
	var doc list.Doc
	if initial != nil {
		doc = initial.Clone()
	} else {
		doc = list.NewDocument()
	}
	s := &Server{
		doc:       doc,
		clients:   append([]opid.ClientID(nil), clients...),
		against:   make(map[opid.ClientID][]ot.Op, len(clients)),
		dss:       make(map[opid.ClientID]*DSS, len(clients)),
		processed: opid.NewSet(),
		rec:       core.NewTracker(rec),
	}
	for _, c := range clients {
		s.dss[c] = newDSS("DSSs" + c.String())
	}
	return s
}

// Document returns a copy of the server's current list.
func (s *Server) Document() []list.Elem { return s.doc.Elems() }

// DSSs returns the server-side 2D state-space bookkeeping, one per client.
func (s *Server) DSSs() []DSS {
	out := make([]DSS, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, *s.dss[c])
	}
	return out
}

// Receive performs the server processing of Section 5.2.2: find the ops of
// DSSsi's global dimension the client had not seen (L1), transform, execute,
// save the result in every other client's space, and propagate o{L1}.
func (s *Server) Receive(m ClientMsg) ([]Addressed, error) {
	s.nextSeq++
	seq := s.nextSeq
	dss := s.dss[m.From]
	if dss == nil {
		return nil, fmt.Errorf("server: unknown client %s", m.From)
	}
	dss.extendLocal()

	// Drop the prefix of `against` the client already saw; FIFO channels
	// guarantee the seen part is exactly a prefix.
	lst := s.against[m.From]
	k := 0
	for k < len(lst) && m.Ctx.Contains(lst[k].ID) {
		k++
	}
	for i := k; i < len(lst); i++ {
		if m.Ctx.Contains(lst[i].ID) {
			return nil, fmt.Errorf("server: context of %s from %s is not a prefix of its channel", m.Op, m.From)
		}
	}
	rest := lst[k:]

	// OT(o, L1) = (o{L1}, L1{o}) — iterative transformation, updating the
	// stored forms to include o.
	o := m.Op
	newRest := make([]ot.Op, len(rest))
	for i, p := range rest {
		newRest[i] = ot.Transform(p, o)
		o = ot.Transform(o, p)
		dss.cell()
	}
	s.against[m.From] = newRest

	if err := ot.Apply(s.doc, o); err != nil {
		return nil, fmt.Errorf("server: execute %s: %w", o, err)
	}
	s.processed.Put(o.ID)
	s.rec.Processed(o.ID)

	out := make([]Addressed, 0, len(s.clients))
	for _, c := range s.clients {
		if c == m.From {
			out = append(out, Addressed{To: c, Msg: ServerMsg{Kind: MsgAck, AckID: m.Op.ID, Seq: seq, Origin: m.From}})
			continue
		}
		// Save o{L1} at the end of the global dimension of DSSsj (step 4).
		s.against[c] = append(s.against[c], o)
		s.dss[c].extendGlobal()
		out = append(out, Addressed{To: c, Msg: ServerMsg{Kind: MsgBroadcast, Op: o, Seq: seq, Origin: m.From}})
	}
	return out, nil
}

// Read records a do(Read, w) event at the server.
func (s *Server) Read() []list.Elem {
	s.readSeq++
	id := opid.OpID{Client: -1, Seq: s.readSeq}
	w := s.doc.Elems()
	if s.rec.On() {
		s.rec.Record(opid.ServerName, ot.Read(id), w)
	}
	return w
}
