// Package broken implements the INCORRECT OT-based protocol of Example 8.1
// in the paper — the running "counterexample" of Figure 8. It exists as a
// negative control: the specification checkers in internal/spec must reject
// its executions (convergence and the weak list specification both fail),
// and the state-space lemmas of Section 8.2 must fail on the union of its
// clients' spaces (Examples 8.2–8.4).
//
// The protocol is wrong in two compounding ways, mirroring pre-Jupiter OT
// systems:
//
//  1. No serialization: the relay server forwards ORIGINAL operations but
//     establishes no total order, and each client transforms an incoming
//     operation against the concurrent operations it has executed in ITS
//     OWN execution order — so different replicas transform in different
//     orders.
//  2. Naive transformation: the insert/insert tie at equal positions keeps
//     the incoming position unchanged instead of using a deterministic
//     priority, so the transform violates CP1.
//
// Under the Figure 8 schedule (o1 = Ins(x,2), o2 = Del(b,1), o3 = Ins(y,1)
// on "abc") client C1 ends with "ayxc" and client C2 with "axyc".
package broken

import (
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// Msg carries an original operation and its generation context.
type Msg struct {
	From opid.ClientID
	Op   ot.Op
	Ctx  opid.Set
}

// Addressed pairs a forwarded message with its destination.
type Addressed struct {
	To  opid.ClientID
	Msg Msg
}

// NaiveTransform is the flawed inclusion transformation: identical to
// ot.Transform except that concurrent inserts at the same position never
// shift (the incoming operation keeps its position), which breaks CP1.
func NaiveTransform(o1, o2 ot.Op) ot.Op {
	if o1.Kind == ot.KindIns && o2.Kind == ot.KindIns && o1.Pos == o2.Pos {
		return o1
	}
	return ot.Transform(o1, o2)
}

// executed is one executed operation: its original identity and the form in
// which it was applied locally.
type executed struct {
	id   opid.OpID
	form ot.Op
}

// Client is a replica of the incorrect protocol.
type Client struct {
	id        opid.ClientID
	doc       list.Doc
	log       []executed // execution order, executed forms
	processed opid.Set
	nextSeq   uint64
	readSeq   uint64
	rec       core.Tracker
}

// NewClient creates a client over the given initial document (cloned).
func NewClient(id opid.ClientID, initial list.Doc, rec core.Recorder) *Client {
	var doc list.Doc
	if initial != nil {
		doc = initial.Clone()
	} else {
		doc = list.NewDocument()
	}
	return &Client{id: id, doc: doc, processed: opid.NewSet(), rec: core.NewTracker(rec)}
}

// ID returns the client identifier.
func (c *Client) ID() opid.ClientID { return c.id }

// Document returns a copy of the current list.
func (c *Client) Document() []list.Elem { return c.doc.Elems() }

// ExecutedForms returns the operations in execution order, in the forms
// they were applied — what Figure 8 depicts as each client's path.
func (c *Client) ExecutedForms() []ot.Op {
	out := make([]ot.Op, len(c.log))
	for i, e := range c.log {
		out[i] = e.form
	}
	return out
}

// GenerateIns executes Ins(val, pos) locally and returns the message to
// relay.
func (c *Client) GenerateIns(val rune, pos int) (Msg, error) {
	c.nextSeq++
	op := ot.Ins(val, pos, opid.OpID{Client: c.id, Seq: c.nextSeq})
	return c.generate(op)
}

// GenerateDel executes a delete of the element at pos locally and returns
// the message to relay.
func (c *Client) GenerateDel(pos int) (Msg, error) {
	elem, err := c.doc.Get(pos)
	if err != nil {
		return Msg{}, fmt.Errorf("%s: generate del: %w", c.id, err)
	}
	c.nextSeq++
	op := ot.Del(elem, pos, opid.OpID{Client: c.id, Seq: c.nextSeq})
	return c.generate(op)
}

func (c *Client) generate(op ot.Op) (Msg, error) {
	ctx := c.processed.Clone()
	if err := ot.Apply(c.doc, op); err != nil {
		return Msg{}, fmt.Errorf("%s: execute %s: %w", c.id, op, err)
	}
	c.log = append(c.log, executed{id: op.ID, form: op})
	c.processed = c.processed.Add(op.ID)
	c.rec.Processed(op.ID)
	if c.rec.On() {
		c.rec.Record(c.id.String(), op, c.doc.Elems())
	}
	return Msg{From: c.id, Op: op, Ctx: ctx}, nil
}

// Receive integrates a remote operation: it is naively transformed against
// every executed operation not in its context, in local execution order,
// then executed.
func (c *Client) Receive(m Msg) error {
	o := m.Op
	for _, e := range c.log {
		if m.Ctx.Contains(e.id) {
			continue
		}
		o = NaiveTransform(o, e.form)
	}
	if err := ot.Apply(c.doc, o); err != nil {
		return fmt.Errorf("%s: execute %s: %w", c.id, o, err)
	}
	c.log = append(c.log, executed{id: m.Op.ID, form: o})
	c.processed = c.processed.Add(m.Op.ID)
	c.rec.Processed(m.Op.ID)
	return nil
}

// Read records a do(Read, w) event returning the current list.
func (c *Client) Read() []list.Elem {
	c.readSeq++
	id := opid.OpID{Client: -c.id - 3000, Seq: c.readSeq}
	w := c.doc.Elems()
	if c.rec.On() {
		c.rec.Record(c.id.String(), ot.Read(id), w)
	}
	return w
}

// Server is the order-less relay: it forwards original operations to the
// other clients and does not even keep a document (the flaw is the point).
type Server struct {
	clients []opid.ClientID
}

// NewServer creates the relay for the given clients.
func NewServer(clients []opid.ClientID) *Server {
	return &Server{clients: append([]opid.ClientID(nil), clients...)}
}

// Receive forwards the message to every other client.
func (s *Server) Receive(m Msg) ([]Addressed, error) {
	out := make([]Addressed, 0, len(s.clients)-1)
	for _, c := range s.clients {
		if c == m.From {
			continue
		}
		out = append(out, Addressed{To: c, Msg: m})
	}
	return out, nil
}
