package css

import (
	"bytes"
	"encoding/json"
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/statespace"
)

// Client persistence — suspend/resume and crash recovery.
//
// Unlike a late join (join.go), which adopts the server's state and loses
// anything unacknowledged, Save/RestoreClient round-trips the client's OWN
// replica state: document, state-space (including pending transitions
// awaiting acknowledgement; its final state is the processed set), sequence
// counters, and the serialization-order log. A restored client continues
// exactly where the saved one stopped; the transport is assumed to retain
// undelivered messages (the FIFO-channel model — reconnect semantics with
// resend and deduplication are transport concerns outside this package).

type clientStateJSON struct {
	ID         int32             `json:"id"`
	Doc        []core.ElemJSON   `json:"doc"`
	NextSeq    uint64            `json:"nextSeq"`
	ReadSeq    uint64            `json:"readSeq"`
	Broadcasts int               `json:"broadcasts"`
	Compact    bool              `json:"compact"`
	Order      []core.OpIDJSON   `json:"order"`
	Space      *statespace.Space `json:"space"`
}

// Server persistence — restart and migration.
//
// The log determines the server: the blob is the frontier prefix of the
// order with the document there, the operations past it with their context
// counters, and per client the two counters of what it has processed.
// RestoreServer rebuilds the rest exactly as a late joiner does — a space
// rooted at the frontier, the tail integrated in order — so the blob grows
// with the operations past the frontier, not with states × operations.
//
// A blob is outside input. Fields this format does not have are refused by
// name (a blob of the earlier format carried the state-space and five copies
// of the order; there is no converter), and a tail that does not integrate is
// an error naming its index, never a half-restored serializer.

type progressJSON struct {
	Client int32  `json:"client"`
	Remote int    `json:"remote"`
	Own    uint64 `json:"own"`
}

type tailJSON struct {
	Op     core.OpJSON `json:"op"`
	Remote int         `json:"remote"`
}

type serverStateJSON struct {
	Clients     []progressJSON  `json:"clients"`
	ReadSeq     uint64          `json:"readSeq"`
	Compact     bool            `json:"compact"`
	Frontier    []core.OpIDJSON `json:"frontier"`
	FrontierDoc []core.ElemJSON `json:"frontierDoc"`
	Tail        []tailJSON      `json:"tail"`
}

// Save serializes the server: the log and the counters over it. A restored
// server continues serializing exactly where the saved one stopped — the
// restart-resume path of the network runtime depends on SeqOf and the join
// snapshot surviving intact.
func (s *Server) Save() ([]byte, error) {
	st := serverStateJSON{ReadSeq: s.readSeq, Compact: s.compact, FrontierDoc: docToJSON(s.frontierDoc)}
	for _, c := range s.clients {
		p := s.known[c]
		st.Clients = append(st.Clients, progressJSON{Client: int32(c), Remote: p.remote, Own: p.own})
	}
	for _, id := range s.order[:s.frontierAt] {
		st.Frontier = append(st.Frontier, core.IDToJSON(id))
	}
	for _, e := range s.tail {
		st.Tail = append(st.Tail, tailJSON{Op: core.OpToJSON(e.op), Remote: e.remote})
	}
	return json.Marshal(st)
}

// RestoreServer reconstructs a server from Save's output. rec may be nil.
func RestoreServer(data []byte, rec core.Recorder) (*Server, error) {
	var st serverStateJSON
	if err := unmarshalStrict(data, &st); err != nil {
		return nil, fmt.Errorf("css: restore server: %w", err)
	}
	fdoc, err := docFromJSON(st.FrontierDoc)
	if err != nil {
		return nil, fmt.Errorf("css: restore server: frontierDoc: %w", err)
	}
	s := &Server{
		replica:     replica{name: opid.ServerName, doc: fdoc.Clone(), rec: rec, compact: st.Compact},
		readSeq:     st.ReadSeq,
		known:       make(map[opid.ClientID]progress, len(st.Clients)),
		frontierAt:  len(st.Frontier),
		frontierDoc: fdoc,
	}
	for _, ij := range st.Frontier {
		s.order = append(s.order, core.IDFromJSON(ij))
	}
	s.space = statespace.NewAt(opid.NewSet(s.order...), fdoc)
	for i, t := range st.Tail {
		e := tailEntry{remote: t.Remote}
		if e.op, err = core.OpFromJSON(t.Op); err != nil {
			return nil, fmt.Errorf("css: restore server: tail[%d].op: %w", i, err)
		}
		ctx, err := s.expand(e.ctx())
		if err == nil {
			err = s.serialize(e.op, e.remote, ctx)
		}
		if err != nil {
			return nil, fmt.Errorf("css: restore server: tail[%d]: %w", i, err)
		}
	}
	for i, c := range st.Clients {
		if err := s.AddClient(opid.ClientID(c.Client)); err != nil {
			return nil, fmt.Errorf("css: restore server: clients[%d]: %w", i, err)
		}
		s.known[opid.ClientID(c.Client)] = progress{remote: c.Remote, own: c.Own}
	}
	return s, nil
}

// unmarshalStrict is json.Unmarshal that refuses fields v does not have.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func docToJSON(doc list.Doc) []core.ElemJSON {
	elems := doc.Elems()
	out := make([]core.ElemJSON, len(elems))
	for i, e := range elems {
		out[i] = core.ElemToJSON(e)
	}
	return out
}

func docFromJSON(elems []core.ElemJSON) (list.Doc, error) {
	doc := list.NewDocument()
	for i, ej := range elems {
		e, err := core.ElemFromJSON(ej)
		if err != nil {
			return nil, err
		}
		if err := doc.Insert(i, e); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// Save serializes the client's full replica state.
func (c *Client) Save() ([]byte, error) {
	st := clientStateJSON{
		ID:         int32(c.id),
		Doc:        docToJSON(c.doc),
		NextSeq:    c.nextSeq,
		ReadSeq:    c.readSeq,
		Broadcasts: c.broadcasts,
		Compact:    c.compact,
		Space:      c.space,
	}
	for _, id := range c.order {
		st.Order = append(st.Order, core.IDToJSON(id))
	}
	return json.Marshal(st)
}

// RestoreClient reconstructs a client from Save's output. rec may be nil;
// an editor or execution observer must be re-attached by the caller.
func RestoreClient(data []byte, rec core.Recorder) (*Client, error) {
	st := clientStateJSON{Space: statespace.New(nil)}
	if err := unmarshalStrict(data, &st); err != nil {
		return nil, fmt.Errorf("css: restore: %w", err)
	}
	doc, err := docFromJSON(st.Doc)
	if err != nil {
		return nil, fmt.Errorf("css: restore: %w", err)
	}
	c := &Client{
		replica: replica{
			name:    opid.ClientID(st.ID).String(),
			space:   st.Space,
			doc:     doc,
			rec:     rec,
			compact: st.Compact,
		},
		id:         opid.ClientID(st.ID),
		nextSeq:    st.NextSeq,
		readSeq:    st.ReadSeq,
		broadcasts: st.Broadcasts,
	}
	for _, ij := range st.Order {
		c.order = append(c.order, core.IDFromJSON(ij))
	}
	return c, nil
}
