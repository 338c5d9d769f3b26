package css

import (
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/statespace"
)

// Late join.
//
// A client that joins an ongoing session cannot start from the empty
// document: operation contexts reference history it never saw. The join
// protocol roots the newcomer at the server's STABILITY FRONTIER — the
// prefix of the serialization order every existing client has provably
// processed — and replays the (short) suffix of operations serialized after
// it:
//
//  1. the server keeps, for the log's stable prefix (see stableLen), only
//     the frontier document (the list value at the frontier state, advanced
//     along the leftmost path, Lemma 6.4), and for every operation past it
//     the operation and its compact context (Server.tail);
//  2. Snapshot() is that: frontier identifiers, frontier document, and the
//     tail rendered as the broadcasts the joiner missed;
//  3. NewClientFromSnapshot roots a fresh state-space at the frontier
//     (statespace.NewAt) and replays the suffix through the ordinary
//     Receive path, arriving at the server's current state;
//  4. AddClient registers the newcomer for future redirections.
//
// Safety is the CompactTo contract plus stableLen's second bound: every
// in-flight and future operation has a context at or above the frontier, and
// so has every operation of the replayed suffix, so the newcomer's rooted
// space always contains the matching states it needs.

// Snapshot is the state a late joiner needs.
type Snapshot struct {
	// FrontierIDs is the serialization-order prefix the snapshot is rooted
	// at (every existing replica has processed these).
	FrontierIDs []opid.OpID
	// FrontierDoc is the list value at the frontier.
	FrontierDoc []list.Elem
	// Replay carries the broadcasts for every operation serialized after
	// the frontier, in order.
	Replay []ServerMsg
}

// Snapshot captures the current join snapshot. Call AdvanceFrontier first
// to keep the replay suffix short.
func (s *Server) Snapshot() *Snapshot {
	snap := &Snapshot{
		FrontierIDs: append([]opid.OpID(nil), s.order[:s.frontierAt]...),
		FrontierDoc: s.frontierDoc.Elems(),
		Replay:      make([]ServerMsg, len(s.tail)),
	}
	for i, e := range s.tail {
		cc := e.ctx()
		snap.Replay[i] = ServerMsg{Kind: MsgBroadcast, Op: e.op, Compact: &cc, Seq: uint64(s.frontierAt + i + 1), Origin: cc.Origin}
	}
	return snap
}

// AddClient registers a new client for future redirections and
// acknowledgements. The client should be constructed from a Snapshot taken
// before any further operations are serialized (single-threaded harnesses
// call Snapshot and AddClient back to back).
func (s *Server) AddClient(id opid.ClientID) error {
	if _, ok := s.known[id]; ok {
		return fmt.Errorf("server: client %s already registered", id)
	}
	s.clients = append(s.clients, id)
	// The joiner has processed everything up to the snapshot point.
	s.known[id] = progress{remote: len(s.order)}
	return nil
}

// RemoveClient unregisters a departed client (left the session, or crashed
// with its persisted state lost): it stops receiving redirections and
// acknowledgements, and it no longer holds back the stability frontier. Its
// already-serialized operations remain part of the history; operations it
// generated but never delivered are gone, which is exactly the contract of
// a lost-state crash.
func (s *Server) RemoveClient(id opid.ClientID) error {
	for i, c := range s.clients {
		if c == id {
			s.clients = append(s.clients[:i], s.clients[i+1:]...)
			delete(s.known, id)
			return nil
		}
	}
	return fmt.Errorf("server: client %s not registered", id)
}

// NewClientFromSnapshot constructs a client that joins mid-session from a
// server snapshot. The returned client is fully caught up with the
// snapshot point; register it with Server.AddClient before it generates.
func NewClientFromSnapshot(id opid.ClientID, snap *Snapshot, rec core.Recorder, opts ...statespace.Option) (*Client, error) {
	root := opid.NewSet(snap.FrontierIDs...)
	doc := list.NewDocument()
	for i, e := range snap.FrontierDoc {
		if err := doc.Insert(i, e); err != nil {
			return nil, fmt.Errorf("join: rebuild frontier doc: %w", err)
		}
	}
	c := &Client{
		replica: replica{
			name:  id.String(),
			space: statespace.NewAt(root, doc, opts...),
			doc:   doc.Clone(),
			rec:   core.NewTracker(rec),
		},
		id: id,
	}
	c.order = append(c.order, snap.FrontierIDs...)
	c.broadcasts = len(c.order)
	c.reportProcessed()
	for _, m := range snap.Replay {
		if err := c.Receive(m); err != nil {
			return nil, fmt.Errorf("join: replay: %w", err)
		}
	}
	return c, nil
}
