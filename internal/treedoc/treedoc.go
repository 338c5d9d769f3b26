// Package treedoc implements the TreeDoc CRDT of Preguiça, Marquès, Shapiro
// and Letia (ICDCS 2009), the third CRDT baseline of the reproduction. The
// paper's related-work section (Section 9) describes it as using "a binary
// tree to maintain the total order between position identifiers" while it
// "keeps deleted elements as tombstones".
//
// A position identifier is a path in a conceptual binary tree: a sequence
// of (bit, peer, counter) components, where the (peer, counter)
// disambiguator realizes TreeDoc's mini-nodes — concurrent insertions at
// the same tree spot become ordered siblings of one major node. The list
// order is the infix traversal:
//
//   - a node's left subtree precedes it, its right subtree follows it
//     (a path extending p with bit 0 sorts below p; with bit 1, above);
//   - sibling mini-nodes order by (peer, counter).
//
// Insertion between infix-adjacent nodes L and R uses the classical
// TreeDoc rule: if L is an ancestor of R, the new node becomes R's left
// child; otherwise it becomes L's right child (adjacency guarantees the
// spot is free locally; concurrent occupation resolves via mini-node
// ordering). Adjacency is computed over ALL nodes including tombstones,
// which is exactly why TreeDoc must keep them.
package treedoc

import (
	"fmt"
	"sort"
	"strings"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// Comp is one component of a TreeDoc path.
type Comp struct {
	Bit  byte // 0 = left, 1 = right
	Peer opid.ClientID
	Ctr  uint64
}

// Path is a TreeDoc position identifier (non-empty).
type Path []Comp

// Compare orders paths by infix tree order. Returns -1, 0, or 1.
func (p Path) Compare(q Path) int {
	for i := 0; ; i++ {
		switch {
		case i >= len(p) && i >= len(q):
			return 0
		case i >= len(p):
			// p is a strict prefix (ancestor) of q: q's next bit decides.
			if q[i].Bit == 0 {
				return 1 // q in p's left subtree: q < p
			}
			return -1
		case i >= len(q):
			if p[i].Bit == 0 {
				return -1
			}
			return 1
		}
		a, b := p[i], q[i]
		if a.Bit != b.Bit {
			if a.Bit < b.Bit {
				return -1
			}
			return 1
		}
		if a.Peer != b.Peer {
			// Sibling mini-nodes of one major node: (peer, ctr) order. The
			// ordering applies to the whole subtrees rooted there, which is
			// consistent because it is a prefix-level decision.
			if a.Peer < b.Peer {
				return -1
			}
			return 1
		}
		if a.Ctr != b.Ctr {
			if a.Ctr < b.Ctr {
				return -1
			}
			return 1
		}
	}
}

// IsAncestor reports whether p is a strict prefix of q.
func (p Path) IsAncestor(q Path) bool {
	if len(p) >= len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the path, e.g. "⟨1.c1.1|0.c2.3⟩".
func (p Path) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, c := range p {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d.%s.%d", c.Bit, c.Peer, c.Ctr)
	}
	b.WriteString("⟩")
	return b.String()
}

// EffectKind distinguishes insert and delete effects.
type EffectKind uint8

// Effect kinds.
const (
	EffectIns EffectKind = iota + 1
	EffectDel
)

// Effect is the downstream message of a TreeDoc operation.
type Effect struct {
	Kind EffectKind
	Path Path
	Elem list.Elem
	Op   ot.Op    // originating user operation (for histories)
	Ctx  opid.Set // visible updates at the origin (for histories)
}

// Addressed pairs an effect with a destination client.
type Addressed struct {
	To     opid.ClientID
	Effect Effect
}

// node is one tree position, possibly a tombstone.
type node struct {
	path      Path
	elem      list.Elem
	tombstone bool
}

// Replica is a TreeDoc replica.
type Replica struct {
	name      string
	id        opid.ClientID
	nodes     []node // sorted by path (infix order), tombstones included
	visible   int
	processed opid.Set
	nextSeq   uint64
	ctr       uint64
	readSeq   uint64
	rec       core.Tracker
}

// NewReplica creates a TreeDoc replica. The server passes id < 0.
func NewReplica(name string, id opid.ClientID, rec core.Recorder) *Replica {
	return &Replica{name: name, id: id, processed: opid.NewSet(), rec: core.NewTracker(rec)}
}

// Document returns the live elements in order.
func (r *Replica) Document() []list.Elem {
	out := make([]list.Elem, 0, r.visible)
	for _, n := range r.nodes {
		if !n.tombstone {
			out = append(out, n.elem)
		}
	}
	return out
}

// TotalNodes returns the node count including tombstones (metadata, E3).
func (r *Replica) TotalNodes() int { return len(r.nodes) }

// search returns the index of path, or the insertion point with found=false.
func (r *Replica) search(p Path) (int, bool) {
	i := sort.Search(len(r.nodes), func(k int) bool {
		return r.nodes[k].path.Compare(p) >= 0
	})
	if i < len(r.nodes) && r.nodes[i].path.Compare(p) == 0 {
		return i, true
	}
	return i, false
}

// fullIndexOfVisible maps a visible index to a full-node index.
func (r *Replica) fullIndexOfVisible(v int) int {
	seen := 0
	for i, n := range r.nodes {
		if n.tombstone {
			continue
		}
		if seen == v {
			return i
		}
		seen++
	}
	return len(r.nodes)
}

// newPath allocates a fresh identifier for an insertion at visible index
// pos, using the classical adjacency rule over the full node order.
func (r *Replica) newPath(pos int) Path {
	r.ctr++
	disamb := Comp{Peer: r.id, Ctr: r.ctr}

	// Full-order bracket of the insertion gap: the new node goes
	// immediately before the node currently holding the visible successor
	// (or at the very end).
	rightIdx := r.fullIndexOfVisible(pos)
	var left, right Path
	if rightIdx < len(r.nodes) {
		right = r.nodes[rightIdx].path
	}
	if rightIdx > 0 {
		left = r.nodes[rightIdx-1].path
	}

	switch {
	case left == nil && right == nil:
		disamb.Bit = 1
		return Path{disamb}
	case left == nil:
		disamb.Bit = 0
		return append(append(Path{}, right...), disamb)
	case right == nil:
		disamb.Bit = 1
		return append(append(Path{}, left...), disamb)
	case left.IsAncestor(right):
		disamb.Bit = 0
		return append(append(Path{}, right...), disamb)
	default:
		disamb.Bit = 1
		return append(append(Path{}, left...), disamb)
	}
}

// GenerateIns inserts val at visible position pos locally and returns the
// effect to broadcast.
func (r *Replica) GenerateIns(val rune, pos int) (Effect, error) {
	if pos < 0 || pos > r.visible {
		return Effect{}, fmt.Errorf("%s: %w: insert at %d, len %d", r.name, list.ErrPosOutOfRange, pos, r.visible)
	}
	p := r.newPath(pos)
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	elem := list.Elem{Val: val, ID: id}
	ctx := r.processed.Clone()
	eff := Effect{Kind: EffectIns, Path: p, Elem: elem, Op: ot.Ins(val, pos, id), Ctx: ctx}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// GenerateDel tombstones the element at visible position pos and returns
// the effect to broadcast.
func (r *Replica) GenerateDel(pos int) (Effect, error) {
	if pos < 0 || pos >= r.visible {
		return Effect{}, fmt.Errorf("%s: %w: delete at %d, len %d", r.name, list.ErrPosOutOfRange, pos, r.visible)
	}
	n := r.nodes[r.fullIndexOfVisible(pos)]
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	ctx := r.processed.Clone()
	eff := Effect{Kind: EffectDel, Path: n.path, Elem: n.elem, Op: ot.Del(n.elem, pos, id), Ctx: ctx}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// Integrate applies a local or remote effect. Deletes are idempotent.
func (r *Replica) Integrate(eff Effect) error {
	switch eff.Kind {
	case EffectIns:
		i, found := r.search(eff.Path)
		if found {
			return fmt.Errorf("%s: duplicate path %s", r.name, eff.Path)
		}
		r.nodes = append(r.nodes, node{})
		copy(r.nodes[i+1:], r.nodes[i:])
		r.nodes[i] = node{path: eff.Path, elem: eff.Elem}
		r.visible++
	case EffectDel:
		i, found := r.search(eff.Path)
		if !found {
			return fmt.Errorf("%s: delete of unknown path %s (causal delivery violated)", r.name, eff.Path)
		}
		if !r.nodes[i].tombstone {
			r.nodes[i].tombstone = true
			r.visible--
		}
	default:
		return fmt.Errorf("%s: unknown effect kind %d", r.name, eff.Kind)
	}
	r.processed = r.processed.Add(eff.Op.ID)
	r.rec.Processed(eff.Op.ID)
	return nil
}

// Read records a do(Read, w) event returning the current list.
func (r *Replica) Read() []list.Elem {
	r.readSeq++
	id := opid.OpID{Client: -r.id - 6000, Seq: r.readSeq}
	w := r.Document()
	if r.rec.On() {
		r.rec.Record(r.name, ot.Read(id), w)
	}
	return w
}

// Server is the relay server, mirroring the RGA/Logoot ones.
type Server struct {
	rep     *Replica
	clients []opid.ClientID
}

// NewServer creates the relay server.
func NewServer(clients []opid.ClientID, rec core.Recorder) *Server {
	return &Server{
		rep:     NewReplica(opid.ServerName, -1, rec),
		clients: append([]opid.ClientID(nil), clients...),
	}
}

// Receive integrates and forwards an effect.
func (s *Server) Receive(from opid.ClientID, eff Effect) ([]Addressed, error) {
	if err := s.rep.Integrate(eff); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	out := make([]Addressed, 0, len(s.clients)-1)
	for _, c := range s.clients {
		if c == from {
			continue
		}
		out = append(out, Addressed{To: c, Effect: eff})
	}
	return out, nil
}

// Document returns the server replica's live elements.
func (s *Server) Document() []list.Elem { return s.rep.Document() }

// Read records a read at the server replica.
func (s *Server) Read() []list.Elem { return s.rep.Read() }

// TotalNodes returns the server replica's node count with tombstones.
func (s *Server) TotalNodes() int { return s.rep.TotalNodes() }
