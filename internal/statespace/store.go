package statespace

import (
	"math/bits"
	"unsafe"

	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// none is the null record index.
const none int32 = -1

// stateRec is one state: what Algorithm 1, the intern index and the
// creation-parent chain read, and no pointer.
type stateRec struct {
	hash   uint64    // order-independent hash of the operation set
	added  opid.OpID // the set is parent's ∪ {added}
	depth  int32     // |operation set|
	parent int32     // creation parent; none when the set is in Space.base
	out    int32     // first outgoing edge, in sibling (total) order
	in     int32     // first incoming edge (incoming edges are unordered)
	next   int32     // next state in the same intern bucket
}

// edgeRec is one transition. Its label is the original operation of its
// operation-table entry with kind and pos substituted — all a
// transformation changes — unless kind is oddKind, in which case the label
// is in Space.odd.
type edgeRec struct {
	ref      uint32 // operation-table entry << kindBits | label kind
	pos      int32  // the label's position
	from, to int32
	sib      int32 // next outgoing edge of from, in sibling order
	par      int32 // next incoming edge of to
}

// kindBits holds every ot.Kind; it caps a space at 2^29 operations.
const kindBits = 3

func (r *edgeRec) op() int32     { return int32(r.ref >> kindBits) }
func (r *edgeRec) kind() ot.Kind { return ot.Kind(r.ref & (1<<kindBits - 1)) }

// oddKind marks an edge whose label is not (original, kind, pos): only
// hand-built and restored spaces hold such labels.
const oddKind ot.Kind = 0

// opRec is one integrated original operation with the order key that all
// of its transitions share.
type opRec struct {
	op  ot.Op
	key OrderKey
}

// Chunk geometry: chunks of 16, 16, 32, … records up to a full chunk, the
// largest power of two of records that fits chunkBytes; then full chunks.
// Every chunk size here is one of the allocator's size classes, so a chunk
// is allocated without rounding.
const (
	chunkMinBits = 4
	chunkBytes   = 4096
)

// chunks is append-only record storage addressed by int32 index. It grows
// by whole chunks and never copies one, so a record's address is stable and
// the bytes allocated are the bytes held: a small space pays at most its own
// size in slack, a large one at most one chunk.
type chunks[T any] struct {
	c     [][]T
	n     int32
	shift int32 // log2 of a full chunk's length, set by the first push
}

// locate returns the chunk and offset of index i.
func (c *chunks[T]) locate(i int32) (k, off int32) {
	if i >= 1<<c.shift {
		return i>>c.shift + c.shift - chunkMinBits, i & (1<<c.shift - 1)
	}
	k = int32(bits.Len32(uint32(i) >> chunkMinBits))
	if k == 0 {
		return 0, i
	}
	return k, i - 1<<(chunkMinBits+k-1)
}

func (c *chunks[T]) at(i int32) *T {
	k, off := c.locate(i)
	return &c.c[k][off]
}

func (c *chunks[T]) push(v T) int32 {
	if c.shift == 0 {
		c.shift = max(chunkMinBits, int32(bits.Len(uint(chunkBytes/unsafe.Sizeof(v))))-1)
	}
	i := c.n
	k, off := c.locate(i)
	if int(k) == len(c.c) {
		n := 1 << c.shift
		if k == 0 {
			n = 1 << chunkMinBits
		} else if k <= c.shift-chunkMinBits {
			n = 1 << (chunkMinBits + k - 1)
		}
		c.c = append(c.c, make([]T, n))
	}
	c.c[k][off] = v
	c.n++
	return i
}

// capacity is the number of records allocated.
func (c *chunks[T]) capacity() int {
	n := 0
	for _, ch := range c.c {
		n += len(ch)
	}
	return n
}
