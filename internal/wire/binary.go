package wire

import (
	"encoding/binary"
	"fmt"

	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/replog"
)

// The binary body encoding. Layout:
//
//	body     = 0xBF typeByte payload
//	uvarint  = unsigned LEB128 (encoding/binary)
//	varint   = zigzag LEB128 (encoding/binary)
//	string   = uvarint length, bytes
//	bool     = 0x00 | 0x01
//	opid     = varint client, uvarint seq
//	elem     = uvarint rune, opid
//	op       = kindByte (1=ins 2=del), opid, varint pos, varint pri,
//	           ins: uvarint rune | del: elem
//	set      = uvarint #groups, per group (clients strictly increasing):
//	           varint client delta (first group: absolute), uvarint #seqs,
//	           uvarint first seq, then uvarint seq deltas (strictly increasing)
//	compact  = varint origin, uvarint remote, uvarint ownSeq
//	cmsg     = varint from, op, ctxFlags, [set], [compact]
//	smsg     = kindByte, uvarint seq, varint origin, flags
//	           (1=op 2=ctx 4=compact 8=ackId), [op], [set], [compact], [opid]
//	snapshot = uvarint #ids opid*, uvarint #elems elem*, uvarint #replay smsg*
//	srvb     = uvarint #frames, per frame: uvarint length, a complete
//	           binary-encoded srv frame body, 0xBF srv-type included (so
//	           cached bodies compose raw; nothing else may be embedded)
//
// Contexts are where the bytes are: an explicit context over a long session
// is thousands of ids, which the set encoding collapses to per-client
// delta runs, and the compact form (E8) is three counters regardless of
// history length. The magic byte cannot open a JSON document, so Decode
// detects the codec per frame.

const binMagic = 0xBF

// Binary frame type bytes.
const (
	btHello byte = iota + 1
	btWelcome
	btOp
	btServer
	btAck
	btError
	btBye
	btOpBatch
	btServerBatch
	btReplHello
	btReplAppend
	btReplAck
	btReplCommit
	btRoute
	btRoutes
	btMoved
	btMigrate
	btMigState
	btMigAck
)

type binaryCodec struct{}

func (binaryCodec) AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	b := append(dst, binMagic)
	var err error
	switch f.Type {
	case THello:
		h := f.Hello
		b = append(b, btHello)
		b = appendString(b, h.Doc)
		b = binary.AppendVarint(b, int64(h.ClientID))
		b = binary.AppendUvarint(b, h.LastFrameSeq)
		b = appendStrings(b, h.Codecs)
		// Shard is a retrofitted optional trailing field: appended only when
		// set, so pre-sharding hellos keep their pinned golden encoding and
		// pre-sharding decoders keep accepting non-sharded clients.
		if h.Shard != "" {
			b = appendString(b, h.Shard)
		}
	case TWelcome:
		w := f.Welcome
		b = append(b, btWelcome)
		b = binary.AppendVarint(b, int64(w.ClientID))
		b = appendString(b, w.Codec)
		b = appendBool(b, w.Resume)
		b = appendBool(b, w.Snapshot != nil)
		if w.Snapshot != nil {
			if b, err = appendSnapshot(b, w.Snapshot); err != nil {
				return nil, err
			}
		}
	case TOp:
		b = append(b, btOp)
		if b, err = appendClientMsg(b, &f.Op.Msg); err != nil {
			return nil, err
		}
	case TOpBatch:
		b = append(b, btOpBatch)
		b = binary.AppendUvarint(b, uint64(len(f.OpBatch.Msgs)))
		for i := range f.OpBatch.Msgs {
			if b, err = appendClientMsg(b, &f.OpBatch.Msgs[i]); err != nil {
				return nil, err
			}
		}
	case TServer:
		b = append(b, btServer)
		if b, err = appendServerFrame(b, f.Server); err != nil {
			return nil, err
		}
	case TServerBatch:
		b = append(b, btServerBatch)
		b = binary.AppendUvarint(b, uint64(len(f.ServerBatch.Frames)))
		scratch := getBuf()
		for i := range f.ServerBatch.Frames {
			inner := append((*scratch)[:0], binMagic, btServer)
			inner, err = appendServerFrame(inner, &f.ServerBatch.Frames[i])
			if err != nil {
				putBuf(scratch)
				return nil, err
			}
			*scratch = inner[:0]
			b = binary.AppendUvarint(b, uint64(len(inner)))
			b = append(b, inner...)
		}
		putBuf(scratch)
	case TAck:
		b = append(b, btAck)
		b = binary.AppendUvarint(b, f.Ack.Seq)
	case TError:
		e := f.Error
		b = append(b, btError)
		b = appendString(b, e.Code)
		b = appendString(b, e.Msg)
		b = appendString(b, e.Leader)
	case TBye:
		b = append(b, btBye)
	case TReplHello:
		h := f.ReplHello
		b = append(b, btReplHello)
		b = appendString(b, h.NodeID)
		b = appendString(b, h.Role)
		b = binary.AppendUvarint(b, h.LastIndex)
		b = binary.AppendUvarint(b, h.Commit)
		b = appendStrings(b, h.Codecs)
		b = appendString(b, h.Codec)
	case TReplAppend:
		a := f.ReplAppend
		b = append(b, btReplAppend)
		b = binary.AppendUvarint(b, a.Commit)
		b = binary.AppendUvarint(b, uint64(len(a.Entries)))
		for i := range a.Entries {
			if b, err = appendEntry(b, &a.Entries[i]); err != nil {
				return nil, err
			}
		}
	case TReplAck:
		b = append(b, btReplAck)
		b = binary.AppendUvarint(b, f.ReplAck.Index)
	case TReplCommit:
		b = append(b, btReplCommit)
		b = binary.AppendUvarint(b, f.ReplCommit.Commit)
	case TRoute:
		b = append(b, btRoute)
		b = appendString(b, f.Route.Doc)
		b = binary.AppendUvarint(b, f.Route.Version)
	case TRoutes:
		tb := &f.Routes.Table
		b = append(b, btRoutes)
		b = binary.AppendUvarint(b, tb.Version)
		b = binary.AppendUvarint(b, uint64(tb.VNodes))
		b = binary.AppendUvarint(b, uint64(len(tb.Shards)))
		for i := range tb.Shards {
			b = appendString(b, tb.Shards[i].ID)
			b = appendStrings(b, tb.Shards[i].Addrs)
		}
		b = binary.AppendUvarint(b, uint64(len(tb.Overrides)))
		for i := range tb.Overrides {
			b = appendString(b, tb.Overrides[i].Doc)
			b = appendString(b, tb.Overrides[i].Shard)
		}
	case TMoved:
		m := f.Moved
		b = append(b, btMoved)
		b = appendString(b, m.Doc)
		b = appendString(b, m.Shard)
		b = appendStrings(b, m.Addrs)
	case TMigrate:
		m := f.Migrate
		b = append(b, btMigrate)
		b = appendString(b, m.Doc)
		b = appendString(b, m.TargetShard)
		b = appendStrings(b, m.TargetAddrs)
		b = appendString(b, m.Token)
	case TMigState:
		m := f.MigState
		b = append(b, btMigState)
		b = appendString(b, m.Doc)
		b = binary.AppendUvarint(b, uint64(len(m.State)))
		b = append(b, m.State...)
		b = appendString(b, m.Token)
	case TMigAck:
		m := f.MigAck
		b = append(b, btMigAck)
		b = appendString(b, m.Doc)
		b = appendBool(b, m.OK)
		b = appendString(b, m.Err)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, f.Type)
	}
	return b, nil
}

// AppendServerBatchRaw builds a binary srvb body out of pre-encoded binary
// srv frame bodies — the zero-re-encode path for cached outbox entries. The
// caller guarantees each body came from the binary codec and that frame
// seqs are strictly increasing.
func AppendServerBatchRaw(dst []byte, bodies [][]byte) []byte {
	dst = append(dst, binMagic, btServerBatch)
	dst = binary.AppendUvarint(dst, uint64(len(bodies)))
	for _, body := range bodies {
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	return dst
}

// EncodeWith renders a frame body with the given codec.
func EncodeWith(c Codec, f *Frame) ([]byte, error) {
	return c.AppendFrame(nil, f)
}

// --- encode helpers ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendID(b []byte, id opid.OpID) []byte {
	b = binary.AppendVarint(b, int64(id.Client))
	return binary.AppendUvarint(b, id.Seq)
}

func appendElem(b []byte, e list.Elem) []byte {
	b = binary.AppendUvarint(b, uint64(uint32(e.Val)))
	return appendID(b, e.ID)
}

func appendOp(b []byte, o *ot.Op) ([]byte, error) {
	switch o.Kind {
	case ot.KindIns:
		b = append(b, 1)
	case ot.KindDel:
		b = append(b, 2)
	default:
		return nil, fmt.Errorf("wire: binary: op kind %d not encodable", o.Kind)
	}
	b = appendID(b, o.ID)
	b = binary.AppendVarint(b, int64(o.Pos))
	b = binary.AppendVarint(b, int64(o.Pri))
	if o.Kind == ot.KindIns {
		b = binary.AppendUvarint(b, uint64(uint32(o.Elem.Val)))
	} else {
		b = appendElem(b, o.Elem)
	}
	return b, nil
}

// appendSet writes an identifier set as per-client delta runs over the
// canonical (client, seq) order. Contiguous per-client seq runs — the common
// shape of a context — cost one byte per id.
func appendSet(b []byte, s opid.Set) []byte {
	ids := s.Sorted()
	groups := 0
	for i := range ids {
		if i == 0 || ids[i].Client != ids[i-1].Client {
			groups++
		}
	}
	b = binary.AppendUvarint(b, uint64(groups))
	for i := 0; i < len(ids); {
		j := i
		for j < len(ids) && ids[j].Client == ids[i].Client {
			j++
		}
		if i == 0 {
			b = binary.AppendVarint(b, int64(ids[i].Client))
		} else {
			b = binary.AppendVarint(b, int64(ids[i].Client)-int64(ids[i-1].Client))
		}
		b = binary.AppendUvarint(b, uint64(j-i))
		b = binary.AppendUvarint(b, ids[i].Seq)
		for k := i + 1; k < j; k++ {
			b = binary.AppendUvarint(b, ids[k].Seq-ids[k-1].Seq)
		}
		i = j
	}
	return b
}

func appendCompact(b []byte, c *css.CompactCtx) []byte {
	b = binary.AppendVarint(b, int64(c.Origin))
	b = binary.AppendUvarint(b, uint64(c.Remote))
	return binary.AppendUvarint(b, c.OwnSeq)
}

const (
	flagOp      = 1
	flagCtx     = 2
	flagCompact = 4
	flagAckID   = 8
)

func appendClientMsg(b []byte, m *css.ClientMsg) ([]byte, error) {
	b = binary.AppendVarint(b, int64(m.From))
	b, err := appendOp(b, &m.Op)
	if err != nil {
		return nil, err
	}
	var flags byte
	if m.Ctx != nil {
		flags |= flagCtx
	}
	if m.Compact != nil {
		flags |= flagCompact
	}
	b = append(b, flags)
	if m.Ctx != nil {
		b = appendSet(b, m.Ctx)
	}
	if m.Compact != nil {
		b = appendCompact(b, m.Compact)
	}
	return b, nil
}

func appendServerMsg(b []byte, m *css.ServerMsg) ([]byte, error) {
	b = append(b, byte(m.Kind))
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, int64(m.Origin))
	var flags byte
	if m.Kind == css.MsgBroadcast {
		flags |= flagOp
	}
	if m.Ctx != nil {
		flags |= flagCtx
	}
	if m.Compact != nil {
		flags |= flagCompact
	}
	if !m.AckID.Zero() {
		flags |= flagAckID
	}
	b = append(b, flags)
	if flags&flagOp != 0 {
		var err error
		if b, err = appendOp(b, &m.Op); err != nil {
			return nil, err
		}
	}
	if m.Ctx != nil {
		b = appendSet(b, m.Ctx)
	}
	if m.Compact != nil {
		b = appendCompact(b, m.Compact)
	}
	if !m.AckID.Zero() {
		b = appendID(b, m.AckID)
	}
	return b, nil
}

func appendServerFrame(b []byte, s *Server) ([]byte, error) {
	b = binary.AppendUvarint(b, s.Seq)
	return appendServerMsg(b, &s.Msg)
}

func appendSnapshot(b []byte, s *css.Snapshot) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(s.FrontierIDs)))
	for _, id := range s.FrontierIDs {
		b = appendID(b, id)
	}
	b = binary.AppendUvarint(b, uint64(len(s.FrontierDoc)))
	for _, e := range s.FrontierDoc {
		b = appendElem(b, e)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Replay)))
	var err error
	for i := range s.Replay {
		if b, err = appendServerMsg(b, &s.Replay[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendEntry(b []byte, e *replog.Entry) ([]byte, error) {
	b = binary.AppendUvarint(b, e.Index)
	b = append(b, byte(e.Kind))
	b = appendString(b, e.Doc)
	b = binary.AppendVarint(b, int64(e.ClientID))
	b = appendBool(b, e.Msg != nil)
	if e.Msg != nil {
		return appendClientMsg(b, e.Msg)
	}
	return b, nil
}

// --- decode ---

// breader is a bounds-checked cursor over a binary body. The first error
// sticks; helpers return zero values after it. Every element count is
// bounded by the bytes remaining (each element costs at least one byte),
// and decode-side preallocations are further capped by capHint so a
// hostile count cannot force an allocation much larger than the frame.
type breader struct {
	b   []byte
	err error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary: "+format, args...)
	}
}

func (r *breader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *breader) i() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *breader) i32() int32 {
	v := r.i()
	if v < -1<<31 || v > 1<<31-1 {
		r.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

func (r *breader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *breader) bool() bool {
	v := r.byte()
	if v > 1 {
		r.fail("bad bool 0x%02x", v)
	}
	return v == 1
}

func (r *breader) rune() rune {
	v := r.u()
	if v > 0x10FFFF {
		r.fail("rune %d out of range", v)
		return 0
	}
	return rune(v)
}

func (r *breader) str() string {
	n := r.u()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string length %d exceeds %d remaining bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n]) // copies: bodies are pooled
	r.b = r.b[n:]
	return s
}

// bytes reads a length-prefixed byte blob. The length is bounded by the
// bytes remaining before any allocation — a hostile length cannot demand
// more than the frame actually carries.
func (r *breader) bytes() []byte {
	n := r.u()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("bytes length %d exceeds %d remaining bytes", n, len(r.b))
		return nil
	}
	out := append([]byte(nil), r.b[:n]...) // copies: bodies are pooled
	r.b = r.b[n:]
	return out
}

// count reads an element count and rejects counts a well-formed body could
// not hold.
func (r *breader) count() int {
	n := r.u()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail("count %d exceeds %d remaining bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// capHint bounds the initial capacity of a decode-side slice. count() only
// guarantees one byte per element, but decoded elements are tens of bytes
// each, so trusting a wire count would let an 8 MiB frame demand hundreds
// of MB up front. Start modest and let append grow against parsed bytes.
func capHint(n int) int {
	const max = 4096
	if n > max {
		return max
	}
	return n
}

func (r *breader) id() opid.OpID {
	c := r.i32()
	return opid.OpID{Client: opid.ClientID(c), Seq: r.u()}
}

func (r *breader) elem() list.Elem {
	v := r.rune()
	return list.Elem{Val: v, ID: r.id()}
}

func (r *breader) op() ot.Op {
	kind := r.byte()
	id := r.id()
	pos := r.i()
	pri := r.i32()
	switch kind {
	case 1:
		val := r.rune()
		o := ot.Ins(val, int(pos), id)
		o.Pri = pri
		return o
	case 2:
		e := r.elem()
		o := ot.Del(e, int(pos), id)
		o.Pri = pri
		return o
	default:
		r.fail("unknown op kind %d", kind)
		return ot.Op{}
	}
}

func (r *breader) set() opid.Set {
	groups := r.count()
	s := opid.NewSet()
	prev := int64(0)
	for g := 0; g < groups && r.err == nil; g++ {
		var client int64
		if g == 0 {
			client = r.i()
		} else {
			client = prev + r.i()
		}
		if client < -1<<31 || client > 1<<31-1 {
			r.fail("set client %d overflows int32", client)
			return nil
		}
		n := r.count()
		seq := uint64(0)
		for k := 0; k < n && r.err == nil; k++ {
			if k == 0 {
				seq = r.u()
			} else {
				seq += r.u()
			}
			s.Put(opid.OpID{Client: opid.ClientID(client), Seq: seq})
		}
		prev = client
	}
	return s
}

func (r *breader) compact() *css.CompactCtx {
	origin := r.i32()
	remote := r.u()
	own := r.u()
	if remote > 1<<31-1 {
		r.fail("compact remote %d overflows int", remote)
		return nil
	}
	return &css.CompactCtx{Origin: opid.ClientID(origin), Remote: int(remote), OwnSeq: own}
}

func (r *breader) clientMsg() css.ClientMsg {
	var m css.ClientMsg
	m.From = opid.ClientID(r.i32())
	m.Op = r.op()
	flags := r.byte()
	if flags&^(flagCtx|flagCompact) != 0 {
		r.fail("bad client msg flags 0x%02x", flags)
		return m
	}
	if flags&flagCtx != 0 {
		m.Ctx = r.set()
	}
	if flags&flagCompact != 0 {
		m.Compact = r.compact()
	}
	return m
}

func (r *breader) serverMsg() css.ServerMsg {
	var m css.ServerMsg
	m.Kind = css.ServerMsgKind(r.byte())
	m.Seq = r.u()
	m.Origin = opid.ClientID(r.i32())
	flags := r.byte()
	if flags&^(flagOp|flagCtx|flagCompact|flagAckID) != 0 {
		r.fail("bad server msg flags 0x%02x", flags)
		return m
	}
	if flags&flagOp != 0 {
		m.Op = r.op()
	}
	if flags&flagCtx != 0 {
		m.Ctx = r.set()
	}
	if flags&flagCompact != 0 {
		m.Compact = r.compact()
	}
	if flags&flagAckID != 0 {
		m.AckID = r.id()
	}
	return m
}

func (r *breader) serverFrame() Server {
	seq := r.u()
	return Server{Seq: seq, Msg: r.serverMsg()}
}

func (r *breader) snapshot() *css.Snapshot {
	s := &css.Snapshot{}
	n := r.count()
	s.FrontierIDs = make([]opid.OpID, 0, capHint(n))
	for i := 0; i < n && r.err == nil; i++ {
		s.FrontierIDs = append(s.FrontierIDs, r.id())
	}
	n = r.count()
	s.FrontierDoc = make([]list.Elem, 0, capHint(n))
	for i := 0; i < n && r.err == nil; i++ {
		s.FrontierDoc = append(s.FrontierDoc, r.elem())
	}
	n = r.count()
	s.Replay = make([]css.ServerMsg, 0, capHint(n))
	for i := 0; i < n && r.err == nil; i++ {
		s.Replay = append(s.Replay, r.serverMsg())
	}
	return s
}

func (r *breader) strings() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, capHint(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

func (r *breader) entry() replog.Entry {
	var e replog.Entry
	e.Index = r.u()
	e.Kind = replog.EntryKind(r.byte())
	e.Doc = r.str()
	e.ClientID = r.i32()
	if r.bool() {
		m := r.clientMsg()
		e.Msg = &m
	}
	return e
}

func decodeBinary(data []byte) (*Frame, error) {
	r := &breader{b: data[1:]} // caller checked the magic byte
	t := r.byte()
	if r.err != nil {
		return nil, r.err
	}
	var f Frame
	switch t {
	case btHello:
		f.Type = THello
		f.Hello = &Hello{
			Doc:          r.str(),
			ClientID:     r.i32(),
			LastFrameSeq: r.u(),
			Codecs:       r.strings(),
		}
		// Optional trailing shard field (see AppendFrame): present iff bytes
		// remain. Junk that is not a well-formed string still fails here or
		// at the trailing-bytes check below.
		if r.err == nil && len(r.b) > 0 {
			f.Hello.Shard = r.str()
		}
	case btWelcome:
		f.Type = TWelcome
		w := &Welcome{ClientID: r.i32(), Codec: r.str(), Resume: r.bool()}
		if r.bool() {
			w.Snapshot = r.snapshot()
		}
		f.Welcome = w
	case btOp:
		f.Type = TOp
		f.Op = &Op{Msg: r.clientMsg()}
	case btOpBatch:
		f.Type = TOpBatch
		n := r.count()
		msgs := make([]css.ClientMsg, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			msgs = append(msgs, r.clientMsg())
		}
		f.OpBatch = &OpBatch{Msgs: msgs}
	case btServer:
		f.Type = TServer
		s := r.serverFrame()
		f.Server = &s
	case btServerBatch:
		f.Type = TServerBatch
		n := r.count()
		frames := make([]Server, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			ln := r.u()
			if r.err != nil {
				break
			}
			if ln > uint64(len(r.b)) {
				r.fail("batch frame length %d exceeds %d remaining bytes", ln, len(r.b))
				break
			}
			// Embedded bodies must be plain binary srv frames (the
			// AppendServerBatchRaw contract). Checking the header before
			// parsing keeps hostile srvb-in-srvb nesting from recursing:
			// a srv body cannot itself embed frames, so decode depth is 1.
			if ln < 2 || r.b[0] != binMagic || r.b[1] != btServer {
				r.fail("batch frame %d is not a binary srv body, want srv", i)
				break
			}
			sub := breader{b: r.b[2:ln]}
			r.b = r.b[ln:]
			s := sub.serverFrame()
			if sub.err == nil && len(sub.b) != 0 {
				sub.fail("%d trailing bytes", len(sub.b))
			}
			if sub.err != nil {
				r.fail("batch frame %d: %v", i, sub.err)
				break
			}
			frames = append(frames, s)
		}
		f.ServerBatch = &ServerBatch{Frames: frames}
	case btAck:
		f.Type = TAck
		f.Ack = &Ack{Seq: r.u()}
	case btError:
		f.Type = TError
		f.Error = &Error{Code: r.str(), Msg: r.str(), Leader: r.str()}
	case btBye:
		f.Type = TBye
	case btReplHello:
		f.Type = TReplHello
		f.ReplHello = &ReplHello{
			NodeID:    r.str(),
			Role:      r.str(),
			LastIndex: r.u(),
			Commit:    r.u(),
			Codecs:    r.strings(),
			Codec:     r.str(),
		}
	case btReplAppend:
		f.Type = TReplAppend
		a := &ReplAppend{Commit: r.u()}
		n := r.count()
		a.Entries = make([]replog.Entry, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			a.Entries = append(a.Entries, r.entry())
		}
		f.ReplAppend = a
	case btReplAck:
		f.Type = TReplAck
		f.ReplAck = &ReplAck{Index: r.u()}
	case btReplCommit:
		f.Type = TReplCommit
		f.ReplCommit = &ReplCommit{Commit: r.u()}
	case btRoute:
		f.Type = TRoute
		f.Route = &Route{Doc: r.str(), Version: r.u()}
	case btRoutes:
		f.Type = TRoutes
		t := Table{Version: r.u()}
		vn := r.u()
		if vn > 1<<31-1 {
			r.fail("vnode count %d overflows int", vn)
		}
		t.VNodes = int(vn)
		n := r.count()
		t.Shards = make([]Shard, 0, capHint(n))
		for i := 0; i < n && r.err == nil; i++ {
			t.Shards = append(t.Shards, Shard{ID: r.str(), Addrs: r.strings()})
		}
		n = r.count()
		if n > 0 {
			t.Overrides = make([]Override, 0, capHint(n))
			for i := 0; i < n && r.err == nil; i++ {
				t.Overrides = append(t.Overrides, Override{Doc: r.str(), Shard: r.str()})
			}
		}
		f.Routes = &Routes{Table: t}
	case btMoved:
		f.Type = TMoved
		f.Moved = &Moved{Doc: r.str(), Shard: r.str(), Addrs: r.strings()}
	case btMigrate:
		f.Type = TMigrate
		f.Migrate = &Migrate{Doc: r.str(), TargetShard: r.str(), TargetAddrs: r.strings(), Token: r.str()}
	case btMigState:
		f.Type = TMigState
		f.MigState = &MigState{Doc: r.str(), State: r.bytes(), Token: r.str()}
	case btMigAck:
		f.Type = TMigAck
		f.MigAck = &MigAck{Doc: r.str(), OK: r.bool(), Err: r.str()}
	default:
		return nil, fmt.Errorf("%w: binary type 0x%02x", ErrUnknownType, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wire: binary: %d trailing bytes after %s frame", len(r.b), f.Type)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}
