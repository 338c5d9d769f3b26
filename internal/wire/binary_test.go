package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/replog"
)

// testFrames is one valid frame of every type, exercising every payload
// branch of the binary codec: explicit and compact contexts, multi-client
// delta runs, snapshots with replay, batches, and the negotiation fields.
// golden_test.go pins the binary encoding of exactly these frames.
func testFrames() []*Frame {
	ins := func(val rune, pos int, c int32, seq uint64, pri int32) ot.Op {
		o := ot.Ins(val, pos, opid.OpID{Client: opid.ClientID(c), Seq: seq})
		o.Pri = pri
		return o
	}
	del := func(e list.Elem, pos int, c int32, seq uint64, pri int32) ot.Op {
		o := ot.Del(e, pos, opid.OpID{Client: opid.ClientID(c), Seq: seq})
		o.Pri = pri
		return o
	}
	bigCtx := opid.NewSet(
		opid.OpID{Client: 1, Seq: 1}, opid.OpID{Client: 1, Seq: 2},
		opid.OpID{Client: 1, Seq: 3}, opid.OpID{Client: 1, Seq: 7},
		opid.OpID{Client: 3, Seq: 2}, opid.OpID{Client: 9, Seq: 1},
	)
	return []*Frame{
		{Type: THello, Hello: &Hello{Doc: "notes", ClientID: 3, LastFrameSeq: 12, Codecs: []string{"binary", "json"}}},
		{Type: TWelcome, Welcome: &Welcome{ClientID: 4, Resume: true, Codec: "binary"}},
		{Type: TWelcome, Welcome: &Welcome{
			ClientID: 2,
			Codec:    "json",
			Snapshot: &css.Snapshot{
				FrontierIDs: []opid.OpID{{Client: 1, Seq: 1}, {Client: 2, Seq: 1}},
				FrontierDoc: []list.Elem{{Val: 'a', ID: opid.OpID{Client: 1, Seq: 1}}},
				Replay: []css.ServerMsg{
					{Kind: css.MsgBroadcast, Op: ins('b', 1, 2, 1, 2), Ctx: opid.NewSet(opid.OpID{Client: 1, Seq: 1}), Seq: 2, Origin: 2},
				},
			},
		}},
		{Type: TOp, Op: &Op{Msg: css.ClientMsg{From: 1, Op: ins('a', 0, 1, 1, 1), Ctx: opid.NewSet()}}},
		{Type: TOp, Op: &Op{Msg: css.ClientMsg{From: 2, Op: del(list.Elem{Val: 'a', ID: opid.OpID{Client: 1, Seq: 1}}, 0, 2, 1, 2), Ctx: bigCtx}}},
		{Type: TOp, Op: &Op{Msg: css.ClientMsg{From: 5, Op: ins('z', 3, 5, 9, 5), Compact: &css.CompactCtx{Origin: 5, Remote: 14, OwnSeq: 9}}}},
		{Type: TOpBatch, OpBatch: &OpBatch{Msgs: []css.ClientMsg{
			{From: 1, Op: ins('a', 0, 1, 1, 1), Ctx: opid.NewSet()},
			{From: 1, Op: ins('b', 1, 1, 2, 1), Compact: &css.CompactCtx{Origin: 1, Remote: 0, OwnSeq: 2}},
		}}},
		{Type: TServer, Server: &Server{Seq: 1, Msg: css.ServerMsg{Kind: css.MsgBroadcast, Op: ins('a', 0, 1, 1, 1), Ctx: opid.NewSet(), Seq: 1, Origin: 1}}},
		{Type: TServer, Server: &Server{Seq: 2, Msg: css.ServerMsg{Kind: css.MsgAck, AckID: opid.OpID{Client: 1, Seq: 1}, Seq: 1, Origin: 1}}},
		{Type: TServer, Server: &Server{Seq: 3, Msg: css.ServerMsg{Kind: css.MsgFrontier, Ctx: bigCtx}}},
		{Type: TServer, Server: &Server{Seq: 4, Msg: css.ServerMsg{Kind: css.MsgBroadcast, Op: ins('q', 2, 7, 3, 7), Compact: &css.CompactCtx{Origin: 7, Remote: 5, OwnSeq: 3}, Seq: 6, Origin: 7}}},
		{Type: TServerBatch, ServerBatch: &ServerBatch{Frames: []Server{
			{Seq: 5, Msg: css.ServerMsg{Kind: css.MsgBroadcast, Op: ins('c', 0, 3, 1, 3), Ctx: opid.NewSet(opid.OpID{Client: 1, Seq: 1}), Seq: 3, Origin: 3}},
			{Seq: 6, Msg: css.ServerMsg{Kind: css.MsgAck, AckID: opid.OpID{Client: 2, Seq: 2}, Seq: 4, Origin: 2}},
		}}},
		{Type: TAck, Ack: &Ack{Seq: 7}},
		{Type: TError, Error: &Error{Code: CodeNotLeader, Msg: "n1 leads", Leader: "127.0.0.1:9172"}},
		{Type: TBye},
		{Type: TReplHello, ReplHello: &ReplHello{NodeID: "n1", Role: RoleFollower, LastIndex: 7, Commit: 5, Codecs: []string{"binary", "json"}, Codec: "binary"}},
		{Type: TReplAppend, ReplAppend: &ReplAppend{
			Commit: 1,
			Entries: []replog.Entry{
				{Index: 1, Kind: replog.KindJoin, Doc: "d", ClientID: 3},
				{Index: 2, Kind: replog.KindOp, Doc: "d", Msg: &css.ClientMsg{From: 3, Op: ins('a', 0, 3, 1, 3), Ctx: opid.NewSet()}},
			},
		}},
		{Type: TReplAck, ReplAck: &ReplAck{Index: 2}},
		{Type: TReplCommit, ReplCommit: &ReplCommit{Commit: 9}},
		{Type: THello, Hello: &Hello{Doc: "notes", ClientID: 3, LastFrameSeq: 12, Codecs: []string{"binary", "json"}, Shard: "s1"}},
		{Type: TRoute, Route: &Route{Doc: "notes", Version: 7}},
		{Type: TRoutes, Routes: &Routes{Table: Table{
			Version: 3,
			VNodes:  64,
			Shards: []Shard{
				{ID: "s0", Addrs: []string{"127.0.0.1:9100"}},
				{ID: "s1", Addrs: []string{"127.0.0.1:9200", "127.0.0.1:9201"}},
			},
			Overrides: []Override{{Doc: "notes", Shard: "s1"}},
		}}},
		{Type: TMoved, Moved: &Moved{Doc: "notes", Shard: "s1", Addrs: []string{"127.0.0.1:9200"}}},
		{Type: TMigrate, Migrate: &Migrate{Doc: "notes", TargetShard: "s1", TargetAddrs: []string{"127.0.0.1:9200"}, Token: "sesame"}},
		{Type: TMigState, MigState: &MigState{Doc: "notes", State: []byte{0x01, 0x02, 0x03}, Token: "sesame"}},
		{Type: TMigAck, MigAck: &MigAck{Doc: "notes", OK: true}},
		{Type: TMigAck, MigAck: &MigAck{Doc: "notes", Err: "target refused: doc has attached clients"}},
	}
}

// TestBinaryRoundTrip: every frame type survives the binary codec with full
// value fidelity, and the encoding is canonical (encode∘decode∘encode is
// byte-identical).
func TestBinaryRoundTrip(t *testing.T) {
	for _, fr := range testFrames() {
		body, err := EncodeWith(BinaryCodec, fr)
		if err != nil {
			t.Fatalf("%s: encode: %v", fr.Type, err)
		}
		got, err := Decode(body)
		if err != nil {
			t.Fatalf("%s: decode: %v\nbody: %x", fr.Type, err, body)
		}
		if !reflect.DeepEqual(got, fr) {
			t.Errorf("%s: round trip changed the frame:\n want %+v\n  got %+v", fr.Type, fr, got)
		}
		again, err := EncodeWith(BinaryCodec, got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", fr.Type, err)
		}
		if !bytes.Equal(body, again) {
			t.Errorf("%s: encoding not canonical:\n first: %x\nsecond: %x", fr.Type, body, again)
		}
		// The JSON codec must carry the same frames (cross-codec parity).
		jbody, err := EncodeWith(JSONCodec, fr)
		if err != nil {
			t.Fatalf("%s: json encode: %v", fr.Type, err)
		}
		jgot, err := Decode(jbody)
		if err != nil {
			t.Fatalf("%s: json decode: %v", fr.Type, err)
		}
		if !reflect.DeepEqual(jgot, got) {
			t.Errorf("%s: json and binary decode disagree:\n json %+v\n  bin %+v", fr.Type, jgot, got)
		}
	}
}

// TestBinaryContextSize: the point of the codec — a thousand-id explicit
// context costs ~1 byte per id (delta runs) instead of ~25 (JSON), and the
// compact form is O(1) regardless of history.
func TestBinaryContextSize(t *testing.T) {
	ctx := opid.NewSet()
	for c := int32(1); c <= 4; c++ {
		for s := uint64(1); s <= 250; s++ {
			ctx.Put(opid.OpID{Client: opid.ClientID(c), Seq: s})
		}
	}
	op := ot.Ins('x', 0, opid.OpID{Client: 1, Seq: 251})
	op.Pri = 1
	fr := &Frame{Type: TOp, Op: &Op{Msg: css.ClientMsg{From: 1, Op: op, Ctx: ctx}}}
	bin, err := EncodeWith(BinaryCodec, fr)
	if err != nil {
		t.Fatal(err)
	}
	jsn, err := EncodeWith(JSONCodec, fr)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) > 2*1000 {
		t.Errorf("binary 1000-id context costs %d bytes, want ~1 per id", len(bin))
	}
	if len(jsn) < 10*len(bin) {
		t.Errorf("expected ≥10x win over JSON, got binary=%d json=%d", len(bin), len(jsn))
	}
	cfr := &Frame{Type: TOp, Op: &Op{Msg: css.ClientMsg{From: 1, Op: op, Compact: &css.CompactCtx{Origin: 1, Remote: 750, OwnSeq: 251}}}}
	cbin, err := EncodeWith(BinaryCodec, cfr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cbin) > 32 {
		t.Errorf("compact-context op costs %d bytes, want O(1)", len(cbin))
	}
}

// TestBinaryDecodeAdversarial: hostile binary bodies are rejected with
// errors, never panics or oversized allocations.
func TestBinaryDecodeAdversarial(t *testing.T) {
	valid, err := EncodeWith(BinaryCodec, &Frame{Type: TAck, Ack: &Ack{Seq: 7}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"magic only", []byte{binMagic}, "truncated"},
		{"unknown type", []byte{binMagic, 0x63}, "unknown frame type"},
		{"truncated hello", []byte{binMagic, btHello}, "truncated"},
		{"truncated uvarint", []byte{binMagic, btAck, 0xFF}, "truncated"},
		{"trailing bytes", append(append([]byte{}, valid...), 0x00), "trailing"},
		{"hostile string length", []byte{binMagic, btError, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'a'}, "exceeds"},
		{"hostile count", []byte{binMagic, btOpBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, "exceeds"},
		{"bad bool", []byte{binMagic, btWelcome, 0x02, 0x00, 0x07}, "bad bool"},
		{"op batch empty", []byte{binMagic, btOpBatch, 0x00}, "without messages"},
		{"srvb inner not srv", mustSrvbWithInner(t, []byte{binMagic, btBye}), "want srv"},
		// Placement frames: the same hostile-length discipline.
		{"hostile mig state blob", []byte{binMagic, btMigState, 0x01, 'd', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, "exceeds"},
		{"hostile routes shard count", []byte{binMagic, btRoutes, 0x01, 0x40, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, "exceeds"},
		{"routes no shards", []byte{binMagic, btRoutes, 0x01, 0x40, 0x00, 0x00}, "without shards"},
		{"moved no shard", []byte{binMagic, btMoved, 0x01, 'd', 0x00, 0x00}, "without shard id"},
		{"migrate no addrs", []byte{binMagic, btMigrate, 0x01, 'd', 0x02, 's', '1', 0x00, 0x00}, "without target addresses"},
		{"migrate truncated token", []byte{binMagic, btMigrate, 0x01, 'd', 0x02, 's', '1', 0x01, 0x01, 'a'}, "truncated"},
		{"mig state empty blob", []byte{binMagic, btMigState, 0x01, 'd', 0x00, 0x00}, "without state blob"},
		{"mig ack bad bool", []byte{binMagic, btMigAck, 0x01, 'd', 0x07, 0x00}, "bad bool"},
		{"hello shard then junk", []byte{binMagic, btHello, 0x01, 'd', 0x00, 0x00, 0x00, 0x02, 's', '1', 0xFF}, "trailing"},
	}
	for _, tc := range cases {
		_, err := Decode(tc.data)
		if err == nil {
			t.Errorf("%s: accepted %x", tc.name, tc.data)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func mustSrvbWithInner(t *testing.T, inner []byte) []byte {
	t.Helper()
	return AppendServerBatchRaw(nil, [][]byte{inner})
}

// TestBinarySrvbNoNesting: srvb may only embed plain binary srv bodies. A
// crafted tower of srvb-in-srvb wrappers must be rejected at the outermost
// level — before the fix this recursed once per level with O(depth^2)
// error wrapping, letting an unauthenticated peer pin a core for minutes
// with one frame.
func TestBinarySrvbNoNesting(t *testing.T) {
	body := []byte{binMagic, btBye}
	for i := 0; i < 2000; i++ {
		body = AppendServerBatchRaw(nil, [][]byte{body})
	}
	_, err := Decode(body)
	if err == nil {
		t.Fatal("accepted nested srvb tower")
	}
	if !strings.Contains(err.Error(), "want srv") {
		t.Errorf("error %q does not mention want srv", err)
	}
}

// TestBinaryHostileCountAllocation: an element count near the frame size
// must not preallocate count*sizeof(element) bytes — for opb that would be
// ~90x amplification over the bytes actually sent.
func TestBinaryHostileCountAllocation(t *testing.T) {
	const n = 1 << 20
	data := append([]byte{binMagic, btOpBatch}, binary.AppendUvarint(nil, n)...)
	data = append(data, make([]byte, n)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted hostile op batch")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("decoding a %d-byte hostile frame allocated %d bytes", len(data), grew)
	}
}

// TestBinarySrvbNotIncreasing: batch frame seqs must strictly increase.
func TestBinarySrvbNotIncreasing(t *testing.T) {
	mk := func(seq uint64) []byte {
		body, err := EncodeWith(BinaryCodec, &Frame{Type: TServer, Server: &Server{
			Seq: seq,
			Msg: css.ServerMsg{Kind: css.MsgAck, AckID: opid.OpID{Client: 1, Seq: seq}, Seq: seq, Origin: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	body := AppendServerBatchRaw(nil, [][]byte{mk(2), mk(1)})
	if _, err := Decode(body); err == nil {
		t.Fatal("accepted srv batch with non-increasing frame seqs")
	}
	body = AppendServerBatchRaw(nil, [][]byte{mk(1), mk(2)})
	if _, err := Decode(body); err != nil {
		t.Fatalf("rejected well-formed raw-composed batch: %v", err)
	}
}

// TestAppendServerBatchRaw: raw composition of cached bodies decodes to the
// same frame as encoding the batch from structs.
func TestAppendServerBatchRaw(t *testing.T) {
	frames := []Server{
		{Seq: 1, Msg: css.ServerMsg{Kind: css.MsgAck, AckID: opid.OpID{Client: 1, Seq: 1}, Seq: 1, Origin: 1}},
		{Seq: 2, Msg: css.ServerMsg{Kind: css.MsgAck, AckID: opid.OpID{Client: 1, Seq: 2}, Seq: 2, Origin: 1}},
	}
	var bodies [][]byte
	for i := range frames {
		b, err := EncodeWith(BinaryCodec, &Frame{Type: TServer, Server: &frames[i]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	raw := AppendServerBatchRaw(nil, bodies)
	structed, err := EncodeWith(BinaryCodec, &Frame{Type: TServerBatch, ServerBatch: &ServerBatch{Frames: frames}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, structed) {
		t.Fatalf("raw composition differs from struct encoding:\n raw %x\n str %x", raw, structed)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ServerBatch.Frames, frames) {
		t.Fatalf("decoded batch %+v != %+v", got.ServerBatch.Frames, frames)
	}
}

// TestStreamWriteRaw: a pre-encoded body goes out verbatim under the length
// prefix and decodes on the peer side.
func TestStreamWriteRaw(t *testing.T) {
	body, err := EncodeWith(BinaryCodec, &Frame{Type: TAck, Ack: &Ack{Seq: 11}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := NewStream(&buf, 0)
	if err := s.WriteRaw(body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes()[4:], body) {
		t.Fatalf("raw body rewritten: %x != %x", buf.Bytes()[4:], body)
	}
	got, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Ack.Seq != 11 {
		t.Fatalf("read %+v", got)
	}
	if err := s.WriteRaw(nil); err == nil {
		t.Fatal("WriteRaw(nil) accepted")
	}
}
