package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"jupiter/internal/css"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

func sampleFrames(t *testing.T) []*Frame {
	t.Helper()
	id := opid.OpID{Client: 1, Seq: 1}
	return []*Frame{
		{Type: THello, Hello: &Hello{Doc: "notes", ClientID: 0}},
		{Type: THello, Hello: &Hello{Doc: "notes", ClientID: 4, LastFrameSeq: 17}},
		{Type: TWelcome, Welcome: &Welcome{ClientID: 4, Resume: true}},
		{Type: TWelcome, Welcome: &Welcome{ClientID: 5, Snapshot: &css.Snapshot{}}},
		{Type: TOp, Op: &Op{Msg: css.ClientMsg{From: 1, Op: ot.Ins('a', 0, id), Ctx: opid.NewSet()}}},
		{Type: TServer, Server: &Server{Seq: 3, Msg: css.ServerMsg{Kind: css.MsgAck, AckID: id, Seq: 1, Origin: 1}}},
		{Type: TAck, Ack: &Ack{Seq: 3}},
		{Type: TError, Error: &Error{Code: CodeShutdown, Msg: "draining"}},
		{Type: TBye},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewStream(&buf, 0)
	frames := sampleFrames(t)
	for _, f := range frames {
		off := buf.Len()
		if err := c.Write(f); err != nil {
			t.Fatalf("write %q: %v", f.Type, err)
		}
		// One encoding from the first frame on, the hello included.
		if buf.Bytes()[off+4] != binMagic {
			t.Fatalf("write %q: body is not binary: %x", f.Type, buf.Bytes()[off:])
		}
	}
	for _, want := range frames {
		got, err := c.Read()
		if err != nil {
			t.Fatalf("read %q: %v", want.Type, err)
		}
		if got.Type != want.Type {
			t.Fatalf("read type %q, want %q", got.Type, want.Type)
		}
	}
	if _, err := c.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("read past end: %v, want EOF", err)
	}
}

func TestOpFramePreservesMessage(t *testing.T) {
	id := opid.OpID{Client: 2, Seq: 9}
	msg := css.ClientMsg{From: 2, Op: ot.Ins('z', 4, id), Ctx: opid.NewSet(opid.OpID{Client: 1, Seq: 3})}
	var buf bytes.Buffer
	c := NewStream(&buf, 0)
	if err := c.Write(&Frame{Type: TOp, Op: &Op{Msg: msg}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Op.Msg.Op.ID != id || got.Op.Msg.From != 2 || !got.Op.Msg.Ctx.Contains(opid.OpID{Client: 1, Seq: 3}) {
		t.Fatalf("op frame mangled: %+v", got.Op.Msg)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"not json":         []byte("\x00\x01\x02garbage"),
		"truncated json":   []byte(`{"type":"hello","hello":{"doc":"x"`),
		"unknown type":     []byte(`{"type":"warez","hello":{"doc":"x"}}`),
		"missing payload":  []byte(`{"type":"hello"}`),
		"wrong payload":    []byte(`{"type":"hello","ack":{"seq":1}}`),
		"double payload":   []byte(`{"type":"hello","hello":{"doc":"x"},"ack":{"seq":1}}`),
		"bye with payload": []byte(`{"type":"bye","ack":{"seq":1}}`),
		"bad op kind":      []byte(`{"type":"op","op":{"msg":{"from":1,"op":{"kind":"exec","pos":0,"id":{"client":1,"seq":1}},"ctx":[]}}}`),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted %q", name, data)
		}
	}
}

func TestReadRejectsOversizedLengthPrefix(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], 1<<31-1)
	buf.Write(lenBuf[:])
	buf.WriteString("whatever")
	c := NewStream(&buf, 1024)
	if _, err := c.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadRejectsZeroLength(t *testing.T) {
	c := NewStream(bytes.NewBuffer(make([]byte, 4)), 0)
	if _, err := c.Read(); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("got %v, want ErrEmptyFrame", err)
	}
}

func TestReadRejectsTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], 100)
	buf.Write(lenBuf[:])
	buf.WriteString(`{"type":"bye"}`) // far fewer than 100 bytes
	c := NewStream(&buf, 0)
	if _, err := c.Read(); err == nil || strings.Contains(err.Error(), "unknown") {
		t.Fatalf("got %v, want truncated-body read error", err)
	}
}

func TestWriteRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewStream(&buf, 64)
	big := &Frame{Type: TError, Error: &Error{Code: CodeProtocol, Msg: strings.Repeat("x", 128)}}
	if err := c.Write(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write still emitted %d bytes", buf.Len())
	}
}

func TestWriteRejectsInvalidFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewStream(&buf, 0)
	if err := c.Write(&Frame{Type: THello}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("got %v, want ErrBadPayload", err)
	}
	if err := c.Write(&Frame{Type: "nope"}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("got %v, want ErrUnknownType", err)
	}
}
