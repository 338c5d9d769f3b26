package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jupiter/internal/opid"
)

// Span names. A name is the package whose call the span brackets plus what
// the call does; the per-layer metrics carry the same names.
const (
	spanMeasured   = "replay.measured"   // root: the part of a round the TCP run times
	spanUnmeasured = "replay.unmeasured" // root: the rest (dials outside the clock, late-join's preload)

	spanGenerate      = "client.generate"           // css.Client.GenerateIns / GenerateDel
	spanEncodeOp      = "wire.encode_op"            // client to server op frame
	spanDecodeOp      = "wire.decode_op"            //
	spanServerReceive = "css.server_receive"        // css.Server.Receive
	spanEncodeSrv     = "wire.encode_srv"           // server to client frames of one flush
	spanDecodeSrv     = "wire.decode_srv"           //
	spanReceiveAck    = "css.client_receive_ack"    // css.Client.Receive of an ack
	spanReceiveRemote = "css.client_receive_remote" // css.Client.Receive of a broadcast
	spanSnapshot      = "css.snapshot"              // css.Server.Snapshot
	spanEncodeWelcome = "wire.encode_welcome"       //
	spanDecodeWelcome = "wire.decode_welcome"       //
	spanFromSnapshot  = "css.client_from_snapshot"  // css.NewClientFromSnapshot
)

// layerSpans are the spans around calls into a layer, in wire order.
var layerSpans = []string{
	spanGenerate, spanEncodeOp, spanDecodeOp, spanServerReceive, spanEncodeSrv, spanDecodeSrv,
	spanReceiveAck, spanReceiveRemote,
	spanSnapshot, spanEncodeWelcome, spanDecodeWelcome, spanFromSnapshot,
}

// span is one bracketed call: what the choosing-metrics guide asks a trace
// to record. Parent is the index of the span that caused it, -1 for a root.
type span struct {
	Name   string
	Parent int
	Start  time.Duration // since the trace began
	End    time.Duration
	Op     opid.OpID // the operation the call was made for; zero when it serves several
	Round  int
	Bytes  int    // wire spans: size of the frame built or parsed
	Alloc  uint64 // allocation pass only: bytes allocated between start and end
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	round int
	// allocs switches the tracer from timing to allocation accounting:
	// reading MemStats stops the world, so the two never share a pass.
	allocs bool
	ms     runtime.MemStats
}

func newTracer(allocs bool) *tracer {
	return &tracer{epoch: time.Now(), allocs: allocs, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) totalAlloc() uint64 {
	runtime.ReadMemStats(&t.ms)
	return t.ms.TotalAlloc
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, op opid.OpID) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Round: t.round})
	s := &t.spans[len(t.spans)-1]
	if t.allocs {
		s.Alloc = t.totalAlloc()
	}
	s.Start = time.Since(t.epoch)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = time.Since(t.epoch)
	if t.allocs {
		s.Alloc = t.totalAlloc() - s.Alloc
	}
}

// selfTimes returns each span's self time: its duration minus the part of it
// that its child spans cover. Children of one parent never overlap here (the
// replay is one goroutine), so that part is the sum of their durations,
// clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			p := spans[s.Parent]
			self[s.Parent] -= min(s.End, p.End) - max(s.Start, p.Start)
		}
	}
	return self
}

// selfAllocs is selfTimes for the allocation pass.
func selfAllocs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += int64(s.Alloc)
		if s.Parent >= 0 {
			self[s.Parent] -= int64(s.Alloc)
		}
	}
	return self
}

// root returns the index of the root a span hangs under.
func root(spans []span, i int) int {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return i
}

// spanLine is the span file's record: one JSON object per line.
type spanLine struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Round   int    `json:"round"`
	Op      string `json:"op,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	Bytes   int    `json:"bytes,omitempty"`
}

// writeSpans writes the timing pass's spans to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := selfTimes(spans)
	for i, s := range spans {
		l := spanLine{ID: i, Parent: s.Parent, Name: s.Name, Round: s.Round,
			StartNs: int64(s.Start), EndNs: int64(s.End), SelfNs: int64(self[i]), Bytes: s.Bytes}
		if !s.Op.Zero() {
			l.Op = s.Op.String()
		}
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
