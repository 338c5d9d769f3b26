package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the frame decoder. The invariant
// under fuzz: Decode never panics, and any frame it accepts re-encodes and
// decodes again cleanly (accepted frames are internally consistent).
func FuzzWireDecode(f *testing.F) {
	// Seed corpus: every valid frame shape plus the adversarial shapes the
	// unit tests cover.
	seeds := [][]byte{
		[]byte(`{"type":"hello","hello":{"doc":"notes"}}`),
		[]byte(`{"type":"hello","hello":{"doc":"notes","clientId":3,"lastFrameSeq":12}}`),
		[]byte(`{"type":"welcome","welcome":{"clientId":1,"resume":true}}`),
		[]byte(`{"type":"welcome","welcome":{"clientId":2,"snapshot":{"frontierIds":[],"frontierDoc":[],"replay":[]}}}`),
		[]byte(`{"type":"op","op":{"msg":{"from":1,"op":{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":1},"pri":1},"ctx":[]}}}`),
		[]byte(`{"type":"op","op":{"msg":{"from":2,"op":{"kind":"del","elem":{"val":"a","id":{"client":1,"seq":1}},"pos":0,"id":{"client":2,"seq":1},"pri":2},"ctx":[{"client":1,"seq":1}]}}}`),
		[]byte(`{"type":"srv","srv":{"seq":1,"msg":{"kind":1,"op":{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":1},"pri":1},"ctx":[],"seq":1,"origin":1}}}`),
		[]byte(`{"type":"srv","srv":{"seq":2,"msg":{"kind":2,"ctx":null,"seq":1,"ackId":{"client":1,"seq":1},"origin":1}}}`),
		[]byte(`{"type":"srv","srv":{"seq":3,"msg":{"kind":3,"ctx":[{"client":1,"seq":1}]}}}`),
		[]byte(`{"type":"ack","ack":{"seq":7}}`),
		[]byte(`{"type":"err","err":{"code":"shutdown","msg":"draining"}}`),
		[]byte(`{"type":"bye"}`),
		[]byte(`{"type":"hello"}`),
		[]byte(`{"type":"warez"}`),
		[]byte(`{"type":"op","op":{"msg":{"from":1,"op":{"kind":"ins","val":"aa","pos":0,"id":{"client":1,"seq":1}},"ctx":[]}}}`),
		[]byte(``),
		[]byte(`null`),
		[]byte(`[]`),
		[]byte("\x00\x01\x02"),
		// Replication frames: valid shapes plus the adversarial ones from
		// repl_test.go.
		[]byte(`{"type":"repl_hello","replHello":{"nodeId":"n1","role":"follower","lastIndex":7,"commit":5}}`),
		[]byte(`{"type":"repl_hello","replHello":{"nodeId":"n0","role":"leader"}}`),
		[]byte(`{"type":"repl_hello","replHello":{"nodeId":"n2","role":"candidate","lastIndex":3}}`),
		[]byte(`{"type":"repl_append","replAppend":{"entries":[{"index":1,"kind":2,"doc":"d","msg":{"from":1,"op":{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":1},"pri":1},"ctx":[]}}],"commit":1}}`),
		[]byte(`{"type":"repl_append","replAppend":{"entries":[{"index":2,"kind":1,"doc":"d","clientId":3}]}}`),
		[]byte(`{"type":"repl_ack","replAck":{"index":2}}`),
		[]byte(`{"type":"repl_commit","replCommit":{"commit":9}}`),
		[]byte(`{"type":"repl_hello","replHello":{"nodeId":"n1","role":"emperor"}}`),
		[]byte(`{"type":"repl_append","replAppend":{"entries":[]}}`),
		[]byte(`{"type":"repl_append","replAppend":{"entries":[{"index":1,"kind":1,"doc":"d","clientId":1},{"index":3,"kind":1,"doc":"d","clientId":2}]}}`),
		[]byte(`{"type":"repl_ack","replAck":{"index":0}}`),
		[]byte(`{"type":"repl_commit"}`),
	}
	// Codec-v2 shapes: negotiation fields and batch frames.
	seeds = append(seeds,
		[]byte(`{"type":"hello","hello":{"doc":"notes","codecs":["binary","json"]}}`),
		[]byte(`{"type":"welcome","welcome":{"clientId":4,"resume":true,"codec":"binary"}}`),
		[]byte(`{"type":"opb","opb":{"msgs":[{"from":1,"op":{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":1},"pri":1},"ctx":[]},{"from":1,"op":{"kind":"ins","val":"b","pos":1,"id":{"client":1,"seq":2},"pri":1},"compact":{"origin":1,"remote":0,"ownSeq":2}}]}}`),
		[]byte(`{"type":"opb","opb":{"msgs":[]}}`),
		[]byte(`{"type":"srvb","srvb":{"frames":[{"seq":1,"msg":{"kind":1,"op":{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":1},"pri":1},"ctx":[],"seq":1,"origin":1}},{"seq":2,"msg":{"kind":2,"ctx":null,"seq":2,"ackId":{"client":2,"seq":1},"origin":2}}]}}`),
		[]byte(`{"type":"srvb","srvb":{"frames":[{"seq":2,"msg":{"kind":2,"ctx":null,"seq":1,"ackId":{"client":1,"seq":1},"origin":1}},{"seq":1,"msg":{"kind":2,"ctx":null,"seq":2,"ackId":{"client":1,"seq":2},"origin":1}}]}}`),
		[]byte(`{"type":"repl_hello","replHello":{"nodeId":"n1","role":"follower","lastIndex":7,"commit":5,"codecs":["binary","json"],"codec":"binary"}}`),
	)
	// Placement / sharding frames: valid shapes plus the adversarial ones
	// from the placement frame tests.
	seeds = append(seeds,
		[]byte(`{"type":"hello","hello":{"doc":"notes","codecs":["binary","json"],"shard":"s1"}}`),
		[]byte(`{"type":"route","route":{}}`),
		[]byte(`{"type":"route","route":{"doc":"notes","version":7}}`),
		[]byte(`{"type":"routes","routes":{"table":{"version":3,"vnodes":64,"shards":[{"id":"s0","addrs":["127.0.0.1:9100"]},{"id":"s1","addrs":["127.0.0.1:9200","127.0.0.1:9201"]}],"overrides":[{"doc":"notes","shard":"s1"}]}}}`),
		[]byte(`{"type":"routes","routes":{"table":{"version":1,"vnodes":0,"shards":[{"id":"s0","addrs":["a"]}]}}}`),
		[]byte(`{"type":"routes","routes":{"table":{"version":1,"vnodes":8,"shards":[{"id":"s0","addrs":["a"]},{"id":"s0","addrs":["b"]}]}}}`),
		[]byte(`{"type":"routes","routes":{"table":{"version":1,"vnodes":8,"shards":[{"id":"s0","addrs":["a"]}],"overrides":[{"doc":"d","shard":"ghost"}]}}}`),
		[]byte(`{"type":"moved","moved":{"doc":"notes","shard":"s1","addrs":["127.0.0.1:9200"]}}`),
		[]byte(`{"type":"moved","moved":{"doc":"notes"}}`),
		[]byte(`{"type":"migrate","migrate":{"doc":"notes","targetShard":"s1","targetAddrs":["127.0.0.1:9200"]}}`),
		[]byte(`{"type":"migrate","migrate":{"doc":"notes","targetShard":"s1","targetAddrs":["127.0.0.1:9200"],"token":"sesame"}}`),
		[]byte(`{"type":"migrate","migrate":{"doc":"notes","targetShard":"s1"}}`),
		[]byte(`{"type":"mig_state","migState":{"doc":"notes","state":"AQID"}}`),
		[]byte(`{"type":"mig_state","migState":{"doc":"notes","state":"AQID","token":"sesame"}}`),
		[]byte(`{"type":"mig_state","migState":{"doc":"notes"}}`),
		[]byte(`{"type":"mig_ack","migAck":{"doc":"notes","ok":true}}`),
		[]byte(`{"type":"mig_ack","migAck":{"doc":"notes","err":"target refused"}}`),
	)
	// Binary-codec seeds: the binary rendering of every JSON seed the
	// decoder accepts, so the fuzzer starts from valid binary bodies of
	// every frame type, plus adversarial raw bytes.
	for _, s := range seeds {
		if fr, err := Decode(s); err == nil {
			if body, err := EncodeWith(BinaryCodec, fr); err == nil {
				seeds = append(seeds, body)
			}
		}
	}
	seeds = append(seeds,
		[]byte{0xBF},                   // magic with no type
		[]byte{0xBF, 0x63},             // magic with unknown type
		[]byte{0xBF, 0x01},             // truncated hello
		[]byte{0xBF, 0x05, 0xFF},       // truncated uvarint
		[]byte{0xBF, 0x07, 0x00},       // bye with trailing byte
		[]byte{0xBF, 0x06, 0xFF, 0x61}, // error with hostile string length
		[]byte{0xBF, 0x12, 0x01, 0x64, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},       // mig_state with hostile blob length
		[]byte{0xBF, 0x0F, 0x01, 0x40, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},       // routes with hostile shard count
		[]byte{0xBF, 0x01, 0x01, 0x64, 0x00, 0x00, 0x00, 0x02, 0x73, 0x31}, // hello with trailing shard field
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		body, err := Encode(fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v\ninput: %q", err, data)
		}
		again, err := Decode(body)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v\nbody: %q", err, body)
		}
		if again.Type != fr.Type {
			t.Fatalf("type changed across round trip: %q -> %q", fr.Type, again.Type)
		}
		// Any accepted frame the binary codec can render must round-trip
		// through it byte-identically (the canonical-encoding invariant the
		// outbox byte cache and golden pins rely on).
		if bbody, err := EncodeWith(BinaryCodec, fr); err == nil {
			bfr, err := Decode(bbody)
			if err != nil {
				t.Fatalf("binary body failed to decode: %v\nbody: %x", err, bbody)
			}
			bagain, err := EncodeWith(BinaryCodec, bfr)
			if err != nil {
				t.Fatalf("binary round trip failed to re-encode: %v", err)
			}
			if !bytes.Equal(bbody, bagain) {
				t.Fatalf("binary encoding not canonical:\n first: %x\nsecond: %x", bbody, bagain)
			}
		}
		// And the framed stream form must round-trip too.
		var buf bytes.Buffer
		c := NewStream(&buf, 0)
		if _, err := EncodeWith(BinaryCodec, fr); err == nil {
			if err := c.Write(fr); err != nil {
				t.Fatalf("accepted frame failed binary stream write: %v", err)
			}
			if _, err := c.Read(); err != nil {
				t.Fatalf("binary stream round trip failed: %v", err)
			}
		}
	})
}
