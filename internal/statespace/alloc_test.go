package statespace

import (
	"encoding/json"
	"runtime"
	"testing"

	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// TestRecordSizes: a state and a transition are flat, pointer-free records
// of at most 48 and 32 bytes; everything else a state may have (a base set,
// a tag, a key, a document) sits in a side table.
func TestRecordSizes(t *testing.T) {
	if StateBytes > 48 {
		t.Errorf("a state record is %d B, want at most 48", StateBytes)
	}
	if EdgeBytes > 32 {
		t.Errorf("an edge record is %d B, want at most 32", EdgeBytes)
	}
}

// TestLadderRungAllocation: a rung of Algorithm 1's ladder allocates a state
// record and two edge records, plus its share of chunk and intern-index
// growth. One integration across a 256-operation chain builds 256 rungs.
func TestLadderRungAllocation(t *testing.T) {
	const rungs = 256
	s := New(nil)
	for k := 1; k <= rungs; k++ {
		if _, err := s.IntegrateAt(ot.Ins('a', 0, id(1, uint64(k))), s.Final(), OrderKey(k)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.IntegrateAt(ot.Ins('b', 0, id(2, 1)), s.Initial(), rungs+1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumStates(); got != 2*rungs+2 {
		t.Fatalf("%d states after the ladder, want %d", got, 2*rungs+2)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / rungs
	objs := float64(after.Mallocs-before.Mallocs) / rungs
	t.Logf("%.0f B and %.1f objects per rung", per, objs)
	if per > 160 {
		t.Errorf("a ladder rung allocates %.0f B, want at most 160", per)
	}
}

// BenchmarkLadder integrates one operation across a 256-operation chain —
// 256 ladder rungs — and reports the time and allocation per rung.
func BenchmarkLadder(b *testing.B) {
	const rungs = 256
	var before, after runtime.MemStats
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(nil)
		for k := 1; k <= rungs; k++ {
			if _, err := s.IntegrateAt(ot.Ins('a', 0, id(1, uint64(k))), s.Final(), OrderKey(k)); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if _, err := s.IntegrateAt(ot.Ins('b', 0, id(2, 1)), s.Initial(), rungs+1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rungs), "ns/rung")
	b.ReportMetric(float64(total)/float64(b.N*rungs), "B/rung")
}

// TestBuilderRefusesDisagreeingKey: all edges of an operation share its order
// key, so a hand-built edge that names another key for a known operation is
// an error rather than silently re-keyed.
func TestBuilderRefusesDisagreeingKey(t *testing.T) {
	o1, o2 := ot.Ins('x', 0, id(1, 1)), ot.Ins('y', 0, id(2, 1))
	b := NewBuilder(nil).
		Edge(set(), o1, 1).
		Edge(set(), o2, 2).
		Edge(set(o2.ID), ot.Ins('x', 0, o1.ID), 1)
	if _, err := b.Build(); err != nil {
		t.Fatalf("edges that agree on their keys: %v", err)
	}
	b.Edge(set(o1.ID), ot.Ins('y', 1, o2.ID), 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("an edge of o2 keyed 3 after one keyed 2 must fail the build")
	}
}

// TestPersistSharesKeyCells: a reloaded space gives every edge of an
// operation one key cell, so promoting it re-keys all of them, rails
// included; a file whose edges of one operation disagree is refused.
func TestPersistSharesKeyCells(t *testing.T) {
	s := New(nil)
	remote := ot.Ins('r', 0, id(2, 1))
	own := ot.Ins('o', 0, id(1, 1))
	if _, err := s.IntegrateAt(own, s.Initial(), PendingKey); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Integrate(remote, set(), 1); err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back := New(nil)
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if err := back.Promote(own.ID, 2); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, st := range back.States() {
		for _, e := range st.Edges() {
			if e.Op.ID == own.ID {
				n++
				if e.OrderKey() != 2 {
					t.Errorf("edge %s keyed %d after promotion to 2", e, e.OrderKey())
				}
			}
		}
	}
	if n != 2 {
		t.Fatalf("%d edges of %s, want its own and the rail", n, own.ID)
	}
	// The same file with the rail keyed differently from the first edge.
	bad := New(nil)
	if err := bad.UnmarshalJSON(rekeyOneEdge(t, data, own.ID)); err == nil {
		t.Fatal("a file whose edges of one operation disagree on the key must be refused")
	}
}

// rekeyOneEdge rewrites the key of one edge of op in a marshalled space.
func rekeyOneEdge(t *testing.T, data []byte, op opid.OpID) []byte {
	t.Helper()
	var in spaceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	for key, st := range in.States {
		for i, e := range st.Edges {
			if idOf(e.Op.ID) == op {
				st.Edges[i].Key = 7
				in.States[key] = st
				out, err := json.Marshal(in)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
		}
	}
	t.Fatalf("no edge of %s", op)
	return nil
}
