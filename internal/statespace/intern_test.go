package statespace

import (
	"math/rand"
	"testing"

	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// buildRandomSpace grows a space through n Integrate calls whose contexts
// lag randomly behind the final state (as real clients' do), returning the
// space and every context used.
func buildRandomSpace(t *testing.T, r *rand.Rand, n int) (*Space, []opid.Set) {
	t.Helper()
	s := New(nil)
	var order []opid.OpID
	ctxs := make([]opid.Set, 0, n)
	for i := 0; i < n; i++ {
		// Context: a random prefix of the integration order (always a valid
		// state by Lemma 6.4, since keys here follow integration order).
		lag := r.Intn(4)
		if lag > len(order) {
			lag = len(order)
		}
		ctx := opid.NewSet(order[:len(order)-lag]...)
		op := ot.Ins(rune('a'+i%26), 0, id(int32(1+i%3), uint64(1+i/3)))
		if _, err := s.Integrate(op, ctx, OrderKey(i+1)); err != nil {
			t.Fatalf("integrate %d: %v", i, err)
		}
		order = append(order, op.ID)
		ctxs = append(ctxs, ctx)
	}
	return s, ctxs
}

// TestInternTableProperties verifies that the interned representation and
// the explicit-set representation agree on every state of randomly grown
// spaces: set resolution is exact (every materialized set resolves to its
// own state, both via StateOf and via the incremental Child index), lazily
// materialized sets match depth and hash, and Contains agrees with the
// materialized set membership.
func TestInternTableProperties(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		s, ctxs := buildRandomSpace(t, r, 40)
		states := s.States()
		seenIDs := make(map[StateID]bool, len(states))
		for _, st := range states {
			ops := st.Ops()
			if len(ops) != st.Len() {
				t.Fatalf("state %s: Len %d but |Ops()| %d", st, st.Len(), len(ops))
			}
			back, ok := s.StateOf(ops)
			if !ok || back != st {
				t.Fatalf("state %s does not resolve to itself", st)
			}
			if seenIDs[st.ID()] {
				t.Fatalf("duplicate StateID %d", st.ID())
			}
			seenIDs[st.ID()] = true
			for _, o := range ops.Sorted() {
				if !st.Contains(o) {
					t.Fatalf("state %s: Contains(%s) false but %s ∈ Ops()", st, o, o)
				}
			}
			if st.Contains(id(99, 99)) {
				t.Fatalf("state %s contains foreign op", st)
			}
			// Child agrees with the edge structure.
			for i := 0; i < st.EdgeCount(); i++ {
				e := st.EdgeAt(i)
				child, ok := s.Child(st, e.Op.ID)
				if !ok || child != e.To {
					t.Fatalf("Child(%s, %s) = %v, want edge target %s", st, e.Op.ID, child, e.To)
				}
				if !e.To.Ops().Equal(ops.Add(e.Op.ID)) {
					t.Fatalf("edge %s target set mismatch", e)
				}
			}
		}
		// Every context ever used still resolves (no compaction ran).
		for _, ctx := range ctxs {
			if _, ok := s.StateOf(ctx); !ok {
				t.Fatalf("context %s no longer resolves", ctx)
			}
		}
		// A set that was never a state must not resolve.
		if _, ok := s.StateOf(opid.NewSet(id(99, 99))); ok {
			t.Fatal("foreign set resolved to a state")
		}
		if err := s.CheckInvariants(40, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInternSurvivesCompaction re-checks resolution after garbage
// collection: surviving states re-anchor on cached base sets, and their
// interned identities must keep resolving exactly.
func TestInternSurvivesCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	s, _ := buildRandomSpace(t, r, 30)
	// Compact to the leftmost prefix of length 20.
	path, err := s.LeftmostPath(s.Initial())
	if err != nil {
		t.Fatal(err)
	}
	frontier := opid.NewSet()
	for _, e := range path[:20] {
		frontier.Put(e.Op.ID)
	}
	if err := s.CompactTo(frontier); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.States() {
		ops := st.Ops()
		back, ok := s.StateOf(ops)
		if !ok || back != st {
			t.Fatalf("post-compaction state %s does not resolve to itself", st)
		}
		if !frontier.Subset(ops) {
			t.Fatalf("post-compaction state %s below frontier", st)
		}
	}
	if !s.Initial().Ops().Equal(frontier) {
		t.Fatalf("root %s, want frontier %s", s.Initial(), frontier)
	}
	if err := s.CheckInvariants(40, false); err != nil {
		t.Fatal(err)
	}
}

// TestTaggedStatesShareSets pins the Builder tag semantics under interning:
// two states over the same operation set but different tags are distinct
// interned states, resolved separately.
func TestTaggedStatesShareSets(t *testing.T) {
	b := NewBuilder(nil)
	o1 := ot.Ins('x', 0, id(1, 1))
	o2 := ot.Ins('y', 0, id(2, 1))
	b.Edge(set(), o1, 1)
	b.Edge(set(), o2, 2)
	b.EdgeTagged(set(o1.ID), "", o2, 2, "L")
	b.EdgeTagged(set(o2.ID), "", o1, 1, "R")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	both := set(o1.ID, o2.ID)
	l, okL := b.State(both, "L")
	rr, okR := b.State(both, "R")
	if !okL || !okR {
		t.Fatal("tagged states not found")
	}
	if l == rr {
		t.Fatal("distinct tags resolved to one state")
	}
	if !l.Ops().Equal(both) || !rr.Ops().Equal(both) {
		t.Fatal("tagged states materialize wrong sets")
	}
	if _, ok := s.StateOf(both); ok {
		t.Fatal("untagged lookup must not resolve a tagged state")
	}
}
