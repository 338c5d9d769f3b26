package statespace

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

func id(c int32, s uint64) opid.OpID {
	return opid.OpID{Client: opid.ClientID(c), Seq: s}
}

func set(ids ...opid.OpID) opid.Set { return opid.NewSet(ids...) }

func mustIntegrate(t *testing.T, s *Space, o ot.Op, ctx opid.Set, key OrderKey) ot.Op {
	t.Helper()
	exec, err := s.Integrate(o, ctx, key)
	if err != nil {
		t.Fatalf("integrate %s: %v", o, err)
	}
	return exec
}

// TestFigure3Algorithm1 reproduces Example 6.1 / Figure 3: a client's space
// holds operations o1, o2, o4 with causal relations o3 ∥ (o1 ∥ o2) → o4 and
// total order o1 ⇒ o2 ⇒ o3 ⇒ o4; the remote operation o3 is integrated.
// Algorithm 1 must transform o3 with L = ⟨o1, o2{1}, o4{1,2}⟩ (the leftmost
// transitions from σ0) and arrange all new transitions in their appropriate
// orders.
func TestFigure3Algorithm1(t *testing.T) {
	s := New(nil, WithCP1Check())

	o1 := ot.Ins('a', 0, id(1, 1))
	o2 := ot.Ins('b', 0, id(2, 1))
	o3 := ot.Ins('c', 0, id(3, 1))
	o4 := ot.Ins('d', 0, id(1, 2))

	// The client processed o1 (remote, key 1), o2 (remote, key 2), then o4
	// (a causal successor of o1 and o2; key 4).
	mustIntegrate(t, s, o1, set(), 1)
	mustIntegrate(t, s, o2, set(), 2)
	mustIntegrate(t, s, o4, set(o1.ID, o2.ID), 4)

	// {0}, {1}, {2}, {1,2}, {1,2,4}: o1 ∥ o2 forms the diamond, o4 extends
	// the final state.
	if got := s.NumStates(); got != 5 {
		t.Fatalf("before o3: %d states, want 5", got)
	}

	// Now the remote o3 arrives with context σ0 and key 3.
	exec := mustIntegrate(t, s, o3, set(), 3)
	if exec.ID != o3.ID {
		t.Fatalf("executed op has identity %v, want %v", exec.ID, o3.ID)
	}

	// The ladder adds {3}, {1,3}, {1,2,3}, {1,2,3,4}: 9 states total.
	if got := s.NumStates(); got != 9 {
		t.Fatalf("after o3: %d states, want 9", got)
	}

	// Sibling orders (Figure 3): σ0 has [o1, o2, o3]; σ1 has [o2{1}, o3{1}];
	// σ12 has [o3{1,2}, o4]; σ124 has [o3{1,2,4}].
	sigma0 := s.Initial()
	wantOrder := []opid.OpID{o1.ID, o2.ID, o3.ID}
	edges := sigma0.Edges()
	if len(edges) != 3 {
		t.Fatalf("σ0 has %d children, want 3", len(edges))
	}
	for i, e := range edges {
		if e.Op.ID != wantOrder[i] {
			t.Errorf("σ0 child %d is %s, want %s", i, e.Op.ID, wantOrder[i])
		}
	}

	sigma1, ok := s.StateOf(set(o1.ID))
	if !ok {
		t.Fatal("no state {1}")
	}
	e1 := sigma1.Edges()
	if len(e1) != 2 || e1[0].Op.ID != o2.ID || e1[1].Op.ID != o3.ID {
		t.Fatalf("σ1 children wrong: %v", e1)
	}

	sigma12, ok := s.StateOf(set(o1.ID, o2.ID))
	if !ok {
		t.Fatal("no state {1,2}")
	}
	e12 := sigma12.Edges()
	if len(e12) != 2 || e12[0].Op.ID != o3.ID || e12[1].Op.ID != o4.ID {
		t.Fatalf("σ12 children wrong, want [o3, o4]: %v", e12)
	}

	sigma124, ok := s.StateOf(set(o1.ID, o2.ID, o4.ID))
	if !ok {
		t.Fatal("no state {1,2,4}")
	}
	e124 := sigma124.Edges()
	if len(e124) != 1 || e124[0].Op.ID != o3.ID {
		t.Fatalf("σ124 children wrong, want [o3]: %v", e124)
	}

	// Final state contains everything.
	if !s.Final().Ops().Equal(set(o1.ID, o2.ID, o3.ID, o4.ID)) {
		t.Fatalf("final state is %s", s.Final())
	}

	if err := s.CheckInvariants(4, true); err != nil {
		t.Fatal(err)
	}
}

// TestLeftmostPathLemma64 checks Lemma 6.4 on the Figure 3 space: from any
// state σ, the leftmost path to the final state consists of exactly the
// operations O \ σ in total order.
func TestLeftmostPathLemma64(t *testing.T) {
	s := New(nil, WithDocs())

	ops := []ot.Op{
		ot.Ins('a', 0, id(1, 1)),
		ot.Ins('b', 0, id(2, 1)),
		ot.Ins('c', 0, id(3, 1)),
		ot.Ins('d', 0, id(1, 2)),
	}
	mustIntegrate(t, s, ops[0], set(), 1)
	mustIntegrate(t, s, ops[1], set(), 2)
	mustIntegrate(t, s, ops[3], set(ops[0].ID, ops[1].ID), 4)
	mustIntegrate(t, s, ops[2], set(), 3)

	keyOf := map[opid.OpID]OrderKey{ops[0].ID: 1, ops[1].ID: 2, ops[2].ID: 3, ops[3].ID: 4}

	for _, st := range s.States() {
		path, err := s.LeftmostPath(st)
		if err != nil {
			t.Fatalf("leftmost from %s: %v", st, err)
		}
		// Path ops = O \ σ.
		want := opid.NewSet()
		for _, o := range ops {
			if !st.Contains(o.ID) {
				want = want.Add(o.ID)
			}
		}
		if !PathOps(path).Equal(want) {
			t.Errorf("leftmost path from %s carries %s, want %s", st, PathOps(path), want)
		}
		// In total order.
		for i := 1; i < len(path); i++ {
			if keyOf[path[i-1].Op.ID] >= keyOf[path[i].Op.ID] {
				t.Errorf("leftmost path from %s out of total order at %d", st, i)
			}
		}
		if !IsSimplePath(path) {
			t.Errorf("leftmost path from %s is not simple", st)
		}
	}
}

func TestIntegrateErrors(t *testing.T) {
	s := New(nil)
	o1 := ot.Ins('a', 0, id(1, 1))

	if _, err := s.Integrate(o1, set(id(9, 9)), 1); !errors.Is(err, ErrNoMatchingState) {
		t.Errorf("unknown context: err = %v, want ErrNoMatchingState", err)
	}
	if _, err := s.Integrate(o1, set(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Integrate(o1, set(), 2); !errors.Is(err, ErrDuplicateOp) {
		t.Errorf("duplicate: err = %v, want ErrDuplicateOp", err)
	}
}

func TestPromote(t *testing.T) {
	s := New(nil)
	// A client generates o2 locally (pending), then receives remote o1.
	o2 := ot.Ins('b', 0, id(2, 1))
	o1 := ot.Ins('a', 0, id(1, 1))

	mustIntegrate(t, s, o2, set(), PendingKey)
	mustIntegrate(t, s, o1, set(), 1)

	// Remote o1 must have been placed LEFT of the pending o2.
	edges := s.Initial().Edges()
	if len(edges) != 2 || edges[0].Op.ID != o1.ID || edges[1].Op.ID != o2.ID {
		t.Fatalf("sibling order before ack wrong: %v", edges)
	}

	// Ack arrives: o2 is the second operation in total order.
	if err := s.Promote(o2.ID, 2); err != nil {
		t.Fatal(err)
	}
	k, ok := s.OrderKeyOf(o2.ID)
	if !ok || k != 2 {
		t.Fatalf("order key after promote = %v, %v", k, ok)
	}
	for _, e := range s.Initial().Edges() {
		if e.Op.ID == o2.ID && e.OrderKey() != 2 {
			t.Errorf("edge not re-keyed: %v", e.OrderKey())
		}
	}

	// Errors: unknown op, re-keying.
	if err := s.Promote(id(9, 9), 5); err == nil {
		t.Error("promote unknown op: want error")
	}
	if err := s.Promote(o2.ID, 2); err != nil {
		t.Errorf("idempotent promote should pass: %v", err)
	}
	if err := s.Promote(o2.ID, 3); err == nil {
		t.Error("re-keying to a different key: want error")
	}
}

// TestProp66SameIntegrationDifferentOrders drives two spaces through the
// same operation set delivered in different (causally legal) orders and
// checks they end structurally identical — the heart of Proposition 6.6.
func TestProp66SameIntegrationDifferentOrders(t *testing.T) {
	o1 := ot.Ins('a', 0, id(1, 1))
	o2 := ot.Ins('b', 0, id(2, 1))
	o3 := ot.Ins('c', 0, id(3, 1))

	// Server order: o1, o2, o3 — a replica that receives them in server
	// order (e.g. the server itself).
	sA := New(nil, WithDocs())
	mustIntegrate(t, sA, o1, set(), 1)
	mustIntegrate(t, sA, o2, set(), 2)
	mustIntegrate(t, sA, o3, set(), 3)

	// Client c3's order: generates o3 first (pending), then receives o1, o2;
	// finally the ack promotes o3.
	sB := New(nil, WithDocs())
	mustIntegrate(t, sB, o3, set(), PendingKey)
	mustIntegrate(t, sB, o1, set(), 1)
	mustIntegrate(t, sB, o2, set(), 2)
	if err := sB.Promote(o3.ID, 3); err != nil {
		t.Fatal(err)
	}

	if sA.Render() != sB.Render() {
		t.Fatalf("spaces differ:\nA:\n%s\nB:\n%s", sA.Render(), sB.Render())
	}
	if sA.Fingerprint() != sB.Fingerprint() {
		t.Fatal("fingerprints differ")
	}
}

func TestLCAUnique(t *testing.T) {
	s := New(nil, WithDocs())
	o1 := ot.Ins('a', 0, id(1, 1))
	o2 := ot.Ins('b', 0, id(2, 1))
	mustIntegrate(t, s, o1, set(), 1)
	mustIntegrate(t, s, o2, set(), 2)

	s1, _ := s.StateOf(set(o1.ID))
	s2, _ := s.StateOf(set(o2.ID))
	lca, _, err := s.LCA(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if lca != s.Initial() {
		t.Fatalf("LCA = %s, want σ0", lca)
	}

	// Comparable pair: LCA is the ancestor itself.
	s12, _ := s.StateOf(set(o1.ID, o2.ID))
	lca, _, err = s.LCA(s1, s12)
	if err != nil {
		t.Fatal(err)
	}
	if lca != s1 {
		t.Fatalf("LCA of comparable pair = %s, want %s", lca, s1)
	}
}

// TestLCAAmbiguousByConstruction hand-builds (Builder with tags) a space
// that the CSS protocol can never produce: two incomparable states are both
// lowest common ancestors, the situation Lemma 8.4 rules out and Example
// 8.2 exhibits for unions of spaces from an incorrect protocol.
func TestLCAAmbiguousByConstruction(t *testing.T) {
	o1 := ot.Ins('a', 0, id(1, 1))
	o2 := ot.Ins('b', 1, id(2, 1))

	b := NewBuilder(list.FromString("z", 99))
	b.Edge(set(), o1, 1)
	b.Edge(set(), o2, 2)
	// Two distinct {1,2} states, each reachable from both {1} and {2}.
	b.EdgeTagged(set(o1.ID), "", o2, 2, "L")
	b.EdgeTagged(set(o2.ID), "", o1, 1, "L")
	b.EdgeTagged(set(o1.ID), "", ot.Transform(o2, o1), 2, "R")
	b.EdgeTagged(set(o2.ID), "", ot.Transform(o1, o2), 1, "R")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	xl, ok := b.State(set(o1.ID, o2.ID), "L")
	if !ok {
		t.Fatal("missing tagged state L")
	}
	xr, ok := b.State(set(o1.ID, o2.ID), "R")
	if !ok {
		t.Fatal("missing tagged state R")
	}
	_, cands, err := s.LCA(xl, xr)
	if !errors.Is(err, ErrAmbiguousLCA) {
		t.Fatalf("err = %v, want ErrAmbiguousLCA", err)
	}
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2 ({1} and {2})", len(cands))
	}
}

func TestDisjointAndSimplePaths(t *testing.T) {
	s := New(nil, WithDocs())
	o1 := ot.Ins('a', 0, id(1, 1))
	o2 := ot.Ins('b', 0, id(2, 1))
	o3 := ot.Ins('c', 0, id(3, 1))
	mustIntegrate(t, s, o1, set(), 1)
	mustIntegrate(t, s, o2, set(), 2)
	mustIntegrate(t, s, o3, set(), 3)

	s2, ok := s.StateOf(set(o2.ID))
	if !ok {
		t.Fatal("no state {2}")
	}
	s13, ok := s.StateOf(set(o1.ID, o3.ID))
	if !ok {
		t.Fatal("no state {1,3}")
	}
	lca, _, err := s.LCA(s2, s13)
	if err != nil {
		t.Fatal(err)
	}
	if lca != s.Initial() {
		t.Fatalf("LCA = %s, want σ0", lca)
	}
	p1 := s.APath(lca, s2)
	p2 := s.APath(lca, s13)
	if p1 == nil || p2 == nil {
		t.Fatal("paths not found")
	}
	if !IsSimplePath(p1) || !IsSimplePath(p2) {
		t.Error("paths not simple (Lemma 6.3)")
	}
	if !DisjointPaths(p1, p2) {
		t.Error("paths from LCA not disjoint (Lemma 8.5)")
	}
	// Compatibility of the endpoints (Lemma 8.6 / Theorem 8.7).
	okc, err := s.Compatible(s2, s13)
	if err != nil {
		t.Fatal(err)
	}
	if !okc {
		t.Error("endpoint states incompatible")
	}
	if err := s.CheckPairwiseCompatibility(); err != nil {
		t.Error(err)
	}
}

func TestAPathSelf(t *testing.T) {
	s := New(nil)
	if p := s.APath(s.Initial(), s.Initial()); p == nil || len(p) != 0 {
		t.Errorf("APath(x,x) = %v, want empty path", p)
	}
}

func TestCompatibleRequiresDocs(t *testing.T) {
	s := New(nil) // no WithDocs
	o1 := ot.Ins('a', 0, id(1, 1))
	mustIntegrate(t, s, o1, set(), 1)
	if _, err := s.Compatible(s.Initial(), s.Final()); err == nil {
		t.Error("Compatible without docs should error")
	}
}

// TestRandomServerIntegration property-checks the space under long random
// server-style runs (contexts are arbitrary prefixes of the total order):
// invariants, leftmost-path lemma, pairwise compatibility, and the CP1
// squares all hold.
func TestRandomServerIntegration(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		s := New(nil, WithCP1Check())
		var order []ot.Op
		var docLenAt []int // visible doc length after k ops on the leftmost path
		docLenAt = append(docLenAt, 0)

		nOps := 4 + r.Intn(8)
		for k := 0; k < nOps; k++ {
			// Context: a random prefix of the total order (what a client
			// that saw the first `p` ops would have).
			p := r.Intn(len(order) + 1)
			ctx := opid.NewSet()
			for _, o := range order[:p] {
				ctx = ctx.Add(o.ID)
			}
			// Build an op valid on the prefix state's document.
			st, ok := s.StateOf(ctx)
			if !ok {
				t.Fatalf("trial %d: no state for prefix %d", trial, p)
			}
			var op ot.Op
			// One distinct client per operation: a real client's own
			// operations are causally ordered, never concurrent, and a
			// random-prefix context cannot guarantee that for a reused
			// client identity.
			cl := int32(k + 1)
			if st.Doc().Len() > 0 && r.Intn(3) == 0 {
				pos := r.Intn(st.Doc().Len())
				e, _ := st.Doc().Get(pos)
				op = ot.Del(e, pos, id(cl, uint64(k+1)))
			} else {
				op = ot.Ins(rune('a'+k), r.Intn(st.Doc().Len()+1), id(cl, uint64(k+1)))
			}
			if _, err := s.Integrate(op, ctx, OrderKey(k+1)); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, k, err)
			}
			order = append(order, op)
			_ = docLenAt
		}
		if err := s.CheckInvariants(nOps, s.NumStates() <= 64); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.CheckPairwiseCompatibility(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Lemma 6.4 on every state.
		for _, st := range s.States() {
			path, err := s.LeftmostPath(st)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := opid.NewSet()
			for _, o := range order {
				if !st.Contains(o.ID) {
					want = want.Add(o.ID)
				}
			}
			if !PathOps(path).Equal(want) {
				t.Fatalf("trial %d: leftmost path from %s carries %s, want %s",
					trial, st, PathOps(path), want)
			}
		}
	}
}

func TestRenderAndDot(t *testing.T) {
	s := New(nil, WithDocs())
	o1 := ot.Ins('a', 0, id(1, 1))
	mustIntegrate(t, s, o1, set(), 1)

	r := s.Render()
	if !strings.Contains(r, "Ins(a,0)@c1:1") {
		t.Errorf("Render missing op: %q", r)
	}
	d := s.Dot()
	if !strings.Contains(d, "digraph statespace") || !strings.Contains(d, "Ins(a,0)@c1:1") {
		t.Errorf("Dot output malformed: %q", d)
	}
	if s.ByteSize() <= 0 {
		t.Error("ByteSize must be positive")
	}
}

// TestQueriesKeepNoKeys: the canonical-order queries compute state keys for
// the call only, so reading a space does not grow it.
func TestQueriesKeepNoKeys(t *testing.T) {
	s := New(nil)
	mustIntegrate(t, s, ot.Ins('a', 0, id(1, 1)), set(), 1)
	mustIntegrate(t, s, ot.Ins('b', 0, id(2, 1)), set(), 2)
	mustIntegrate(t, s, ot.Ins('c', 1, id(1, 2)), set(id(1, 1)), 3)
	before := s.ByteSize()
	_, _ = s.Render(), s.Fingerprint()
	_, _ = s.Dot(), s.States()
	if after := s.ByteSize(); after != before {
		t.Fatalf("ByteSize %d B before the queries, %d B after", before, after)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(nil)
	b.Edge(set(id(9, 9)), ot.Ins('a', 0, id(1, 1)), 1)
	if _, err := b.Build(); err == nil {
		t.Error("edge from unknown state must fail the build")
	}
}
