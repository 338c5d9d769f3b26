package ot

import (
	"fmt"
	"testing"

	"jupiter/internal/list"
	"jupiter/internal/opid"
)

// Small-scope checking of the transformation function: every case on every
// document of at most smallScope elements, after Boucheneb & Imine's
// exhaustive treatment of list OT.
const smallScope = 4

// smallOps lists every operation client c can generate on d: an insert at
// each of the len(d)+1 positions, then a delete at each of the len(d).
func smallOps(d *list.Document, c opid.ClientID) []Op {
	id := opid.OpID{Client: c, Seq: 1}
	var out []Op
	for p := 0; p <= d.Len(); p++ {
		out = append(out, Ins(rune('0'+c), p, id))
	}
	for p := 0; p < d.Len(); p++ {
		e, _ := d.Get(p)
		out = append(out, Del(e, p, id))
	}
	return out
}

// smallDocs returns the documents of 0 … smallScope elements.
func smallDocs() []*list.Document {
	out := make([]*list.Document, 0, smallScope+1)
	for n := 0; n <= smallScope; n++ {
		out = append(out, mkDoc(n))
	}
	return out
}

// TestCP1Exhaustive: CP1 (Definition 4.4) holds for every pair of
// concurrent operations of two clients on every document of at most four
// elements — Σ (2n+1)² = 165 cases.
func TestCP1Exhaustive(t *testing.T) {
	cases := 0
	for _, d := range smallDocs() {
		for _, o1 := range smallOps(d, 1) {
			for _, o2 := range smallOps(d, 2) {
				cases++
				if err := CheckCP1(d, o1, o2); err != nil {
					t.Errorf("on %q: %v", d.String(), err)
				}
			}
		}
	}
	if cases != 165 {
		t.Fatalf("%d cases, want 165", cases)
	}
}

// cp2Case is one three-client case whose two transformation orders differ.
type cp2Case struct {
	doc        string
	o1, o2, o3 Op
}

func (c cp2Case) String() string {
	return fmt.Sprintf("%q: c1 %s, c2 %s, c3 %s", c.doc, c.o1, c.o2, c.o3)
}

// cp2Failures lists the cases where CP2 fails: transforming o3 past o1 and
// then o2{o1} differs from transforming it past o2 and then o1{o2}.
func cp2Failures() (fails []cp2Case, cases int) {
	for _, d := range smallDocs() {
		for _, o1 := range smallOps(d, 1) {
			for _, o2 := range smallOps(d, 2) {
				for _, o3 := range smallOps(d, 3) {
					cases++
					a := Transform(Transform(o3, o1), Transform(o2, o1))
					b := Transform(Transform(o3, o2), Transform(o1, o2))
					if a != b {
						fails = append(fails, cp2Case{d.String(), o1, o2, o3})
					}
				}
			}
		}
	}
	return fails, cases
}

// TestCP2Table pins where the transformation function breaks CP2 on
// documents of at most four elements: 20 of the Σ (2n+1)³ = 1 225
// three-client cases, the first the classic insert/delete/insert one. This
// records a fact, not a defect: Jupiter's central server fixes one
// transformation order, so it needs CP1 only.
func TestCP2Table(t *testing.T) {
	fails, cases := cp2Failures()
	if cases != 1225 {
		t.Fatalf("%d cases, want 1225", cases)
	}
	if len(fails) != 20 {
		for _, f := range fails {
			t.Log(f)
		}
		t.Fatalf("CP2 fails in %d cases, want 20", len(fails))
	}
	a, _ := mkDoc(1).Get(0)
	first := cp2Case{
		doc: "a",
		o1:  Ins('1', 0, opid.OpID{Client: 1, Seq: 1}),
		o2:  Del(a, 0, opid.OpID{Client: 2, Seq: 1}),
		o3:  Ins('3', 1, opid.OpID{Client: 3, Seq: 1}),
	}
	if fails[0] != first {
		t.Errorf("first CP2 failure is %s, want %s", fails[0], first)
	}
}
