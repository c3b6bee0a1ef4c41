package trace

import (
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

func testSetup(t *testing.T) (*Generator, *prog.ProcessSpec, *prog.Array) {
	t.Helper()
	a := prog.MustArray("A", 4, 1000)
	b := prog.MustArray("B", 4, 1000)
	iter := prog.Seg("i", 0, 10)
	spec := prog.MustProcessSpec("p", iter, 3,
		prog.StreamRef(a, prog.Read, iter, 1, 0),
		prog.StreamRef(b, prog.Write, iter, 2, 5),
	)
	am := layout.MustPack(32, a, b)
	return NewGenerator(am), spec, a
}

func TestCursorStream(t *testing.T) {
	g, spec, a := testSetup(t)
	c, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatalf("NewRLECursor: %v", err)
	}
	if c.Total() != 20 {
		t.Errorf("Total = %d, want 20", c.Total())
	}
	am := g.AddressMap()
	var got []Access
	for {
		acc, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, acc)
	}
	if len(got) != 20 {
		t.Fatalf("stream length = %d, want 20", len(got))
	}
	// Iteration i: read A[i], write B[2i+5].
	for i := 0; i < 10; i++ {
		rd := got[2*i]
		wr := got[2*i+1]
		if !rd.NewIter {
			t.Errorf("access %d should start an iteration", 2*i)
		}
		if wr.NewIter {
			t.Errorf("access %d should not start an iteration", 2*i+1)
		}
		if rd.Write {
			t.Errorf("access %d should be a read", 2*i)
		}
		if !wr.Write {
			t.Errorf("access %d should be a write", 2*i+1)
		}
		if want := am.Addr(a, int64(i)); rd.Addr != want {
			t.Errorf("read %d addr = %d, want %d", i, rd.Addr, want)
		}
	}
	if !c.Done() || c.Remaining() != 0 {
		t.Error("cursor should be exhausted")
	}
	if _, ok := c.Next(); ok {
		t.Error("Next after exhaustion should report !ok")
	}
}

func TestCursorResume(t *testing.T) {
	g, spec, _ := testSetup(t)
	full, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want []Access
	for {
		acc, ok := full.Next()
		if !ok {
			break
		}
		want = append(want, acc)
	}

	// Same stream read in chunks of 3 (simulating preemption).
	c, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []Access
	for !c.Done() {
		for k := 0; k < 3 && !c.Done(); k++ {
			acc, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, acc)
		}
		// Preemption point: remaining count must stay consistent.
		if c.Remaining() != int64(len(want)-len(got)) {
			t.Fatalf("Remaining = %d, want %d", c.Remaining(), len(want)-len(got))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("chunked stream length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCursorReset(t *testing.T) {
	g, spec, _ := testSetup(t)
	c, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := c.Next()
	for !c.Done() {
		c.Next()
	}
	c.Reset()
	again, ok := c.Next()
	if !ok || again != first {
		t.Errorf("after Reset first access = %+v, want %+v", again, first)
	}
}

// TestGeneratorCursorsIndependent: two cursors over one spec each walk
// the stream from its start; advancing one leaves the other in place.
func TestGeneratorCursorsIndependent(t *testing.T) {
	g, spec, _ := testSetup(t)
	c1, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := g.NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	c1.Next()
	if seg, iter, ref := c2.Pos(); seg != 0 || iter != 0 || ref != 0 {
		t.Error("cursors must be independent")
	}
}

func TestCursorRespectsRelayout(t *testing.T) {
	// A cursor over a re-laid-out address map must see transformed
	// addresses.
	a := prog.MustArray("A", 4, 2048)
	iter := prog.Seg("i", 0, 5)
	spec := prog.MustProcessSpec("p", iter, 0, prog.StreamRef(a, prog.Read, iter, 1, 0))
	base := layout.MustPack(32, a)
	geom := testGeomFor()
	rl, err := layout.ApplyRelayout(base, geom, map[*prog.Array]int64{a: geom.PageSize() / 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewGenerator(rl).NewRLECursor(spec)
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := c.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	if acc.Addr != rl.Addr(a, 0) {
		t.Errorf("addr = %d, want %d", acc.Addr, rl.Addr(a, 0))
	}
	if acc.Addr == base.Addr(a, 0) {
		t.Error("re-laid-out address should differ from the packed address")
	}
}
