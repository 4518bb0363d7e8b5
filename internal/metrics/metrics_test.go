package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("E1 process visibility", "observer", "hidepid", "visible")
	tb.AddRow("alice", 2, 20)
	tb.AddRow("support", 2, 60)
	tb.AddNote("exempt gid = %d", 500)
	out := tb.Render()
	for _, want := range []string{"E1 process visibility", "observer", "alice", "support", "note: exempt gid = 500"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if len(tb.Rows()) != 2 {
		t.Errorf("rows = %d", len(tb.Rows()))
	}
	// Rows returns copies.
	tb.Rows()[0][0] = "tampered"
	if tb.Rows()[0][0] != "alice" {
		t.Errorf("Rows leaked internal state")
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("t", "v")
	tb.AddRow(0.123456)
	if got := tb.Rows()[0][0]; got != "0.123" {
		t.Errorf("float cell = %q", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Errorf("different seeds collided on first draw")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Errorf("Intn(<=0) != 0")
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	parent := NewRNG(99)
	c1 := NewRNG(parent.Uint64())
	c2 := NewRNG(parent.Uint64())
	if c1.Uint64() == c2.Uint64() {
		t.Errorf("split children correlated")
	}
}
