package slab

import (
	"slices"
	"testing"
)

// chunkLens lists the lengths of the chunks s owns.
func chunkLens[T any](s *Slab[T]) []int {
	var out []int
	for _, c := range s.chunks {
		out = append(out, len(c))
	}
	return out
}

// TestTakeGrowsChunks checks that chunks double from 4 to 64 and stay
// there, and that every element is handed out once, zeroed and clipped.
func TestTakeGrowsChunks(t *testing.T) {
	var s Slab[int]
	seen := make(map[*int]bool)
	for i := 0; i < 4+8+16+32+64+64; i++ {
		e := s.Take(1)
		if len(e) != 1 || cap(e) != 1 || e[0] != 0 {
			t.Fatalf("take %d = len %d cap %d value %d, want one clipped zero", i, len(e), cap(e), e[0])
		}
		if seen[&e[0]] {
			t.Fatalf("take %d handed out an element twice", i)
		}
		seen[&e[0]] = true
		e[0] = i + 1
	}
	if got, want := chunkLens(&s), []int{4, 8, 16, 32, 64, 64}; !slices.Equal(got, want) {
		t.Errorf("chunk lengths = %v, want %v", got, want)
	}
}

// TestTakeLongRequests checks that a request longer than the next
// chunk gets a chunk that fits it, and one longer than 64 elements its
// own allocation outside the slab.
func TestTakeLongRequests(t *testing.T) {
	var s Slab[int]
	if e := s.Take(10); len(e) != 10 {
		t.Fatalf("Take(10) returned %d elements", len(e))
	}
	s.Take(3)
	if e := s.Take(65); len(e) != 65 {
		t.Fatalf("Take(65) returned %d elements", len(e))
	}
	if got, want := chunkLens(&s), []int{16}; !slices.Equal(got, want) {
		t.Errorf("chunk lengths = %v, want %v", got, want)
	}
	s.Take(4) // 13 of 16 used: the next chunk doubles
	if got, want := chunkLens(&s), []int{16, 32}; !slices.Equal(got, want) {
		t.Errorf("chunk lengths = %v, want %v", got, want)
	}
}

// TestResetRewindsToMark checks that Reset keeps everything carved
// before the mark, zeroes everything after it, and hands the same
// storage out again in the same order.
func TestResetRewindsToMark(t *testing.T) {
	var s Slab[*int]
	x := new(int)
	var kept []**int
	for i := 0; i < 6; i++ { // the mark lands inside the second chunk
		e := &s.Take(1)[0]
		*e = x
		kept = append(kept, e)
	}
	s.Mark()
	var first []**int
	for i := 0; i < 40; i++ {
		e := &s.Take(1)[0]
		*e = x
		first = append(first, e)
	}
	s.Reset()
	for i, e := range first {
		if *e != nil {
			t.Fatalf("element %d past the mark still pins its pointer after Reset", i)
		}
	}
	for i, e := range kept {
		if *e != x {
			t.Fatalf("element %d below the mark changed", i)
		}
	}
	for i := range first {
		if e := &s.Take(1)[0]; e != first[i] {
			t.Fatalf("take %d after Reset got new storage, want the first trial's", i)
		}
	}
}

// TestResetWithoutMarkRewindsAll checks the zero mark: Reset returns
// every element and a replay allocates nothing.
func TestResetWithoutMarkRewindsAll(t *testing.T) {
	var s Slab[string]
	trial := func() {
		for i := 0; i < 200; i++ {
			s.Take(1 + i%3)[0] = "x"
		}
		s.Reset()
	}
	trial()
	if n := testing.AllocsPerRun(10, trial); n != 0 {
		t.Errorf("replayed trial allocates %v objects, want 0", n)
	}
	if e := s.Take(1); &e[0] != &s.chunks[0][0] || e[0] != "" {
		t.Error("Reset without a mark did not rewind to the first, zeroed element")
	}
}

// TestRewindKeepsElements checks that Rewind hands the elements carved
// since the mark out again in the same order and as they were left,
// keeps the ones before the mark, and that a replay allocates nothing.
func TestRewindKeepsElements(t *testing.T) {
	var s Slab[[]byte]
	s.Take(3)
	s.Mark()
	var first [][]byte
	for i := 0; i < 40; i++ {
		e := &s.Take(1)[0]
		*e = append(*e, byte(i))
		first = append(first, *e)
	}
	s.Rewind()
	for i := range first {
		e := &s.Take(1)[0]
		if len(*e) != 1 || (*e)[0] != byte(i) || &(*e)[0] != &first[i][0] {
			t.Fatalf("take %d after Rewind = %v, want the first trial's element %d as left", i, *e, i)
		}
	}
	trial := func() {
		for i := 0; i < 40; i++ {
			e := &s.Take(1)[0]
			*e = append((*e)[:0], byte(i))
		}
		s.Rewind()
	}
	s.Rewind()
	if n := testing.AllocsPerRun(10, trial); n != 0 {
		t.Errorf("replayed trial allocates %v objects, want 0", n)
	}
	if e := s.Take(1); &e[0] != &s.chunks[0][3] {
		t.Error("Rewind did not return to the mark")
	}
}

// TestAllocHeapUntilRewound checks that Alloc hands out heap storage
// until the slab's first Reset or Rewind, and slab storage after.
func TestAllocHeapUntilRewound(t *testing.T) {
	for _, rewind := range []func(*Slab[int]){(*Slab[int]).Reset, (*Slab[int]).Rewind} {
		var s Slab[int]
		e := s.Alloc(2)
		if len(e) != 2 || len(s.chunks) != 0 {
			t.Fatalf("Alloc before a rewind = len %d with %d chunks, want 2 heap elements", len(e), len(s.chunks))
		}
		rewind(&s)
		if e := s.Alloc(2); len(s.chunks) != 1 || &e[0] != &s.chunks[0][0] {
			t.Fatal("Alloc after a rewind did not carve from the slab")
		}
	}
}

// TestClone checks that Clone copies into the slab and keeps an empty
// source nil.
func TestClone(t *testing.T) {
	var s Slab[int]
	s.Reset()
	src := []int{1, 2, 3}
	c := s.Clone(src)
	if !slices.Equal(c, src) || &c[0] != &s.chunks[0][0] {
		t.Errorf("Clone = %v, want a slab copy of %v", c, src)
	}
	if c := s.Clone(nil); c != nil {
		t.Errorf("Clone(nil) = %v, want nil", c)
	}
}
