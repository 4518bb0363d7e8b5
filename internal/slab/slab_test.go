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
