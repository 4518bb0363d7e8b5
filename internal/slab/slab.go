// Package slab hands out trial-scoped storage from chunks that are
// kept across Reset, so that a pooled trial reuses the previous
// trial's storage instead of allocating its own.
package slab

// Chunk lengths, in elements. A slab's chunks grow from minChunk to
// maxChunk by doubling: an owner that needs a few elements holds one
// tiny chunk (a 10k-node cluster has one slab per node table), and a
// busy one amortises to one allocation per maxChunk elements. The cap
// is small on purpose: every pooled cluster retains the chunks its
// busiest trial needed, so a large chunk multiplies into resident
// memory across a worker's clusters.
const (
	minChunk = 4
	maxChunk = 64
)

// Slab carves elements from chunks it owns. A chunk is never grown in
// place, so everything carved from it stays put until Reset. Reset
// zeroes what was carved since the mark and rewinds to the mark, so
// elements carved before the mark are never handed out again. The
// zero Slab is ready to use, with its mark at the start.
type Slab[T any] struct {
	chunks    [][]T
	cur, off  int // chunk being carved, next free element in it
	markChunk int // Reset rewinds to chunks[markChunk][markOff]
	markOff   int
}

// Take returns n zeroed elements. A request longer than maxChunk gets
// its own allocation.
func (s *Slab[T]) Take(n int) []T {
	if n > maxChunk {
		return make([]T, n)
	}
	for {
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, s.nextLen(n)))
		}
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
		s.cur++
		s.off = 0
	}
}

// nextLen is the length of the next new chunk: double the last one,
// within [minChunk, maxChunk], and at least n.
func (s *Slab[T]) nextLen(n int) int {
	size := minChunk
	if k := len(s.chunks); k > 0 {
		size = min(2*len(s.chunks[k-1]), maxChunk)
	}
	for size < n {
		size *= 2
	}
	return size
}

// Mark makes the current position the target of Reset: what was
// carved so far survives every later Reset.
func (s *Slab[T]) Mark() {
	s.markChunk, s.markOff = s.cur, s.off
}

// Reset zeroes the elements carved since the mark, so recycled
// elements pin no strings or slices, and rewinds to the mark.
func (s *Slab[T]) Reset() {
	for i := s.markChunk; i <= s.cur && i < len(s.chunks); i++ {
		c := s.chunks[i]
		lo, hi := 0, len(c)
		if i == s.markChunk {
			lo = s.markOff
		}
		if i == s.cur {
			hi = s.off
		}
		clear(c[lo:hi])
	}
	s.cur, s.off = s.markChunk, s.markOff
}
