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
//
// An owner whose elements hold storage worth keeping (a map, a
// buffer) rewinds with Rewind instead of Reset: the elements keep
// what the last trial left in them, and the owner overwrites every
// field but the kept storage when Take hands one out again. A slab is
// rewound one way or the other, never both.
type Slab[T any] struct {
	chunks [][]T
	// The positions are int32, so a slab embedded in each of a 10k-node
	// cluster's process tables stays 48 bytes.
	cur, off  int32 // chunk being carved, next free element in it
	markChunk int32 // Reset rewinds to chunks[markChunk][markOff]
	markOff   int32
	rewound   bool // Reset or Rewind ran at least once
}

// Take returns n elements: zeroed, unless Rewind handed them back as
// the last trial left them. A request longer than maxChunk gets its
// own allocation.
func (s *Slab[T]) Take(n int) []T {
	if n > maxChunk {
		return make([]T, n)
	}
	for {
		if int(s.cur) == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, s.nextLen(n)))
		}
		if c, off := s.chunks[s.cur], int(s.off); off+n <= len(c) {
			s.off += int32(n)
			return c[off : off+n : off+n]
		}
		s.cur++
		s.off = 0
	}
}

// Alloc is Take for an owner that may never be reset: until the slab
// is first reset or rewound it returns a fresh heap allocation, which
// the collector reclaims once the owner drops it, and from then on it
// carves from the slab. Storage carved from a slab lives until the
// slab rewinds, so an owner driven operation after operation without
// a Reset (a benchmark loop, an interactive session) would otherwise
// keep everything it ever created; a pooled owner, reset between
// trials, recycles from its second trial on.
func (s *Slab[T]) Alloc(n int) []T {
	if !s.rewound {
		return make([]T, n)
	}
	return s.Take(n)
}

// Clone returns a copy of src carved with Alloc, or nil when src is
// empty.
func (s *Slab[T]) Clone(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	c := s.Alloc(len(src))
	copy(c, src)
	return c
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
	for i := s.markChunk; i <= s.cur && int(i) < len(s.chunks); i++ {
		c := s.chunks[i]
		lo, hi := 0, len(c)
		if i == s.markChunk {
			lo = int(s.markOff)
		}
		if i == s.cur {
			hi = int(s.off)
		}
		clear(c[lo:hi])
	}
	s.cur, s.off = s.markChunk, s.markOff
	s.rewound = true
}

// Rewind rewinds to the mark without zeroing: the elements carved
// since the mark are handed out again as they are, with whatever
// storage they hold. It is O(1).
func (s *Slab[T]) Rewind() {
	s.cur, s.off = s.markChunk, s.markOff
	s.rewound = true
}
