package sched

// slabChunk is the slab chunk length, in elements. Small on purpose:
// every pooled cluster retains the chunks its busiest trial needed, so
// a large chunk multiplies into resident memory across a worker's
// clusters.
const slabChunk = 64

// slab hands out trial-scoped storage for jobs and their placements
// from fixed-size chunks that the scheduler keeps across Reset. A
// chunk is never grown in place, so everything carved from it stays
// put until the next reset. The job table already holds every job
// until Reset, so a slab keeps alive nothing that was not live anyway.
type slab[T any] struct {
	chunks [][]T
	cur    int // chunk being carved
	off    int // next free element in chunks[cur]
}

// take returns n zeroed elements. A request larger than a chunk gets
// its own allocation.
func (sl *slab[T]) take(n int) []T {
	if n > slabChunk {
		return make([]T, n)
	}
	if sl.off+n > slabChunk {
		sl.cur++
		sl.off = 0
	}
	if sl.cur == len(sl.chunks) {
		sl.chunks = append(sl.chunks, make([]T, slabChunk))
	}
	out := sl.chunks[sl.cur][sl.off : sl.off+n : sl.off+n]
	sl.off += n
	return out
}

// reset zeroes the chunks handed out since the last reset, so recycled
// elements pin no strings or slices, and rewinds to the first chunk.
func (sl *slab[T]) reset() {
	for i := 0; i <= sl.cur && i < len(sl.chunks); i++ {
		clear(sl.chunks[i])
	}
	sl.cur, sl.off = 0, 0
}
