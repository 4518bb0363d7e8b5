package sched

// The completion calendar indexes running jobs by the tick their
// duration elapses (Start + Duration), so the per-tick completion
// pass pops exactly the due jobs instead of walking the whole running
// set — and RunAll can read the next event time to fast-forward over
// ticks in which provably nothing happens.
//
// It is a binary min-heap ordered by (due, job ID): equal-due jobs
// pop in ID order, matching the old ID-sorted completion walk
// bit-for-bit. Jobs that leave Running early (cancel, OOM, node
// crash) are deleted lazily — entries whose job is no longer Running
// are discarded at pop/peek time, so finish never searches the heap.

// calEntry is one scheduled completion. It carries the job's ID, so
// heap comparisons never dereference the job.
type calEntry struct {
	due int64
	id  int
	job *Job
}

type calendar []calEntry

func (c calendar) less(i, j int) bool {
	if c[i].due != c[j].due {
		return c[i].due < c[j].due
	}
	return c[i].id < c[j].id
}

// push schedules a job that just entered Running.
func (c *calendar) push(due int64, j *Job) {
	*c = append(*c, calEntry{due: due, id: j.ID, job: j})
	h := *c
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum entry. Callers check len first.
func (c *calendar) pop() calEntry {
	h := *c
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = calEntry{} // release the *Job for GC
	h = h[:last]
	*c = h
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h.less(l, small) {
			small = l
		}
		if r < len(h) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// nextDue discards stale entries (jobs that already left Running) and
// returns the earliest scheduled completion tick, or ok=false when
// nothing is running.
func (c *calendar) nextDue() (int64, bool) {
	for len(*c) > 0 {
		if (*c)[0].job.State != Running {
			c.pop()
			continue
		}
		return (*c)[0].due, true
	}
	return 0, false
}

// popDue appends every job due at or before now to out (in (due, ID)
// order) and returns the extended slice, discarding stale entries.
func (c *calendar) popDue(now int64, out []*Job) []*Job {
	for len(*c) > 0 {
		top := (*c)[0]
		if top.job.State != Running {
			c.pop()
			continue
		}
		if top.due > now {
			break
		}
		c.pop()
		out = append(out, top.job)
	}
	return out
}
