package sched

import "slices"

// The completion calendar indexes running jobs by the tick their
// duration elapses (Start + Duration), so the per-tick completion
// pass visits exactly the due tick's bucket instead of the whole
// running set, and RunAll can read the next event time to
// fast-forward over ticks in which provably nothing happens.
//
// It is a hashed timing wheel (Varghese & Lauck, SOSP 1987): a job
// due at tick d waits in bucket d & wheelMask, an intrusive
// doubly-linked list through the job's calPrev/calNext, so the wheel
// never allocates. A job due a lap or more ahead stays in its bucket
// and is passed over until its lap comes round. finish unlinks every
// job that leaves Running, whatever the reason, so the wheel holds
// exactly the running set and live counts it.

const (
	wheelSize = 64
	wheelMask = wheelSize - 1
)

type calendar struct {
	heads [wheelSize]*Job
	live  int
}

// due is the tick whose Step finishes a running job.
func due(j *Job) int64 { return j.Start + j.Spec.Duration }

// push links a job that just entered Running into its bucket.
func (c *calendar) push(j *Job) {
	b := &c.heads[due(j)&wheelMask]
	j.calPrev, j.calNext = nil, *b
	if *b != nil {
		(*b).calPrev = j
	}
	*b = j
	c.live++
}

// remove unlinks a running job.
func (c *calendar) remove(j *Job) {
	if j.calPrev != nil {
		j.calPrev.calNext = j.calNext
	} else {
		c.heads[due(j)&wheelMask] = j.calNext
	}
	if j.calNext != nil {
		j.calNext.calPrev = j.calPrev
	}
	j.calPrev, j.calNext = nil, nil
	c.live--
}

// popDue appends the jobs due at now to out, in ID order, and returns
// the extended slice. It leaves them linked: finish unlinks each.
// Every due tick runs as a real Step (fastForward stops short of
// the next due tick), so no job due before now is left.
//
// A bucket lists the latest start first, and starts go roughly in ID
// order, so the handful of due jobs is reversed and then sorted by
// insertion, which is near linear on that input.
func (c *calendar) popDue(now int64, out []*Job) []*Job {
	start := len(out)
	for j := c.heads[now&wheelMask]; j != nil; j = j.calNext {
		if due(j) == now {
			out = append(out, j)
		}
	}
	ready := out[start:]
	slices.Reverse(ready)
	for i := 1; i < len(ready); i++ {
		for k := i; k > 0 && ready[k].ID < ready[k-1].ID; k-- {
			ready[k], ready[k-1] = ready[k-1], ready[k]
		}
	}
	return out
}

// nextDue returns the earliest completion tick after now, or ok=false
// when nothing is running. It scans the lap ahead bucket by bucket and
// walks every list only when that lap holds nothing but later laps.
func (c *calendar) nextDue(now int64) (int64, bool) {
	if c.live == 0 {
		return 0, false
	}
	for t := now + 1; t <= now+wheelSize; t++ {
		for j := c.heads[t&wheelMask]; j != nil; j = j.calNext {
			if due(j) == t {
				return t, true
			}
		}
	}
	next := int64(-1)
	for _, j := range c.heads {
		for ; j != nil; j = j.calNext {
			if d := due(j); next < 0 || d < next {
				next = d
			}
		}
	}
	return next, true
}
