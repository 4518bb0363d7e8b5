package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// namePool interns the "u<N>" account names every campaign-shaped
// workload provisions. A 1M-user scenario used to materialize a fresh
// million-string slice per compiled scenario (and again per
// ProvisionMix call); the pool formats each name once, process-wide,
// and every trial replication reuses the same string — names are
// derived purely from the index, so sharing them cannot perturb any
// output byte.
//
// Reads take no lock: names points at an immutable slice, and a read
// is one atomic load and an index. A miss grows the pool under mu by
// copying into a new slice of at least double the length, formatted to
// its full length, and publishing it; so a sweep over n names publishes
// O(log n) slices and formats each name once. Slices already handed to
// readers are never written again.
type namePool struct {
	mu    sync.Mutex
	names atomic.Pointer[[]string]
}

// userNames is the process-wide pool behind UserName.
var userNames namePool

// UserName returns the interned "u<i>" account name, formatting and
// caching it on first use. Grow-only: the pool survives across trials
// and campaigns by design. Safe for concurrent use; a cached name costs
// no lock.
func UserName(i int) string { return userNames.get(i) }

func (p *namePool) get(i int) string {
	if names := p.names.Load(); names != nil && i < len(*names) {
		return (*names)[i]
	}
	return p.grow(i)
}

// grow publishes a pool that holds name i, unless another caller
// already has.
func (p *namePool) grow(i int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var old []string
	if names := p.names.Load(); names != nil {
		old = *names
	}
	if i < len(old) {
		return old[i]
	}
	grown := make([]string, max(2*len(old), i+1))
	copy(grown, old)
	for k := len(old); k < len(grown); k++ {
		grown[k] = fmt.Sprintf("u%d", k)
	}
	p.names.Store(&grown)
	return grown[i]
}
