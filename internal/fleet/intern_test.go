package fleet

import (
	"fmt"
	"sync"
	"testing"
)

// Readers racing the pool's growth each get the name they asked for,
// and a sweep grows the pool by doubling: a pool that grew only to the
// requested index would publish one slice per name, and copying them
// would cost quadratic time.
func TestUserNameConcurrent(t *testing.T) {
	const workers, n = 8, 1 << 13
	var fresh namePool
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				want := fmt.Sprintf("u%d", i)
				if got := fresh.get(i); got != want {
					t.Errorf("get(%d) = %q, want %q", i, got, want)
				}
				if got := UserName(i); got != want {
					t.Errorf("UserName(%d) = %q, want %q", i, got, want)
				}
			}
		}()
	}
	wg.Wait()

	var sweep namePool
	published := 0
	var last *[]string
	for i := 0; i <= 1<<16; i++ {
		sweep.get(i)
		if cur := sweep.names.Load(); cur != last {
			published++
			last = cur
		}
	}
	if published > 20 {
		t.Errorf("a sweep of 0..2^16 published %d slices, want at most 20", published)
	}
}
