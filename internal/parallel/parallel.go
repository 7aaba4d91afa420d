package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes 0.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach invokes fn(i) for every i in [0,n) using the given number of
// workers (0 means DefaultWorkers). fn must only write to state owned by
// index i. ForEach returns once all invocations complete.
//
// Work is claimed dynamically in small batches rather than pre-chunked, so
// skewed per-index costs (one giant source or extractor unit among many
// small ones — exactly the situation §4's splitting addresses) do not leave
// a straggler worker holding all the heavy indices.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	batch := n / (workers * 8)
	if batch < 1 {
		batch = 1
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(batch))) - batch
				if lo >= n {
					return
				}
				hi := lo + batch
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
