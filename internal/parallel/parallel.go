package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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

// StageTimer accumulates wall-clock time per named pipeline stage; the Table 7
// harness uses it to report relative per-stage cost.
type StageTimer struct {
	mu     sync.Mutex
	totals map[string]time.Duration
	order  []string
}

// NewStageTimer returns an empty timer.
func NewStageTimer() *StageTimer {
	return &StageTimer{totals: make(map[string]time.Duration)}
}

// Time runs fn and charges its duration to stage.
func (t *StageTimer) Time(stage string, fn func()) {
	start := time.Now()
	fn()
	t.Add(stage, time.Since(start))
}

// Add charges d to stage directly.
func (t *StageTimer) Add(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.totals[stage]; !ok {
		t.order = append(t.order, stage)
	}
	t.totals[stage] += d
}

// Total returns the accumulated duration for stage.
func (t *StageTimer) Total(stage string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[stage]
}

// Stages returns stage names in first-use order.
func (t *StageTimer) Stages() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// Sum returns the total time across all stages.
func (t *StageTimer) Sum() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s time.Duration
	for _, d := range t.totals {
		s += d
	}
	return s
}
