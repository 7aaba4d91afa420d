package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		n := 1000
		hits := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	called := false
	ForEach(0, 4, func(i int) { called = true })
	ForEach(-3, 4, func(i int) { called = true })
	if called {
		t.Error("ForEach must not call fn for n<=0")
	}
	count := 0
	ForEach(1, 16, func(i int) { count++ })
	if count != 1 {
		t.Errorf("n=1 count = %d", count)
	}
}

func TestForEachPropertyCoverage(t *testing.T) {
	f := func(n uint8, workers uint8) bool {
		nn := int(n%200) + 1
		var total int64
		ForEach(nn, int(workers%8), func(i int) { atomic.AddInt64(&total, int64(i)) })
		return total == int64(nn*(nn-1)/2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers must be >= 1")
	}
}
