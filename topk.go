package kbt

import "sort"

// topK keeps the k best elements of a stream under a strict-weak "better
// than" ordering, as a size-bounded binary min-heap whose root is the worst
// retained element — the partial-selection core behind TopSources and
// TopTriples. Offering n elements costs O(n log k) worst case (O(n) once
// the heap is saturated and most elements lose to the root).
type topK[T any] struct {
	k      int
	better func(a, b T) bool
	heap   []T // min-heap: heap[0] is the worst retained element
}

// newTopK reserves room for at most topKReserve elements: the heap grows
// past that by append, so a large k costs what the stream holds, not k.
func newTopK[T any](k int, better func(a, b T) bool) *topK[T] {
	return &topK[T]{k: k, better: better, heap: make([]T, 0, min(k, topKReserve))}
}

const topKReserve = 1024

// offer considers one element for the retained set.
func (t *topK[T]) offer(x T) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, x)
		// Sift up: the new leaf rises while it is worse than its parent.
		i := len(t.heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !t.better(t.heap[p], t.heap[i]) {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		return
	}
	if !t.better(x, t.heap[0]) {
		return // loses to the current worst: not in the top k
	}
	// Replace the root and sift down towards the worse child.
	t.heap[0] = x
	i := 0
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(t.heap) && t.better(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r < len(t.heap) && t.better(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// sorted returns the retained elements best-first, consuming the heap.
func (t *topK[T]) sorted() []T {
	out := t.heap
	t.heap = nil
	sort.Slice(out, func(i, j int) bool { return t.better(out[i], out[j]) })
	return out
}
