package core

import "sync/atomic"

// This file implements the chunked, copy-on-write storage every per-id array
// of a published Result lives in: the per-unit parameters (A, P, R, Q and the
// expected-triple sums) over dense source and extractor ids, and the
// posteriors (p(C|X), coverage, rest mass, and the value rows of publish.go's
// rowVec) over dense triple and item ids. Deep-copying them into every
// generation would cost O(corpus) per refresh however little a pass
// re-estimated; instead every array is cut into fixed unitChunk-sized chunks
// that successive generations share, and dirty marks decide which chunks a
// publication must actually copy.
//
// The working arrays stay flat — the kernels index them densely — and every
// writer marks the chunks it wrote. The parameter writers (the set* helpers)
// compare before storing, so only a value that actually changed marks its
// chunk: an M-step re-deriving a source's accuracy from unchanged sufficient
// statistics lands on the same bits, so untouched regions of the unit
// space stay clean across arbitrarily many refreshes. The posterior writers
// (EM.EStepTriples, EM.EStepItems, Bootstrap, extendState's coverage writes,
// rebuildCoverage) mark every chunk their index list reaches. BuildResultFrom
// then shares every clean, length-stable chunk with the previous generation by
// pointer and clears the marks, making the new generation the baseline.
//
// Parameter marks are chunk-granular uint32s written with atomic stores: the
// M-steps derive different units concurrently, and two units of one chunk may
// mark it from different goroutines. Posterior marks are written after the
// E-step's workers join. Readers (publication, mark clearing) run after the
// worker pools have joined, so plain reads are ordered.

// unitChunk is the number of ids per published chunk. Large enough that chunk
// headers are negligible against the flat arrays, small enough that one
// drifted unit's or one re-estimated item's copy cost stays far below
// O(corpus).
const unitChunk = 512

// unitVec is an immutable chunked vector over dense ids — the published form
// of a per-unit parameter or a per-triple / per-item posterior. Chunks may be
// shared with other generations; nothing may write through them.
type unitVec[T float64 | bool] struct {
	n      int
	chunks [][]T
}

// Len returns the number of ids.
func (v unitVec[T]) Len() int { return v.n }

// At returns id i's value.
func (v unitVec[T]) At(i int) T {
	return v.chunks[i/unitChunk][i%unitChunk]
}

// numUnitChunks returns the chunk count covering n ids.
func numUnitChunks(n int) int { return (n + unitChunk - 1) / unitChunk }

// chunkSpan returns the id range [lo, hi) of chunk ci of an n-id vector.
func chunkSpan(ci, n int) (lo, hi int) {
	lo = ci * unitChunk
	return lo, min(lo+unitChunk, n)
}

// sliceVec wraps vals in chunk form without copying. The caller hands over
// ownership: vals must never be written again (the batch Run path, whose
// state dies with the call).
func sliceVec[T float64 | bool](vals []T) unitVec[T] {
	v := unitVec[T]{n: len(vals), chunks: make([][]T, numUnitChunks(len(vals)))}
	for ci := range v.chunks {
		lo, hi := chunkSpan(ci, len(vals))
		v.chunks[ci] = vals[lo:hi:hi]
	}
	return v
}

// copyVec deep-copies vals into chunk form — the snapshot path (BuildResult),
// where the caller keeps mutating its arrays.
func copyVec[T float64 | bool](vals []T) unitVec[T] {
	return sliceVec(append([]T(nil), vals...))
}

// clean reports whether chunk ci, spanning size ids, may be shared with a
// previous generation whose chunk ci spans prevSize ids (0 when it has none):
// no write marked it since that generation was published, and it did not
// grow. Growth needs no marking discipline — a grown boundary chunk fails the
// length test and a wholly new chunk has no counterpart, so both copy.
func clean(dirty []uint32, ci, prevSize, size int) bool {
	return prevSize == size && ci < len(dirty) && dirty[ci] == 0
}

// buildUnitVec assembles a publication's vector copy-on-write against prev:
// a clean chunk is shared by pointer, everything else is copied from the
// working slice.
func buildUnitVec[T float64 | bool](prev unitVec[T], work []T, dirty []uint32) unitVec[T] {
	n := len(work)
	v := unitVec[T]{n: n, chunks: make([][]T, numUnitChunks(n))}
	for ci := range v.chunks {
		lo, hi := chunkSpan(ci, n)
		if ci < len(prev.chunks) && clean(dirty, ci, len(prev.chunks[ci]), hi-lo) {
			v.chunks[ci] = prev.chunks[ci]
			continue
		}
		v.chunks[ci] = append([]T(nil), work[lo:hi]...)
	}
	return v
}

// markUnit records that unit i's value changed since the last publication.
// The load-before-store keeps an already-dirty chunk's cache line clean under
// repeated marking from the derive loops.
func markUnit(dirty []uint32, i int) {
	ci := i / unitChunk
	if atomic.LoadUint32(&dirty[ci]) == 0 {
		atomic.StoreUint32(&dirty[ci], 1)
	}
}

// markIndices records a serial write pass over idx — every chunk when idx is
// nil, the kernels' "every index" list.
func markIndices(dirty []uint32, idx []int) {
	if idx == nil {
		for ci := range dirty {
			dirty[ci] = 1
		}
		return
	}
	for _, i := range idx {
		dirty[i/unitChunk] = 1
	}
}

// newMarks returns the marks of an n-id array with no publication baseline:
// every chunk dirty.
func newMarks(n int) []uint32 {
	dirty := make([]uint32, numUnitChunks(n))
	markIndices(dirty, nil)
	return dirty
}

// inheritMarks seeds dst's dirty marks after CarryParamsFrom copied a prevN
// prefix of values into an n-unit table: a chunk wholly inside the copied
// prefix is exactly as dirty as the donor's (the values are bit-equal, so the
// donor's relation to its last publication transfers), everything else —
// boundary growth, new units — is dirty.
func inheritMarks(dst, src []uint32, prevN, n int) {
	for ci := range dst {
		if end := min((ci+1)*unitChunk, n); end <= prevN && ci < len(src) {
			dst[ci] = src[ci]
		} else {
			dst[ci] = 1
		}
	}
}
