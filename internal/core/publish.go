package core

import (
	"kbt/internal/parallel"
	"kbt/internal/stats"
	"kbt/internal/triple"
)

// This file implements zero-copy result publication: immutable result
// generations whose per-id arrays live in unitChunk-sized chunks over dense
// ids (params.go) that successive generations share.
//
// EM.BuildResult deep-copies every array — O(corpus) per refresh, no matter
// how small the ingest. BuildResultFrom instead copy-on-writes: a chunk is
// copied when a pass wrote it or it grew; the rest is shared with the
// previous generation by pointer. Ids never shift and the arrays only
// append, so a chunk index means the same ids in every generation of a
// snapshot chain, and random access is one division. Publication therefore
// costs O(written chunks) instead of O(corpus), and an arbitrary number of
// generations can be alive at once: a reader holding an old Result keeps a
// fully consistent view while the engine publishes new ones.
//
// Correctness rests on one invariant: between two publications, the working
// arrays change only where the EM marked a write (EStepTriples and
// EStepItems over their index lists, Bootstrap, and the coverage writes of
// an extension), or at their grown tail. The engine keeps its side of it by
// re-estimating every item that gained a candidate value, whose row its
// extension remapped.

// rowChunk is the published form of unitChunk items' value-posterior rows:
// one flat backing plus int32 row boundaries rather than a slice of row
// headers. Pointer-free backings cost the garbage collector nothing to scan,
// which matters when hundreds of generations churn through a serving
// process.
type rowChunk struct {
	vals []float64 // the chunk's rows, concatenated
	off  []int32   // item lo+k's row is vals[off[k]:off[k+1]]
}

// rowVec is the chunked value-posterior table of a generation.
type rowVec []rowChunk

// row returns item d's value-posterior row, capacity-capped so appenders
// cannot touch the neighbouring row.
func (v rowVec) row(d int) []float64 {
	ck := &v[d/unitChunk]
	k := d % unitChunk
	lo, hi := ck.off[k], ck.off[k+1]
	return ck.vals[lo:hi:hi]
}

// packRows copies rows into one chunk.
func packRows(rows [][]float64) rowChunk {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	ck := rowChunk{vals: make([]float64, 0, total), off: make([]int32, len(rows)+1)}
	for k, r := range rows {
		ck.vals = append(ck.vals, r...)
		ck.off[k+1] = int32(len(ck.vals))
	}
	return ck
}

// newRows allocates every item's value row in chunk form, each row as long
// as the item's candidate-value list. estimateVSubset then fills the rows in
// place, so the batch Run path publishes them without a copy.
func newRows(s *triple.Snapshot) (rowVec, [][]float64) {
	n := len(s.Items)
	rows := make([][]float64, n)
	v := make(rowVec, numUnitChunks(n))
	for ci := range v {
		lo, hi := chunkSpan(ci, n)
		total := 0
		for _, vs := range s.ItemValues[lo:hi] {
			total += len(vs)
		}
		ck := rowChunk{vals: make([]float64, total), off: make([]int32, hi-lo+1)}
		for k, vs := range s.ItemValues[lo:hi] {
			a := int(ck.off[k])
			ck.off[k+1] = int32(a + len(vs))
			rows[lo+k] = ck.vals[a : a+len(vs) : a+len(vs)]
		}
		v[ci] = ck
	}
	return v, rows
}

// buildRows is buildUnitVec for the value rows: clean chunks are shared with
// prev, the others are packed from the working rows on the worker pool.
func buildRows(prev rowVec, work [][]float64, dirty []uint32, workers int) rowVec {
	n := len(work)
	v := make(rowVec, numUnitChunks(n))
	var copied []int
	for ci := range v {
		lo, hi := chunkSpan(ci, n)
		if ci < len(prev) && clean(dirty, ci, len(prev[ci].off)-1, hi-lo) {
			v[ci] = prev[ci]
		} else {
			copied = append(copied, ci)
		}
	}
	parallel.ForEach(len(copied), workers, func(k int) {
		lo, hi := chunkSpan(copied[k], n)
		v[copied[k]] = packRows(work[lo:hi])
	})
	return v
}

// BuildResultFrom assembles a Result generation by copy-on-write against
// prev: every chunk no write marked since prev was published, and that did
// not grow, is shared with prev; the rest are copied from the caller-owned
// working arrays. prev must be the generation the marks were cleared against
// (the engine always passes its last published Result, or nil); clearing the
// marks below makes this generation the new baseline. A nil prev builds every
// chunk — the cold path, identical in content to BuildResult.
func (em *EM) BuildResultFrom(prev *Result, cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, iterations int, converged bool) *Result {
	st := em.st
	if prev == nil {
		prev = &Result{}
	}
	// The inclusion copies share one backing allocation.
	nS, nE := len(st.a), len(st.p)
	bb := make([]bool, 0, nS+nE)
	bsub := func(src []bool) []bool {
		n0 := len(bb)
		bb = append(bb, src...)
		return bb[n0:len(bb):len(bb)]
	}
	res := &Result{
		aVec:              buildUnitVec(prev.aVec, st.a, st.srcDirty),
		pVec:              buildUnitVec(prev.pVec, st.p, st.extDirty),
		rVec:              buildUnitVec(prev.rVec, st.r, st.extDirty),
		qVec:              buildUnitVec(prev.qVec, st.q, st.extDirty),
		expVec:            em.expectedTriples(prev, cProb),
		cProb:             buildUnitVec(prev.cProb, cProb, st.triDirty),
		coveredTriple:     buildUnitVec(prev.coveredTriple, st.coveredTriple, st.triDirty),
		restMass:          buildUnitVec(prev.restMass, restMass, st.itemDirty),
		coveredItem:       buildUnitVec(prev.coveredItem, coveredItem, st.itemDirty),
		rows:              buildRows(prev.rows, valueProb, st.itemDirty, st.opt.Workers),
		SourceIncluded:    bsub(st.srcIncluded),
		ExtractorIncluded: bsub(st.extIncluded),
		Iterations:        iterations,
		Converged:         converged,
		snap:              st.s,
	}
	clear(st.srcDirty)
	clear(st.extDirty)
	clear(st.triDirty)
	clear(st.itemDirty)
	return res
}

// expectedTriples publishes the per-source Σ p(C|X), kept as exact sums:
// against a previous generation published from this state's sums it folds
// the written triple chunks' cProb changes in, O(written), sharing every
// source chunk the fold did not reach; with no such generation, or where
// most triple chunks were written, it sums every triple. Both give the same
// bits, so the oracles, which sum every refresh, publish what the fold does.
func (em *EM) expectedTriples(prev *Result, cProb []float64) unitVec[float64] {
	st := em.st
	s, ag := st.s, st.agg
	nSrc, nTri := s.NumSources(), len(cProb)
	if ag == nil {
		return sliceVec(floats(expectedSums(s, cProb)))
	}
	var written []int
	for ci := range numUnitChunks(nTri) {
		lo, hi := chunkSpan(ci, nTri)
		prevSize := 0
		if ci < len(prev.cProb.chunks) {
			prevSize = len(prev.cProb.chunks[ci])
		}
		if !clean(st.triDirty, ci, prevSize, hi-lo) {
			written = append(written, ci)
		}
	}
	if prev.expVec.chunks == nil || len(ag.exp) != prev.expVec.Len() || 2*len(written) >= numUnitChunks(nTri) {
		ag.exp = expectedSums(s, cProb)
		ag.expF, ag.expDirty = floats(ag.exp), newMarks(nSrc)
	} else {
		ag.exp = grow(ag.exp, nSrc, stats.Sum{})
		ag.expF = grow(ag.expF, nSrc, 0)
		ag.expDirty = grow(ag.expDirty, numUnitChunks(nSrc), 1)
		prevN := prev.cProb.Len()
		for _, ci := range written {
			lo, hi := chunkSpan(ci, nTri)
			for ti := lo; ti < hi; ti++ {
				old := 0.0
				if ti < prevN {
					old = prev.cProb.At(ti)
				}
				if cProb[ti] != old {
					w := s.Triples[ti].W
					ag.exp[w] = ag.exp[w].Sub(old).Add(cProb[ti])
					ag.expDirty[w/unitChunk] = 1
				}
			}
		}
		for ci, d := range ag.expDirty {
			if d != 0 {
				lo, hi := chunkSpan(ci, nSrc)
				for w := lo; w < hi; w++ {
					ag.expF[w] = ag.exp[w].Float()
				}
			}
		}
	}
	v := buildUnitVec(prev.expVec, ag.expF, ag.expDirty)
	clear(ag.expDirty)
	return v
}

// expectedSums sums p(C|X) per source.
func expectedSums(s *triple.Snapshot, cProb []float64) []stats.Sum {
	sums := make([]stats.Sum, s.NumSources())
	for ti, tr := range s.Triples {
		sums[tr.W] = sums[tr.W].Add(cProb[ti])
	}
	return sums
}

// floats reads every sum.
func floats(sums []stats.Sum) []float64 {
	out := make([]float64, len(sums))
	for i := range sums {
		out[i] = sums[i].Float()
	}
	return out
}
