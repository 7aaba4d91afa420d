package core

import "math"

// This file maintains the stage III/IV sufficient statistics incrementally.
//
// The global M-steps of Algorithm 1 are sums of per-index contributions:
// source accuracy (Eq 27/28) sums a (num, den) pair over the source's
// candidate triples, and extractor precision/recall (Eqs 29-33) sum a
// numerator over the extractor's observations, a confidence mass over the
// same observations, and a correctness mass over the (source, predicate)
// cells the extractor attempts. When an EM iteration's E-step only touched a
// dirty subset of shards, only the contributions of those shards' triples
// (and their observations) can have changed — so instead of re-scanning the
// corpus, the estimators cache every contribution, keep the per-unit sums,
// and update them by subtracting the stale contribution and adding the fresh
// one. Stages III and IV drop from O(corpus) to O(dirty).
//
// Two exactness caveats shape the code:
//
//   - Under Options.LeaveOneOut an observation's numerator contribution
//     depends on its extractor's own presence/absence votes. When those
//     votes moved since the contribution was cached (the extractor's R or Q
//     changed in the previous M-step), every one of its observations is
//     stale and the extractor is re-scanned in full — the only exact option,
//     since the posterior is not linear in the strip factor. Extractors whose
//     votes did not move (the common case at fine extractor granularity,
//     where an ingest touches few units) stay on the delta path.
//   - Subtract-and-add drifts by accumulated rounding. Every
//     Options.ReaggregateEvery iterations the M-steps fall back to each
//     stage's one full-aggregation body (estimateA, estimatePRQ in infer.go),
//     which fills these caches as it sums — so a full pass is the cache-free
//     estimator's arithmetic and re-anchors the caches bit-exactly — bounding
//     the drift to what a handful of iterations can accumulate (≪ 1e-9 on
//     unit-scale parameters).
//
// The delta estimators assume the caller passes every candidate triple whose
// Stage I/II outputs (cProb, value posterior slots, coverage) or effective
// confidence changed since the previous M-step call; the engine guarantees
// this by passing exactly the dirty shards it re-estimated.

// aDenZero treats an incrementally maintained accuracy denominator below
// this threshold as exactly zero. A true denominator is a sum of weights
// that are each either 1 or a cProb ≥ 0.5, so it is either 0 or ≥ 0.5;
// anything in between is floating-point residue left by cancellation, which
// the full-aggregation oracle would have as an exact 0 (skipping the
// accuracy update).
const aDenZero = 0.25

// aggState holds the persistent sufficient statistics and per-contribution
// caches of the incremental stage III/IV estimators.
type aggState struct {
	// aValid / eValid report whether the stage III respectively stage IV
	// caches have been filled by a full aggregation; cleared on structural
	// changes (inclusion flips).
	aValid, eValid bool
	// iter counts EM iterations (BeginIteration calls); fullTick marks the
	// iterations on the ReaggregateEvery cadence, whose M-steps re-aggregate
	// in full to bound drift. expAnchor latches fullTick until the next
	// publication, telling BuildResultFrom to re-derive the expected-triple
	// sums canonically instead of folding deltas — the same cadence bounds
	// that sum's drift too.
	iter      int
	fullTick  bool
	expAnchor bool

	// Stage III: per-source (num, den) sums and per-triple contributions.
	aNum, aDen   []float64
	aNumC, aDenC []float64

	// Stage IV: per-extractor numerator and confidence-mass sums, the
	// per-observation numerator contributions, and the votes they were
	// computed with (NaN until first filled, which never compares equal).
	eNum, ePDen []float64
	obsNumC     []float64
	preAt, abAt []float64

	// Correctness mass: per-triple covered-gated contribution, its global
	// total, and the per-extractor recall denominator maintained through the
	// extsOfCell reverse index (ScopeAttemptedSources; the cell masses
	// themselves live in state.cellC, persistent in aggregate mode).
	cCov       []float64
	totalC     float64
	rDen       []float64
	extsOfCell [][]int32

	// Touched-unit bookkeeping for the delta passes.
	gen                    int32
	srcMark, extMark       []int32
	touchedSrc, touchedExt []int
	voteShift              []bool
	shifted                []int

	// deltaSteps / fullSteps count M-step stage invocations that ran the
	// delta respectively full-aggregation path, for diagnostics.
	deltaSteps, fullSteps int
}

func newAggState(nSrc, nExt, nTri, nObs int) *aggState {
	ag := &aggState{}
	ag.growTo(nSrc, nExt, nTri, nObs, 0)
	return ag
}

// growTo extends every per-index array to the new table sizes, preserving
// existing entries. New preAt/abAt entries are NaN so a vote comparison can
// never mistake them for cached.
func (ag *aggState) growTo(nSrc, nExt, nTri, nObs, nCells int) {
	ag.aNum = grow(ag.aNum, nSrc, 0)
	ag.aDen = grow(ag.aDen, nSrc, 0)
	ag.srcMark = grow(ag.srcMark, nSrc, 0)
	ag.aNumC = grow(ag.aNumC, nTri, 0)
	ag.aDenC = grow(ag.aDenC, nTri, 0)
	ag.cCov = grow(ag.cCov, nTri, 0)
	ag.eNum = grow(ag.eNum, nExt, 0)
	ag.ePDen = grow(ag.ePDen, nExt, 0)
	ag.rDen = grow(ag.rDen, nExt, 0)
	ag.preAt = grow(ag.preAt, nExt, math.NaN())
	ag.abAt = grow(ag.abAt, nExt, math.NaN())
	ag.extMark = grow(ag.extMark, nExt, 0)
	ag.voteShift = append(ag.voteShift, make([]bool, nExt-len(ag.voteShift))...)
	ag.obsNumC = grow(ag.obsNumC, nObs, 0)
	if ag.extsOfCell != nil {
		ag.extsOfCell = append(ag.extsOfCell, make([][]int32, nCells-len(ag.extsOfCell))...)
	}
}

// estimateADelta updates the stage III aggregates for the dirty triples and
// re-derives the accuracies of the sources they touch. Untouched sources
// keep parameters equal to what a full aggregation would recompute, because
// none of their contributions changed.
func (st *state) estimateADelta(cProb []float64, valueProb [][]float64, dirtyTris []int) {
	ag := st.agg
	ag.gen++
	ag.touchedSrc = ag.touchedSrc[:0]
	for _, ti := range dirtyTris {
		nc, dc := st.aContrib(ti, cProb, valueProb)
		if nc == ag.aNumC[ti] && dc == ag.aDenC[ti] {
			continue
		}
		w := st.s.Triples[ti].W
		ag.aNum[w] += nc - ag.aNumC[ti]
		ag.aDen[w] += dc - ag.aDenC[ti]
		ag.aNumC[ti], ag.aDenC[ti] = nc, dc
		if ag.srcMark[w] != ag.gen {
			ag.srcMark[w] = ag.gen
			ag.touchedSrc = append(ag.touchedSrc, w)
		}
	}
	for _, w := range ag.touchedSrc {
		if !st.srcIncluded[w] || ag.aDen[w] < aDenZero {
			continue
		}
		st.deriveA(w, ag.aNum[w], ag.aDen[w])
	}
}

// estimatePRQDelta updates the stage IV aggregates for the dirty triples'
// observations and re-derives parameters for the extractors they touch.
// Extractors whose presence/absence votes moved since their numerators were
// cached are re-scanned in full (see the file comment); without LeaveOneOut
// the contributions do not depend on the votes and the rescan is skipped
// entirely.
func (st *state) estimatePRQDelta(cProb []float64, dirtyTris []int) {
	s, ag := st.s, st.agg
	ag.gen++
	ag.touchedExt = ag.touchedExt[:0]
	markExt := func(e int) {
		if ag.extMark[e] != ag.gen {
			ag.extMark[e] = ag.gen
			ag.touchedExt = append(ag.touchedExt, e)
		}
	}

	// Correctness-mass deltas — the recall denominators.
	allScope := st.opt.Scope == ScopeAllExtractors
	totalC0 := ag.totalC
	for _, ti := range dirtyTris {
		var nc float64
		if st.coveredTriple[ti] {
			nc = cProb[ti]
		}
		d := nc - ag.cCov[ti]
		if d == 0 {
			continue
		}
		ag.cCov[ti] = nc
		ag.totalC += d
		if !allScope {
			c := st.cellOfTriple[ti]
			st.cellC[c] += d
			for _, e := range ag.extsOfCell[c] {
				ag.rDen[e] += d
				markExt(int(e))
			}
		}
	}
	if allScope && ag.totalC != totalC0 {
		// The global recall denominator moved: every included extractor's
		// recall changes.
		for e, inc := range st.extIncluded {
			if inc {
				markExt(e)
			}
		}
	}

	// Vote-shifted extractors: rebuild their numerators by full rescan.
	ag.shifted = ag.shifted[:0]
	if st.opt.LeaveOneOut {
		tasks := st.obsTasks[:0]
		for e, inc := range st.extIncluded {
			if inc && (st.pre[e] != ag.preAt[e] || st.ab[e] != ag.abAt[e]) {
				ag.voteShift[e] = true
				ag.shifted = append(ag.shifted, e)
				markExt(e)
				tasks = appendObsTasks(tasks, e, len(s.ObsOfExtractor[e]))
			}
		}
		st.sumObsTasks(tasks, cProb, nil)
	}

	// Dirty observations of vote-stable extractors: sumObsTasks' expression,
	// the strip factor from one memo over the whole loop.
	loo := st.opt.LeaveOneOut
	var memo stripMemo
	for _, ti := range dirtyTris {
		for _, oi := range s.ByTriple[ti] {
			e := int(st.obsE[oi])
			if !st.extIncluded[e] || ag.voteShift[e] {
				continue
			}
			c := st.conf[oi]
			if c <= 0 {
				continue
			}
			v := c * cProb[ti]
			if loo {
				v = c * looPosterior(st.cOdds[ti], memo.factor(e, c, st.pre[e]-st.ab[e], st.ab[e]))
			}
			if v != ag.obsNumC[oi] {
				ag.eNum[e] += v - ag.obsNumC[oi]
				ag.obsNumC[oi] = v
				markExt(e)
			}
		}
	}

	for _, e := range ag.shifted {
		ag.voteShift[e] = false
	}
	for _, e := range ag.touchedExt {
		rDen := ag.rDen[e]
		if allScope {
			rDen = ag.totalC
		}
		st.derivePRQ(e, ag.eNum[e], ag.ePDen[e], rDen)
	}
}

// grow extends s to length n, filling the new entries.
func grow[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}
