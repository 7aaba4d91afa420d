package core

import (
	"math"

	"kbt/internal/stats"
)

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
// Every sum is an exact stats.Sum, a function of its current terms alone
// however many delta updates, in whatever order, brought it there; so a delta
// M-step derives the bits the full aggregation (estimateA, estimatePRQ in
// infer.go) would, which fills these caches as it sums. The full body runs
// where it is cheaper (deltaCostsMore) or the caches are invalid (fresh
// state, an inclusion flip).
//
// One case still rescans: under Options.LeaveOneOut an observation's
// numerator contribution depends on its extractor's own presence/absence
// votes. When those votes moved since the contribution was cached (the
// extractor's R or Q changed in the previous M-step), every one of its
// observations is stale and the extractor is re-scanned in full. Extractors
// whose votes did not move (the common case at fine extractor granularity,
// where an ingest touches few units) stay on the delta path.
//
// The delta estimators assume the caller passes every candidate triple whose
// Stage I/II outputs (cProb, value posterior slots, coverage) or effective
// confidence changed since the previous M-step call; the engine guarantees
// this by passing exactly the dirty shards it re-estimated.

// aggState holds the persistent sufficient statistics and per-contribution
// caches of the incremental stage III/IV estimators.
type aggState struct {
	// aValid / eValid report whether the stage III respectively stage IV
	// caches have been filled by a full aggregation; cleared on structural
	// changes (inclusion flips).
	aValid, eValid bool

	// Stage III: per-source (num, den) sums and per-triple contributions.
	aNum, aDen   []stats.Sum
	aNumC, aDenC []float64

	// Stage IV: per-extractor numerator sums, the per-observation numerator
	// contributions, and the votes they were computed with (NaN until first
	// filled, which never compares equal).
	eNum        []stats.Sum
	obsNumC     []float64
	preAt, abAt []float64

	// Correctness mass: per-triple covered-gated contribution, its global
	// total (ScopeAllExtractors), and the per-extractor recall denominator
	// maintained through the extsOfCell reverse index (ScopeAttemptedSources;
	// the cell masses themselves live in state.cellC, persistent in
	// aggregate mode).
	cCov       []float64
	totalC     stats.Sum
	rDen       []stats.Sum
	extsOfCell [][]int32

	// exp is the per-source Σ p(C|X) of the last BuildResultFrom publication
	// (nil before one), expF its float mirror, expDirty the mirror's marks.
	exp      []stats.Sum
	expF     []float64
	expDirty []uint32

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
	ag.aNum = grow(ag.aNum, nSrc, stats.Sum{})
	ag.aDen = grow(ag.aDen, nSrc, stats.Sum{})
	ag.srcMark = grow(ag.srcMark, nSrc, 0)
	ag.aNumC = grow(ag.aNumC, nTri, 0)
	ag.aDenC = grow(ag.aDenC, nTri, 0)
	ag.cCov = grow(ag.cCov, nTri, 0)
	ag.eNum = grow(ag.eNum, nExt, stats.Sum{})
	ag.rDen = grow(ag.rDen, nExt, stats.Sum{})
	ag.preAt = grow(ag.preAt, nExt, math.NaN())
	ag.abAt = grow(ag.abAt, nExt, math.NaN())
	ag.extMark = grow(ag.extMark, nExt, 0)
	ag.voteShift = append(ag.voteShift, make([]bool, nExt-len(ag.voteShift))...)
	ag.obsNumC = grow(ag.obsNumC, nObs, 0)
	if ag.extsOfCell != nil {
		ag.extsOfCell = append(ag.extsOfCell, make([][]int32, nCells-len(ag.extsOfCell))...)
	}
}

// cellExtractors returns the cell→extractors reverse index behind the
// recall-denominator deltas, building it from the current cell lists on first
// use — after a fresh state or an inclusion flip — in O(attempted pairs).
func (st *state) cellExtractors() [][]int32 {
	ag := st.agg
	if ag.extsOfCell == nil {
		ag.extsOfCell = make([][]int32, st.numCells)
		for e, cells := range st.cellsOfExtractor {
			for _, c := range cells {
				ag.extsOfCell[c] = append(ag.extsOfCell[c], int32(e))
			}
		}
	}
	return ag.extsOfCell
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
		ag.aNum[w] = ag.aNum[w].Sub(ag.aNumC[ti]).Add(nc)
		ag.aDen[w] = ag.aDen[w].Sub(ag.aDenC[ti]).Add(dc)
		ag.aNumC[ti], ag.aDenC[ti] = nc, dc
		if ag.srcMark[w] != ag.gen {
			ag.srcMark[w] = ag.gen
			ag.touchedSrc = append(ag.touchedSrc, w)
		}
	}
	for _, w := range ag.touchedSrc {
		if st.srcIncluded[w] {
			st.deriveA(w, ag.aNum[w], ag.aDen[w])
		}
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
	var extsOfCell [][]int32
	if !allScope {
		extsOfCell = st.cellExtractors()
	}
	totalC0 := ag.totalC
	for _, ti := range dirtyTris {
		var nc float64
		if st.coveredTriple[ti] {
			nc = cProb[ti]
		}
		if nc == ag.cCov[ti] {
			continue
		}
		d := stats.Term(nc).Sub(ag.cCov[ti])
		ag.cCov[ti] = nc
		if allScope {
			ag.totalC = ag.totalC.AddSum(d)
		} else {
			c := st.cellOfTriple[ti]
			st.cellC[c] = st.cellC[c].AddSum(d)
			for _, e := range extsOfCell[c] {
				ag.rDen[e] = ag.rDen[e].AddSum(d)
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
				ag.eNum[e] = ag.eNum[e].Sub(ag.obsNumC[oi]).Add(v)
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
		st.derivePRQ(e, ag.eNum[e], st.pDen[e], rDen)
	}
}

// grow extends s to length n, filling the new entries.
func grow[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}
