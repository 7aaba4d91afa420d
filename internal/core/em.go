package core

import (
	"bytes"
	"errors"
	"math"
	"time"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// This file exposes Algorithm 1 to callers that drive the EM loop themselves
// — concretely the incremental engine (package engine), which runs the
// E-steps over the stale items only. One iteration is one EM.Iterate call,
// for Run and the engine alike: both execute the identical stage sequence,
// prior schedule and convergence rule, so a cold engine run and Run produce
// the same posteriors.

// EM wraps the mutable inference state for external orchestration. Create
// one with NewEM, then drive iterations through Settle as Run does:
//
//	em.Bootstrap(cProb)              // once, before the first iteration
//	Settle(opt.MaxIter, widen, enter, func(n int) bool {
//	    _, converged := em.Iterate(cProb, ..., Pass{Iter: n, ...})
//	    return converged
//	})                               // until converged or MaxIter
//
// Iterate runs the stages below in this order; each adds its wall time to the
// EM's StageTimes:
//
//	em.BeginIteration(refreshVotes) // ready per-iteration vote state
//	em.EStepTriples(cProb, ...)     // Stage I   (index list)
//	em.EStepItems(...)              // Stage II  (index list)
//	em.MStepSources(...)            // Stage III (global)
//	em.MStepExtractors(...)         // Stage IV  (global)
//	em.UpdatePrior(...)             // Eq 26     (index list)
//
// Every stage takes an index list, nil for "all indices", and splits it
// across the worker pool itself (calls do not run concurrently: they mark
// what they wrote). The E-steps and the prior run on the indices listed; the
// global M-steps take the iteration's triple list and run one body over what
// it visited: with Options.IncrementalAggregates each visited triple (and
// observation) replaces its cached term in its unit's exact sum, O(list), and
// a nil list visits every index from zero — the same bits either way (see
// aggregates.go). Without incremental aggregates there are no caches and
// every M-step call visits every index, exactly as Run does.
type EM struct {
	st *state
}

// Pass is what one Iterate call runs over.
type Pass struct {
	// Iter is the iteration's 1-based number within its estimation.
	Iter int
	// Warm says the estimation started from settled parameters (a warm
	// engine refresh), so Eq 26 applies from its first iteration; a cold
	// estimation follows Options.UpdatePriorFromIter.
	Warm bool
	// RefreshVotes is BeginIteration's argument.
	RefreshVotes bool
	// Items and Tris are the pass's item and candidate-triple lists (nil =
	// every index): Stages I and II run on them, Stages III and IV visit Tris,
	// and Eq 26 re-estimates exactly Tris' priors.
	Items, Tris []int
	// Scope is the compiled scope the lists came from, which the pass
	// re-anchors (SettleScopes) once its E-steps ran; nil under Run.
	Scope *ScopeSet
}

// Iterate runs one iteration of Algorithm 1: BeginIteration, Stage I
// (extraction correctness) and Stage II (triple truthfulness) over the pass's
// lists, SettleScopes, Stage III (source accuracy) and Stage IV (extractor
// quality), then the Eq 26 prior on its schedule. It returns the convergence
// delta — the largest movements of A, P and R and of the priors the pass
// re-estimated, as their writers report them — and whether
// the iteration converged: delta below Tol on an iteration the prior schedule
// lets count.
//
// The prior's movement counts, and no iteration before the schedule engages
// converges: Eq 26 runs after the M-steps, so a loose Tol could otherwise
// declare convergence on an iteration whose prior shift is still reshaping
// the posterior landscape (or that never refined the prior at all) — a false
// fixed point the next estimation would immediately leave.
func (em *EM) Iterate(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, p Pass) (delta float64, converged bool) {
	st := em.st
	em.BeginIteration(p.RefreshVotes)
	em.EStepTriples(cProb, p.Tris, st.opt.Workers)
	em.EStepItems(cProb, valueProb, restMass, coveredItem, p.Items, st.opt.Workers)
	if p.Scope != nil {
		// The pass re-anchored the scope's posteriors against the current
		// parameters and votes: units whose whole reach it covered start
		// accumulating drift from zero again.
		em.SettleScopes(p.Scope)
	}
	movedA := em.MStepSources(cProb, valueProb, p.Tris)
	movedP, movedR := em.MStepExtractors(cProb, p.Tris)

	scheduled := p.Warm || p.Iter+1 >= st.opt.UpdatePriorFromIter
	var movedPrior float64
	if st.opt.UpdatePrior && scheduled {
		movedPrior = em.UpdatePrior(valueProb, p.Tris, st.opt.Workers)
	}
	delta = movedA + movedP + movedR + movedPrior
	return delta, delta < st.opt.Tol && (!st.opt.UpdatePrior || scheduled)
}

// NewEM validates opt and builds the inference state for the snapshot, as Run
// does before its first iteration: the extension of the empty state over
// every record of s (see NewEMFrom).
func NewEM(s *triple.Snapshot, opt Options) (*EM, error) {
	if s == nil {
		return nil, errors.New("core: nil snapshot")
	}
	if err := validate(opt); err != nil {
		return nil, err
	}
	st := &state{}
	extendState(st, s, opt, triple.Delta{})
	return &EM{st: st}, nil
}

// Bootstrap performs the pre-iteration extractor M-step from the prior
// p(C)=Alpha (see Options.DisableBootstrap), filling cProb with the prior as
// a side effect: what Run does before its first iteration, a no-op when the
// options disable it.
func (em *EM) Bootstrap(cProb []float64) {
	t0 := time.Now()
	em.st.bootstrap(cProb)
	em.st.times.StageIV += time.Since(t0)
}

// StageTimes is the wall time an EM's exported stages have spent, summed over
// its life: BeginIteration's vote preparation, Stages I–IV (Stage IV with the
// Bootstrap, an extractor M-step) and the Eq 26 prior. A caller diffs two
// readings (Sub) for the stages of one estimation or refresh.
type StageTimes struct {
	Votes, StageI, StageII, StageIII, StageIV, Prior time.Duration
}

// Sub returns t minus u, stage by stage.
func (t StageTimes) Sub(u StageTimes) StageTimes {
	return StageTimes{t.Votes - u.Votes, t.StageI - u.StageI, t.StageII - u.StageII,
		t.StageIII - u.StageIII, t.StageIV - u.StageIV, t.Prior - u.Prior}
}

// StageTimes returns the EM's cumulative stage times.
func (em *EM) StageTimes() StageTimes { return em.st.times }

// BeginIteration readies the per-iteration vote state (extractor votes, base
// absence masses). Call once per iteration, before any EStepTriples call.
//
// refreshVotes recomputes the extractor presence/absence votes from the
// current R and Q, for every extractor. Passing false keeps the published
// votes frozen — except that, with EnableStaleness, extractors whose R/Q
// have travelled at least Options.Tol since their last publication are
// republished individually (selectiveVotes), charging the movement to the
// staleness ledger. Per-extractor publication is what keeps the incremental
// M-step's per-observation caches exactly valid for every vote-stable
// extractor (no sub-Tol vote-shift rescans); Run refreshes every iteration
// and never has a ledger.
func (em *EM) BeginIteration(refreshVotes bool) {
	t0 := time.Now()
	em.st.prepareVotes(refreshVotes)
	em.st.times.Votes += time.Since(t0)
}

// CarryVotesFrom copies prev's extractor presence/absence votes by dense id
// prefix — the FullRecompile path's counterpart of the vote state NewEMFrom
// carries implicitly, needed so both paths make identical vote-freezing
// decisions. New extractors keep zero votes; callers must refresh votes
// before freezing over a grown extractor set.
func (em *EM) CarryVotesFrom(prev *EM) {
	copy(em.st.pre, prev.st.pre)
	copy(em.st.ab, prev.st.ab)
}

// EStepTriples runs Stage I — extraction correctness p(C|X) — for the
// candidate triples in tis (nil = all), writing into cProb and marking the
// written chunks for the next BuildResultFrom.
func (em *EM) EStepTriples(cProb []float64, tis []int, workers int) {
	t0 := time.Now()
	em.st.estimateCSubset(cProb, tis, workers)
	markIndices(em.st.triDirty, tis)
	em.st.times.StageI += time.Since(t0)
}

// EStepItems runs Stage II — triple truthfulness p(V|X) — for the data items
// in items (nil = all), writing valueProb, restMass and coveredItem and
// marking the written chunks for the next BuildResultFrom.
func (em *EM) EStepItems(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, items []int, workers int) {
	t0 := time.Now()
	em.st.estimateVSubset(cProb, valueProb, restMass, coveredItem, items, workers)
	markIndices(em.st.itemDirty, items)
	em.st.times.StageII += time.Since(t0)
}

// TakeMovedItems appends to dst, ascending, the items whose discretised
// evidence — which candidate triples pass p(C|X) ≥ 0.5, and the side of 0.5
// of each value posterior — the E-steps may have moved since the previous
// call, and clears their marks: the copy tracker's dirty list. An item whose
// candidate triples grew is not necessarily among them (a new triple can be
// provided from its first E-step on); the caller adds those from the
// snapshot's extension delta. The scan reads one byte per item.
func (em *EM) TakeMovedItems(dst []int) []int {
	m := em.st.moved
	for d := 0; ; d++ {
		k := bytes.IndexByte(m[d:], 1)
		if k < 0 {
			return dst
		}
		d += k
		m[d] = 0
		dst = append(dst, d)
	}
}

// MStepSources runs Stage III — source accuracy re-estimation — over the
// candidate triples in tis, which must list every triple whose E-step outputs
// changed since the previous M-step call; nil visits every triple. Without
// Options.IncrementalAggregates the list is ignored. It returns the largest
// movement of A it wrote, and is a no-op under Options.FreezeSources.
func (em *EM) MStepSources(cProb []float64, valueProb [][]float64, tis []int) (movedA float64) {
	if em.st.opt.FreezeSources {
		return 0
	}
	t0 := time.Now()
	movedA = em.st.estimateA(cProb, valueProb, tis)
	em.st.times.StageIII += time.Since(t0)
	return movedA
}

// MStepExtractors runs Stage IV — extractor precision/recall/Q — over tis
// under MStepSources' contract, returning the largest movements of P and R it
// wrote. It is a no-op under Options.FreezeExtractors.
func (em *EM) MStepExtractors(cProb []float64, tis []int) (movedP, movedR float64) {
	if em.st.opt.FreezeExtractors {
		return 0, 0
	}
	t0 := time.Now()
	movedP, movedR = em.st.estimatePRQ(cProb, tis)
	em.st.times.StageIV += time.Since(t0)
	return movedP, movedR
}

// AggStepCounts reports how many M-step stage calls over the EM's lifetime
// honoured a triple list respectively visited every index (both zero without
// Options.IncrementalAggregates). Callers diff across refreshes for
// per-refresh diagnostics.
func (em *EM) AggStepCounts() (list, whole int) {
	if ag := em.st.agg; ag != nil {
		return ag.listSteps, ag.wholeSteps
	}
	return 0, 0
}

// UpdatePrior re-estimates the prior p(C_wdv=1) (Eq 26) for the candidate
// triples in tis (nil = all) from the current value posterior, returning the
// largest movement of a prior. The caller is responsible for the
// Options.UpdatePrior / UpdatePriorFromIter schedule, as Iterate is.
func (em *EM) UpdatePrior(valueProb [][]float64, tis []int, workers int) (movedPrior float64) {
	t0 := time.Now()
	movedPrior = em.st.updateAlphaSubset(valueProb, tis, workers)
	em.st.times.Prior += time.Since(t0)
	return movedPrior
}

// A returns the live per-source accuracy slice, read-only — e.g. for the
// copy detector's evidence. Writing through it would bypass the copy-on-write
// dirty marks behind publication chunk sharing (params.go) and publish stale
// values; warm-start with CarryParamsFrom instead.
func (em *EM) A() []float64 { return em.st.a }

// CarryParamsFrom copies prev's per-unit parameter estimates (A, P, R, Q) by
// dense-id prefix — the warm-start seeding for a freshly built EM. The
// copy-on-write dirty marks are inherited alongside the values: a chunk now
// bit-equal to prev's state keeps prev's changed-since-publication relation,
// so the next publication can keep sharing parameter chunks across the EM
// handoff. Units beyond prev's tables keep their fresh initialisation and
// stay marked dirty.
func (em *EM) CarryParamsFrom(prev *EM) {
	st, ps := em.st, prev.st
	for w := range st.a[:copy(st.a, ps.a)] {
		st.syncVote(w)
	}
	copy(st.p, ps.p)
	copy(st.r, ps.r)
	copy(st.q, ps.q)
	inheritMarks(st.srcDirty, ps.srcDirty, len(ps.a), len(st.a))
	inheritMarks(st.extDirty, ps.extDirty, len(ps.p), len(st.p))
}

// SetSourceVoteWeights installs per-source multipliers applied to the Stage
// II vote weight (SourceVote) — the copy-adjusted discounting hook: the
// engine derates a detected copier's votes by 1 − c·p(dependent) so copied
// mistakes stop reinforcing the original's values. nil (the initial state)
// means all-ones and keeps the hot loop untouched; a shorter slice pads the
// tail with 1 (new sources start undiscounted). Every changed weight charges
// its movement to the staleness ledger, so the items reading that source
// re-estimate under the usual Tol contract at the next pass.
func (em *EM) SetSourceVoteWeights(weights []float64) {
	st := em.st
	if st.voteWeight == nil {
		if weights == nil {
			return
		}
		st.voteWeight = make([]float64, len(st.a))
		for w := range st.voteWeight {
			st.voteWeight[w] = 1
		}
	}
	led := st.ledger
	for w := range st.voteWeight {
		nw := 1.0
		if w < len(weights) {
			nw = weights[w]
		}
		if d := math.Abs(nw - st.voteWeight[w]); d != 0 {
			if led != nil {
				led.srcDrift[w] += d
			}
			st.voteWeight[w] = nw
			st.syncVote(w)
		}
	}
}

// SourceVoteWeights returns the live vote-weight slice (nil when no weights
// were ever set — all-ones). Read-only.
func (em *EM) SourceVoteWeights() []float64 { return em.st.voteWeight }

// CarrySourceVoteWeightsFrom copies prev's vote weights by dense-id prefix
// without charging the ledger — the FullRecompile path's counterpart of the
// weight state NewEMFrom carries in place, paired with CarryStalenessFrom so
// both construction paths make identical discounting and settling decisions.
func (em *EM) CarrySourceVoteWeightsFrom(prev *EM) {
	st := em.st
	st.voteWeight = nil
	if old := prev.st.voteWeight; old != nil {
		st.voteWeight = make([]float64, len(st.a))
		for w := range st.voteWeight {
			st.voteWeight[w] = 1
		}
		copy(st.voteWeight, old)
	}
	for w := range st.srcVote {
		st.syncVote(w)
	}
}

// Prior returns the live per-candidate-triple prior p(C=1) (Eq 26), each a
// probability in [Eps, 1-Eps]. A warm start seeds entries from a previous
// run's before iterating.
func (em *EM) Prior() []float64 { return em.st.alpha }

// COdds returns the live per-candidate-triple odds of the extraction
// correctness posterior — the Stage I cache the leave-one-out M-step reads. A
// warm start seeds it together with the cProb it mirrors.
func (em *EM) COdds() []float64 { return em.st.cOdds }

// SourceIncluded and ExtractorIncluded report which units met the support
// thresholds (read-only; NewEMFrom updates them in place).
func (em *EM) SourceIncluded() []bool    { return em.st.srcIncluded }
func (em *EM) ExtractorIncluded() []bool { return em.st.extIncluded }

// InclusionFlipped reports whether the NewEMFrom call that extended this
// state moved an old unit's support across its inclusion threshold — the one
// structural event of an extension, whose reach is global: the caller must
// re-estimate everything and refresh every vote. False on a fresh NewEM and
// after a same-snapshot NewEMFrom.
func (em *EM) InclusionFlipped() bool { return em.st.structural }

// BuildResult assembles a Result from the EM state and the caller-owned
// posterior arrays, deep-copying everything so the caller may keep mutating
// its arrays across later refreshes. It is the O(corpus) reference build
// that shares nothing; BuildResultFrom (publish.go) is the O(written)
// copy-on-write generation path the engine publishes through.
func (em *EM) BuildResult(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, iterations int, converged bool) *Result {
	st := em.st
	return &Result{
		aVec:              copyVec(st.a),
		pVec:              copyVec(st.p),
		rVec:              copyVec(st.r),
		qVec:              copyVec(st.q),
		expVec:            sliceVec(floats(expectedSums(st.s, cProb))),
		cProb:             copyVec(cProb),
		coveredTriple:     copyVec(st.coveredTriple),
		restMass:          copyVec(restMass),
		coveredItem:       copyVec(coveredItem),
		rows:              buildRows(nil, valueProb, nil, st.opt.Workers),
		SourceIncluded:    append([]bool(nil), st.srcIncluded...),
		ExtractorIncluded: append([]bool(nil), st.extIncluded...),
		Iterations:        iterations,
		Converged:         converged,
		snap:              st.s,
	}
}

// AbsenceMasses returns the base absence masses Stage I reads: the global
// mass under ScopeAllExtractors and the per-cell masses under
// ScopeAttemptedSources (the other return is zero-valued), each cell's read
// from its attempt set. For tests and diagnostics.
func (em *EM) AbsenceMasses() (total float64, cells []float64) {
	st := em.st
	if st.opt.Scope == ScopeAllExtractors {
		return st.setAbs[0], nil
	}
	cells = make([]float64, st.numCells)
	for c, set := range st.setOfCell {
		cells[c] = st.setAbs[set]
	}
	return 0, cells
}

// RecomputeAbsenceMasses derives the base absence masses from scratch from
// the currently published votes and attempted-cell structure — the oracle
// the incrementally maintained masses are pinned against, bit for bit.
func (em *EM) RecomputeAbsenceMasses() (total float64, cells []float64) {
	st := em.st
	if st.opt.Scope == ScopeAllExtractors {
		var sum stats.Sum
		for e, inc := range st.extIncluded {
			if inc {
				sum = sum.Add(st.ab[e])
			}
		}
		return sum.Float(), nil
	}
	sums := make([]stats.Sum, st.numCells)
	for e, cs := range st.cellsOfExtractor {
		t := stats.Term(st.ab[e])
		for _, c := range cs {
			sums[c] = sums[c].AddSum(t)
		}
	}
	return 0, floats(sums)
}
