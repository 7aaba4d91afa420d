package core

import (
	"errors"
	"math"

	"kbt/internal/triple"
)

// This file exposes the individual steps of Algorithm 1 to callers that
// orchestrate the EM loop themselves — concretely the sharded incremental
// engine (package engine), which partitions the E-step across item shards
// and interleaves it with global M-steps. Run remains the canonical
// monolithic driver; both paths execute the identical per-index math, so a
// cold engine run and Run produce the same posteriors.

// EM wraps the mutable inference state for external orchestration. Create
// one with NewEM, then drive iterations as Run does:
//
//	em.Bootstrap(cProb)                 // once, before the first iteration
//	for each iteration:
//	    em.BeginIteration(refreshVotes) // ready per-iteration vote state
//	    em.EStepTriples(cProb, ...)     // Stage I   (shardable)
//	    em.EStepItems(...)              // Stage II  (shardable)
//	    em.MStepSources(...)            // Stage III (global)
//	    em.MStepExtractors(...)         // Stage IV  (global)
//	    em.UpdatePrior(...)             // Eq 26     (shardable)
//
// The subset parameters of the shardable stages accept nil for "all
// indices"; non-nil subsets must jointly cover the index space across calls
// within one iteration, and disjoint subsets may run concurrently. The
// global M-steps instead take the dirty triple list of the iteration: with
// Options.IncrementalAggregates they update the global sufficient statistics
// from exactly those triples' contribution deltas (O(dirty)), and a nil list
// — or the ReaggregateEvery cadence — re-aggregates in full. Without
// incremental aggregates the list is ignored and every call aggregates the
// corpus, exactly as Run does.
type EM struct {
	st *state
}

// NewEM validates opt and builds the inference state for the snapshot,
// exactly as Run does before its first iteration.
func NewEM(s *triple.Snapshot, opt Options) (*EM, error) {
	if s == nil {
		return nil, errors.New("core: nil snapshot")
	}
	if err := validate(opt); err != nil {
		return nil, err
	}
	return &EM{st: newState(s, opt)}, nil
}

// Bootstrap performs the pre-iteration extractor M-step from the prior
// p(C)=Alpha (see Options.DisableBootstrap), filling cProb with the prior as
// a side effect: the body Run itself starts with, a no-op when the options
// disable it.
func (em *EM) Bootstrap(cProb []float64) { em.st.bootstrap(cProb) }

// BeginIteration readies the per-iteration vote state (source votes, base
// absence masses) and advances the re-aggregation cadence. Call once per
// iteration, before any EStepTriples call.
//
// refreshVotes recomputes the extractor presence/absence votes from the
// current R and Q, for every extractor. Passing false keeps the published
// votes frozen — except that, with EnableStaleness, extractors whose R/Q
// have travelled at least Options.Tol since their last publication are
// republished individually (selectiveVotes), charging the movement to the
// staleness ledger. Per-extractor publication is what keeps the incremental
// M-step's per-observation caches exactly valid for every vote-stable
// extractor (no sub-Tol vote-shift rescans); core.Run refreshes every
// iteration and never has a ledger.
func (em *EM) BeginIteration(refreshVotes bool) {
	if ag := em.st.agg; ag != nil {
		ag.iter++
		ag.fullTick = ag.iter%em.st.opt.ReaggregateEvery == 0
		if ag.fullTick {
			// The absence masses and expected-triple sums are maintained
			// incrementally across extensions, selective vote republishes
			// and publications; re-anchor both canonically on the same
			// cadence that re-anchors the M-step aggregates, bounding the
			// fold-in reassociation drift to what ReaggregateEvery
			// iterations can accumulate.
			em.st.absenceStale = true
			ag.expAnchor = true
		}
	}
	em.st.prepareVotes(refreshVotes)
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
// candidate triples in tis (nil = all), writing into cProb.
func (em *EM) EStepTriples(cProb []float64, tis []int, workers int) {
	em.st.estimateCSubset(cProb, tis, workers)
}

// EStepItems runs Stage II — triple truthfulness p(V|X) — for the data items
// in items (nil = all), writing valueProb, restMass and coveredItem.
func (em *EM) EStepItems(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, items []int, workers int) {
	em.st.estimateVSubset(cProb, valueProb, restMass, coveredItem, items, workers)
}

// MStepSources runs Stage III — source accuracy re-estimation. dirtyTris
// lists the candidate triples whose E-step outputs changed since the previous
// M-step call; nil means "aggregate everything". Without
// Options.IncrementalAggregates the list is ignored (every call is a full
// aggregation). It is a no-op under Options.FreezeSources.
func (em *EM) MStepSources(cProb []float64, valueProb [][]float64, dirtyTris []int) {
	st := em.st
	if st.opt.FreezeSources {
		return
	}
	ag := st.agg
	if ag != nil && dirtyTris != nil && ag.aValid && !ag.fullTick && !deltaCostsMore(dirtyTris, len(st.s.Triples)) {
		st.estimateADelta(cProb, valueProb, dirtyTris)
		ag.deltaSteps++
		return
	}
	st.estimateA(cProb, valueProb)
	if ag != nil {
		ag.fullSteps++
	}
}

// deltaCostsMore reports whether the dirty set covers so much of the corpus
// that the delta update — which subtracts each covered triple's old
// contribution and adds its new one, roughly twice the per-triple arithmetic
// of a plain sum — would cost more than re-aggregating in full. Settling
// sweeps widened to nearly the whole corpus hit exactly this; re-aggregating
// also re-anchors the sufficient statistics for free. The decision depends
// only on the dirty list's length, so the incremental path and the
// FullRecompile oracle take it identically.
func deltaCostsMore(dirtyTris []int, nTri int) bool {
	return 2*len(dirtyTris) >= nTri
}

// MStepExtractors runs Stage IV — extractor precision/recall/Q — with the
// same dirty-subset contract as MStepSources. It is a no-op under
// Options.FreezeExtractors.
func (em *EM) MStepExtractors(cProb []float64, dirtyTris []int) {
	st := em.st
	if st.opt.FreezeExtractors {
		return
	}
	ag := st.agg
	if ag != nil && dirtyTris != nil && ag.eValid && !ag.fullTick && !deltaCostsMore(dirtyTris, len(st.s.Triples)) {
		st.estimatePRQDelta(cProb, dirtyTris)
		ag.deltaSteps++
		return
	}
	st.estimatePRQ(cProb)
	if ag != nil {
		ag.fullSteps++
	}
}

// AggStepCounts reports how many M-step stage invocations have run the
// incremental-delta respectively full-aggregation path over the EM's
// lifetime (both zero without Options.IncrementalAggregates). Callers diff
// across refreshes for per-refresh diagnostics.
func (em *EM) AggStepCounts() (delta, full int) {
	if ag := em.st.agg; ag != nil {
		return ag.deltaSteps, ag.fullSteps
	}
	return 0, 0
}

// UpdatePrior re-estimates the prior p(C_wdv=1) (Eq 26) for the candidate
// triples in tis (nil = all) from the current value posterior. The caller is
// responsible for the Options.UpdatePrior / UpdatePriorFromIter schedule.
func (em *EM) UpdatePrior(valueProb [][]float64, tis []int, workers int) {
	em.st.updateAlphaSubset(valueProb, tis, workers)
}

// A returns the live per-source accuracy slice, read-only — e.g. for
// convergence deltas. Writing through it would bypass the copy-on-write
// dirty marks behind publication chunk sharing (params.go) and publish stale
// values; warm-start with CarryParamsFrom instead.
func (em *EM) A() []float64 { return em.st.a }

// P, R and Q return the live per-extractor parameter slices, read-only (see
// A).
func (em *EM) P() []float64 { return em.st.p }
func (em *EM) R() []float64 { return em.st.r }
func (em *EM) Q() []float64 { return em.st.q }

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
// its movement to the staleness ledger, so the shards reading that source
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
// thresholds (read-only).
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
// its arrays across later refreshes. It is the O(corpus) flat build;
// BuildResultFrom (publish.go) is the O(dirty) copy-on-write generation
// path the engine publishes through.
func (em *EM) BuildResult(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, iterations int, converged bool) *Result {
	st := em.st
	s := st.s
	res := &Result{
		aVec:              copyVec(st.a),
		pVec:              copyVec(st.p),
		rVec:              copyVec(st.r),
		qVec:              copyVec(st.q),
		cProb:             append([]float64(nil), cProb...),
		valueProb:         make([][]float64, len(valueProb)),
		restMass:          append([]float64(nil), restMass...),
		coveredTriple:     append([]bool(nil), st.coveredTriple...),
		coveredItem:       append([]bool(nil), coveredItem...),
		SourceIncluded:    append([]bool(nil), st.srcIncluded...),
		ExtractorIncluded: append([]bool(nil), st.extIncluded...),
		Iterations:        iterations,
		Converged:         converged,
		snap:              s,
	}
	// One flat backing array for all value-posterior rows: the deep copy
	// runs every refresh, and a single allocation beats one per data item.
	// Full-capacity sub-slices keep the rows independent for appenders.
	total := 0
	for d := range valueProb {
		total += len(valueProb[d])
	}
	backing := make([]float64, 0, total)
	for d := range valueProb {
		n := len(backing)
		backing = append(backing, valueProb[d]...)
		res.valueProb[d] = backing[n:len(backing):len(backing)]
	}
	expt := make([]float64, len(s.Sources))
	for ti, tr := range s.Triples {
		expt[tr.W] += cProb[ti]
	}
	res.expVec = sliceVec(expt)
	return res
}

// AbsenceMasses returns the live base absence-mass state prepareVotes
// maintains: the global mass under ScopeAllExtractors and the per-cell
// masses under ScopeAttemptedSources (the other return is zero-valued).
// Read-only, for tests and diagnostics.
func (em *EM) AbsenceMasses() (total float64, cells []float64) {
	return em.st.totalAbs, em.st.cellAbs
}

// RecomputeAbsenceMasses derives the base absence masses canonically from
// the currently published votes and attempted-cell structure — the oracle
// the incrementally maintained masses are pinned against. The summation
// order matches prepareVotes' canonical rebuild, so a state whose masses
// were just re-anchored compares bit-equal.
func (em *EM) RecomputeAbsenceMasses() (total float64, cells []float64) {
	st := em.st
	if st.opt.Scope == ScopeAllExtractors {
		for e, inc := range st.extIncluded {
			if inc {
				total += st.ab[e]
			}
		}
		return total, nil
	}
	cells = make([]float64, st.numCells)
	for e, cs := range st.cellsOfExtractor {
		for _, c := range cs {
			cells[c] += st.ab[e]
		}
	}
	return 0, cells
}
