package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sort"

	"kbt/internal/parallel"
	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Result holds the multi-layer posteriors and parameter estimates from Run
// (or a published engine generation). A Result is immutable once built; the
// per-unit parameters (AAt, PAt, RAt, QAt, ExpectedTriplesAt) and the
// per-triple and per-item posteriors (CProbAt, ValueRow, RestMassAt,
// CoveredTripleAt, CoveredItemAt) are read through accessors over chunked
// storage that generations share copy-on-write (see params.go and
// publish.go), so a refresh that re-estimated a handful of items publishes a
// handful of chunk copies instead of O(corpus) fresh arrays.
type Result struct {
	// Pre, Abs are the final presence/absence votes per extractor (Eqs
	// 12-13), exposed for inspection and the worked-example tests.
	Pre, Abs []float64

	// SourceIncluded / ExtractorIncluded report which units met the support
	// thresholds and had their parameters re-estimated.
	SourceIncluded    []bool
	ExtractorIncluded []bool

	// Iterations is the number of EM iterations executed; Converged reports
	// whether the parameter deltas fell below Tol before MaxIter.
	Iterations int
	Converged  bool

	// Per-unit parameter vectors, chunked and generation-shared: source
	// accuracy (the Knowledge-Based Trust score), extractor precision /
	// recall / Q (Eq 7), and the per-source expected correct-triple sums.
	aVec, pVec, rVec, qVec unitVec[float64]
	expVec                 unitVec[float64]

	// Per-triple and per-item posteriors, chunked over dense ids and
	// generation-shared the same way.
	cProb, restMass            unitVec[float64]
	coveredTriple, coveredItem unitVec[bool]
	rows                       rowVec

	snap *triple.Snapshot
}

// NumSources returns the number of sources the result covers.
func (r *Result) NumSources() int { return r.aVec.Len() }

// NumExtractors returns the number of extractors the result covers.
func (r *Result) NumExtractors() int { return r.pVec.Len() }

// AAt returns source w's estimated accuracy — the Knowledge-Based Trust
// score. Sources excluded by MinSourceSupport keep the default.
func (r *Result) AAt(w int) float64 { return r.aVec.At(w) }

// PAt, RAt and QAt return extractor e's estimated precision, recall and Q
// (Eq 7).
func (r *Result) PAt(e int) float64 { return r.pVec.At(e) }
func (r *Result) RAt(e int) float64 { return r.rVec.At(e) }
func (r *Result) QAt(e int) float64 { return r.qVec.At(e) }

// ExpectedTriplesAt returns Σ p(C=1|X) over source w's candidate triples —
// the expected number of triples correctly extracted from w. The paper
// reports KBT only for sources with at least 5 (§5.4).
func (r *Result) ExpectedTriplesAt(w int) float64 { return r.expVec.At(w) }

// NumTriples returns the number of candidate triples the result covers.
func (r *Result) NumTriples() int { return r.cProb.Len() }

// NumItems returns the number of data items the result covers.
func (r *Result) NumItems() int { return r.restMass.Len() }

// CProbAt returns p(C_wdv = 1 | X) for candidate triple ti of the
// snapshot's Triples list: the probability that the source really provides
// the triple.
func (r *Result) CProbAt(ti int) float64 { return r.cProb.At(ti) }

// CoveredTripleAt reports whether candidate triple ti has at least one
// observation from an included extractor.
func (r *Result) CoveredTripleAt(ti int) bool { return r.coveredTriple.At(ti) }

// CoveredItemAt reports whether item d has at least one covered candidate
// triple from an included source.
func (r *Result) CoveredItemAt(d int) bool { return r.coveredItem.At(d) }

// ValueRow returns the value posterior row of item d: ValueRow(d)[k] is
// p(Vd = ItemValues[d][k] | X). The row is shared storage — callers must
// not modify it.
func (r *Result) ValueRow(d int) []float64 { return r.rows.row(d) }

// RestMassAt returns the probability mass of item d spread uniformly over
// the unobserved domain values.
func (r *Result) RestMassAt(d int) float64 { return r.restMass.At(d) }

// TripleProb returns p(Vd = v | X) for a candidate value v of item d and
// whether the item is covered.
func (r *Result) TripleProb(d, v int) (float64, bool) {
	if d < 0 || d >= r.NumItems() || !r.CoveredItemAt(d) {
		return 0, false
	}
	vs := r.snap.ItemValues[d]
	k := sort.SearchInts(vs, v)
	if k < len(vs) && vs[k] == v {
		return r.ValueRow(d)[k], true
	}
	return 0, true
}

// KBT returns the trust score of source w and whether it is reportable at
// the given minimum expected-triple threshold (the paper uses 5).
func (r *Result) KBT(w int, minTriples float64) (float64, bool) {
	if w < 0 || w >= r.aVec.Len() {
		return 0, false
	}
	a := r.aVec.At(w)
	if !r.SourceIncluded[w] || r.expVec.At(w) < minTriples {
		return a, false
	}
	return a, true
}

// Run executes Algorithm 1 on the snapshot: the bootstrap, then one Iterate
// call per iteration until one converges or MaxIter have run.
func Run(s *triple.Snapshot, opt Options) (*Result, error) {
	em, err := NewEM(s, opt)
	if err != nil {
		return nil, err
	}
	st := em.st
	nItem, nTri := len(s.Items), len(s.Triples)
	cProb := make([]float64, nTri)
	restMass := make([]float64, nItem)
	coveredItem := make([]bool, nItem)
	rows, valueProb := newRows(s)

	em.Bootstrap(cProb)
	res := &Result{
		SourceIncluded:    st.srcIncluded,
		ExtractorIncluded: st.extIncluded,
		snap:              s,
	}
	// Iterations counts the EM iterations that actually executed: k when
	// iteration k converged, MaxIter when none did.
	for !res.Converged && res.Iterations < opt.MaxIter {
		res.Iterations++
		_, res.Converged = em.Iterate(cProb, valueProb, restMass, coveredItem,
			Pass{Iter: res.Iterations, RefreshVotes: true})
	}

	// The state dies with this call, so the published vectors wrap its flat
	// arrays, and the value rows were chunked from the start, without copying.
	res.aVec, res.pVec, res.rVec, res.qVec = sliceVec(st.a), sliceVec(st.p), sliceVec(st.r), sliceVec(st.q)
	res.expVec = sliceVec(floats(expectedSums(s, cProb)))
	res.cProb, res.coveredTriple = sliceVec(cProb), sliceVec(st.coveredTriple)
	res.restMass, res.coveredItem, res.rows = sliceVec(restMass), sliceVec(coveredItem), rows
	return res, nil
}

func validate(opt Options) error {
	switch {
	case opt.N < 1:
		return errors.New("core: N must be >= 1")
	case opt.Gamma <= 0 || opt.Gamma >= 1:
		return errors.New("core: Gamma must be in (0,1)")
	case opt.Alpha <= 0 || opt.Alpha >= 1:
		return errors.New("core: Alpha must be in (0,1)")
	case opt.MaxIter < 1:
		return errors.New("core: MaxIter must be >= 1")
	case opt.InitAccuracy <= 0 || opt.InitAccuracy >= 1:
		return errors.New("core: InitAccuracy must be in (0,1)")
	case opt.InitRecall <= 0 || opt.InitRecall >= 1:
		return errors.New("core: InitRecall must be in (0,1)")
	case opt.InitQ <= 0 || opt.InitQ >= 1:
		return errors.New("core: InitQ must be in (0,1)")
	}
	return nil
}

// state carries the mutable model parameters and the precomputed indexes the
// inference stages share.
type state struct {
	s   *triple.Snapshot
	opt Options

	a       []float64 // per source
	p, r, q []float64 // per extractor
	// srcDirty / extDirty mark the unitChunk-sized parameter chunks whose
	// values changed since the last BuildResultFrom publication (see
	// params.go). All writes to a/p/r/q go through the set* helpers, which
	// compare before storing — a re-derivation that lands on the identical
	// value leaves its chunk shareable. triDirty / itemDirty do the same for
	// the posterior chunks over triple and item ids, marked by every pass
	// that writes them.
	srcDirty, extDirty  []uint32
	triDirty, itemDirty []uint32
	// crossed and moved are the copy tracker's feed, kept by the E-step
	// kernels that write the posteriors its signatures read: crossed[ti] notes
	// that Stage I moved p(C|X) across 0.5 (Stage II folds it into the item),
	// moved[d] that item d's discretised evidence may have changed since the
	// last EM.TakeMovedItems. They persist with the state, so a refresh that
	// fails after its E-steps leaves its marks for the next one.
	crossed []bool
	moved   []byte
	pre, ab []float64 // per extractor, recomputed by computeVotes
	// voteDelta[e] is pre[e]-ab[e] for included extractors and 0 for
	// excluded ones — the per-observation Stage I weight with the inclusion
	// gate folded in (adding 0 is bit-neutral), kept in sync with pre/ab.
	voteDelta []float64
	// srcVote[w] is source w's Stage II vote, SourceVote(a[w], opt.N) times
	// voteWeight[w] when weights are set: two floats per triple instead of two
	// logarithms. An invariant, not a per-iteration cache: each writer of a or
	// voteWeight — setA, initSourceParam (newState, extendState),
	// CarryParamsFrom, SetSourceVoteWeights, CarrySourceVoteWeightsFrom —
	// calls syncVote, and opt.N is fixed for the state's life (NewEMFrom
	// rejects another).
	srcVote []float64
	// voteWeight, when non-nil, multiplies each source's Stage II vote — the
	// copy-adjusted discounting hook (EM.SetSourceVoteWeights): a detected
	// copier's weight drops below 1 so its echoed votes stop reinforcing the
	// original's values. nil means all-ones.
	voteWeight []float64

	// alpha[ti] is candidate triple ti's prior p(C=1) (Eq 26), a probability
	// inside [Eps, 1-Eps] so that its odds are finite. Stage I turns it into
	// odds with one division; Eq 26 writes it and the convergence test compares
	// it without a logarithm or an exponential.
	alpha []float64

	srcIncluded   []bool
	extIncluded   []bool
	coveredTriple []bool
	// structural records that the extendState call which built the current
	// index structures flipped an old unit's inclusion (EM.InclusionFlipped).
	structural bool

	// conf[i] is the effective confidence of observation i after applying
	// the UseConfidence / BinarizeAt policy; pDen[e] sums extractor e's
	// positive ones, the precision denominator of Eq 29, kept by newState
	// and extendState as observations arrive or raise their confidence.
	conf []float64
	pDen []stats.Sum

	// cOdds[ti] caches the odds of cProb[ti] as computed by the last
	// estimateCSubset covering ti: Eq 15 in odds space, prior odds times the
	// exponential of the vote sum, cProb being o/(1+o). The leave-one-out
	// precision estimator multiplies exactly this quantity by one extractor's
	// strip factor per observation (sumObservations); reading the cache
	// instead of re-deriving the odds from cProb is also more accurate where
	// the posterior saturates.
	cOdds []float64

	// M-step scratch reused across calls: per-stage groups, Stage IV's tasks,
	// per-task maxima and the correctness reduction's per-worker partials.
	srcGroups, extGroups groups
	obsTasks             []obsTask
	partMax              []float64
	setPart              [][]stats.Sum

	// tripleOfObs maps observation index -> candidate-triple index.
	tripleOfObs []int
	// obsE mirrors Snapshot.Obs[i].E as a dense int32 sidecar: the Stage I
	// inner loop touches one observation field, and loading 4 bytes instead
	// of the 40-byte Observation struct keeps it cache-resident.
	obsE []int32

	// slotOfTriple maps candidate-triple index -> slot in ItemValues[d].
	slotOfTriple []int

	// Cells: a cell is one (source, predicate) pair; an extractor "attempts"
	// the cell if it extracted at least one triple there. cellOfTriple maps
	// each candidate triple to its cell id. Cell ids are interned per distinct
	// (source, predicate) pair in first-appearance order over the triple list
	// — not the dense source×predicate product — so they are append-only as
	// the snapshot grows (a new predicate or source never renumbers existing
	// cells), which is what lets extendState carry every cell-indexed
	// structure over without a rebuild.
	cellID       map[int64]int
	cellOfTriple []int
	numCells     int
	// cellsOfExtractor lists the distinct cells each included extractor
	// attempted, in first appearance order, under ScopeAttemptedSources (nil
	// lists under ScopeAllExtractors): the reach of its absence vote, which
	// the ledger and RecomputeAbsenceMasses read.
	cellsOfExtractor [][]int

	// Attempt sets. A triple's base absence mass (Eq 13) and the recall
	// denominators its correctness feeds (Eq 30) range over the included
	// extractors attempting its cell, so cells attempted by the same
	// extractors — the same attempt set — have equal masses, and both masses
	// are kept per set: the absence mass setAbsSum (an exact sum of the
	// members' published absence votes) with its float mirror setAbs, which
	// Stage I reads through setOfCell[cellOfTriple[ti]], and the correctness
	// mass setC (the sum of the cached cCov terms of the set's triples),
	// which each member's recall denominator adds. setMembers lists each
	// set's extractors ascending, setsOfExtractor each extractor's sets. Set 0
	// is where a new cell starts: the empty set under ScopeAttemptedSources,
	// and under ScopeAllExtractors the set of every included extractor, which
	// every cell stays in. Sets are interned by their members (setID, keyed
	// by the member ids' bytes; setKey and setScratch are its scratch) and
	// only append: a cell an extractor newly attempts moves to the set with
	// the extractor added. absenceStale marks the absence masses out of sync
	// with the votes or the sets (fresh state, a grown extractor set, an
	// inclusion change): prepareVotes then rebuilds them even when the votes
	// are frozen.
	setOfCell       []int32
	setMembers      [][]int32
	setsOfExtractor [][]int32
	setID           map[string]int32
	setKey          []byte
	setScratch      []int32
	setAbsSum       []stats.Sum
	setAbs          []float64
	setC            []stats.Sum
	absenceStale    bool

	// agg holds the persistent stage III/IV sufficient statistics when
	// Options.IncrementalAggregates is on; nil otherwise. See aggregates.go.
	agg *aggState

	// times is the exported stages' cumulative wall time (EM.StageTimes).
	times StageTimes

	// ledger holds the per-unit staleness accounting behind the engine's
	// confined settling sweeps when EM.EnableStaleness was called; nil
	// otherwise (always nil under Run). See staleness.go.
	ledger *staleLedger
}

func newState(s *triple.Snapshot, opt Options) *state {
	nSrc, nExt, nTri := len(s.Sources), len(s.Extractors), len(s.Triples)
	st := &state{s: s, opt: opt, absenceStale: true}

	// Support counts and inclusion.
	st.srcIncluded, st.extIncluded = computeInclusion(s, opt)

	// Parameters. The dirty marks start all-set: a fresh state has no
	// publication baseline to share chunks against.
	st.srcDirty, st.extDirty = newMarks(nSrc), newMarks(nExt)
	st.triDirty, st.itemDirty = newMarks(nTri), newMarks(len(s.Items))
	st.crossed, st.moved = make([]bool, nTri), make([]byte, len(s.Items))
	st.a = make([]float64, nSrc)
	st.srcVote = make([]float64, nSrc)
	for w := range st.a {
		st.initSourceParam(w)
	}
	st.p = make([]float64, nExt)
	st.r = make([]float64, nExt)
	st.q = make([]float64, nExt)
	for e := range st.p {
		st.initExtractorParams(e)
	}
	st.pre = make([]float64, nExt)
	st.ab = make([]float64, nExt)
	st.voteDelta = make([]float64, nExt)

	// Effective confidences and their per-extractor masses.
	st.conf = make([]float64, len(s.Obs))
	st.pDen = make([]stats.Sum, nExt)
	for i, o := range s.Obs {
		st.conf[i] = st.effConf(o.Conf)
		st.pDen[o.E] = st.pDen[o.E].Add(pDenPart(st.conf[i]))
	}

	// Observation -> triple mapping and per-triple coverage.
	st.obsE = make([]int32, len(s.Obs))
	for i, o := range s.Obs {
		st.obsE[i] = int32(o.E)
	}
	st.tripleOfObs = make([]int, len(s.Obs))
	st.coveredTriple = make([]bool, nTri)
	for ti, idxs := range s.ByTriple {
		for _, oi := range idxs {
			st.tripleOfObs[oi] = ti
			if st.extIncluded[s.Obs[oi].E] {
				st.coveredTriple[ti] = true
			}
		}
	}

	// Value slot per candidate triple.
	st.slotOfTriple = make([]int, nTri)
	for ti, tr := range s.Triples {
		vs := s.ItemValues[tr.D]
		st.slotOfTriple[ti] = sort.SearchInts(vs, tr.V)
	}

	// (source, predicate) cells and per-extractor attempt scopes. Interning
	// in triple order keeps cell ids deterministic: compiling the corpus and
	// extending a parent snapshot produce the identical triple list, hence
	// identical cell ids.
	st.cellID = make(map[int64]int)
	st.cellOfTriple = make([]int, nTri)
	for ti, tr := range s.Triples {
		st.cellOfTriple[ti] = st.internCell(tr.W, predOfItem(s, tr.D))
	}
	st.buildExtractorCells()

	// The prior, and the matching odds cache for the prior-valued cProb every
	// estimation starts from.
	alpha, odds := initialPrior(opt)
	st.alpha = make([]float64, nTri)
	st.cOdds = make([]float64, nTri)
	for ti := range st.alpha {
		st.alpha[ti], st.cOdds[ti] = alpha, odds
	}
	if opt.IncrementalAggregates {
		st.agg = newAggState(nSrc, nExt, nTri, len(s.Obs))
	}
	return st
}

// initialPrior returns the prior a candidate triple starts from — Options.Alpha
// clamped to where its odds are finite — and those odds.
func initialPrior(opt Options) (alpha, odds float64) {
	alpha = stats.ClampProb(opt.Alpha)
	return alpha, alpha / (1 - alpha)
}

// effConf applies the UseConfidence / BinarizeAt policy to a raw observation
// confidence.
func (st *state) effConf(c float64) float64 {
	if st.opt.UseConfidence {
		return c
	}
	if st.opt.BinarizeAt >= 0 {
		if c > st.opt.BinarizeAt {
			return 1
		}
		return 0
	}
	return 1
}

// computeInclusion evaluates the support thresholds for every source and
// extractor of the snapshot. Fresh slices are returned so callers may compare
// against (and keep) the previous generation's.
func computeInclusion(s *triple.Snapshot, opt Options) (srcInc, extInc []bool) {
	srcInc = make([]bool, len(s.Sources))
	minSrc := max(1, opt.MinSourceSupport)
	for w, tis := range s.TriplesOfSource {
		srcInc[w] = len(tis) >= minSrc
	}
	extInc = make([]bool, len(s.Extractors))
	minExt := max(1, opt.MinExtractorSupport)
	for e, obs := range s.ObsOfExtractor {
		extInc[e] = len(obs) >= minExt
	}
	return srcInc, extInc
}

// setA/setP/setR/setQ are the only per-unit writers of the parameter arrays:
// they compare before storing so that an estimator landing on the identical
// value (the common case for units outside a refresh's dirty set) leaves the
// chunk's publication sharing intact, and return how far the value moved, the
// M-stages' report for Iterate's convergence test. setA also keeps the
// source's vote: one M-step worker writes a given w, so its vote has one
// writer too.
func (st *state) setA(w int, v float64) float64 {
	d := setUnit(st.a, st.srcDirty, w, v)
	if d != 0 {
		st.syncVote(w)
	}
	return d
}

// syncVote re-derives srcVote[w]; whoever wrote a[w] or voteWeight[w] calls it.
func (st *state) syncVote(w int) {
	v := SourceVote(st.a[w], st.opt.N)
	if st.voteWeight != nil {
		v *= st.voteWeight[w]
	}
	st.srcVote[w] = v
}

func (st *state) setP(e int, v float64) float64 { return setUnit(st.p, st.extDirty, e, v) }
func (st *state) setR(e int, v float64) float64 { return setUnit(st.r, st.extDirty, e, v) }
func (st *state) setQ(e int, v float64) float64 { return setUnit(st.q, st.extDirty, e, v) }

func setUnit(vals []float64, marks []uint32, i int, v float64) float64 {
	old := vals[i]
	if old == v {
		return 0
	}
	vals[i] = v
	markUnit(marks, i)
	return math.Abs(old - v)
}

// initSourceParam seeds source w's accuracy from the defaults and the
// explicit initialisation map — the per-unit half of newState's parameter
// setup, shared with extendState for units that appear later. The vote is
// derived whether or not setA found the slot already holding the value.
func (st *state) initSourceParam(w int) {
	a := st.opt.InitAccuracy
	if v, ok := st.opt.InitialSourceAccuracy[w]; ok && st.srcIncluded[w] {
		a = stats.ClampProb(v)
	}
	st.setA(w, a)
	st.syncVote(w)
}

// initExtractorParams seeds extractor e's precision, recall and Q.
func (st *state) initExtractorParams(e int) {
	opt := st.opt
	p, r := PFromQR(opt.InitQ, opt.InitRecall, opt.Gamma), opt.InitRecall
	if v, ok := opt.InitialExtractorPrecision[e]; ok && st.extIncluded[e] {
		p = stats.ClampProb(v)
	}
	if v, ok := opt.InitialExtractorRecall[e]; ok && st.extIncluded[e] {
		r = stats.ClampProb(v)
	}
	q := QFromPR(p, r, opt.Gamma)
	// Honour the exact default Q when no smart initialisation applies,
	// since InitQ and derived-from-P values can differ.
	if _, ok := opt.InitialExtractorPrecision[e]; !ok {
		q = opt.InitQ
	}
	if v, ok := opt.InitialExtractorQ[e]; ok && st.extIncluded[e] {
		q = stats.ClampProb(v)
	}
	st.setP(e, p)
	st.setR(e, r)
	st.setQ(e, q)
}

// predOfItem returns the predicate id of data item d (0 when the snapshot
// predates predicate interning).
func predOfItem(s *triple.Snapshot, d int) int {
	if d < len(s.PredOfItem) {
		return s.PredOfItem[d]
	}
	return 0
}

// buildExtractorCells (re)builds the attempted-cell lists and the attempt
// sets from scratch in O(attempted pairs). Dedup uses a stamp array instead of
// a map: this pass touches every observation, and hashing would dominate an
// otherwise linear loop. Walking ObsOfExtractor keeps each extractor's
// observations contiguous, letting one stamp value per extractor suffice, and
// lists every cell's extractors in ascending order, so each cell's set is
// interned once, from its final members, which keep the build's list of them.
// There are at most as many sets as cells, plus set 0. The absence masses are
// left stale and the correctness masses empty.
func (st *state) buildExtractorCells() {
	s := st.s
	nExt, nCells := len(s.Extractors), st.numCells
	st.cellsOfExtractor = make([][]int, nExt)
	st.setOfCell = make([]int32, nCells)
	st.setMembers, st.setsOfExtractor = make([][]int32, 0, nCells+1), make([][]int32, nExt)
	st.setID = make(map[string]int32)
	st.setAbsSum, st.setAbs, st.setC = make([]stats.Sum, 0, nCells+1), make([]float64, 0, nCells+1), make([]stats.Sum, 0, nCells+1)
	st.absenceStale = true
	st.internSet(nil) // set 0
	if st.opt.Scope == ScopeAllExtractors {
		st.joinBaseSet(0, nExt)
		return
	}
	cellStamp := make([]int32, nCells)
	start := make([]int32, nCells+1) // cell c's extractors, counted, then exts[start[c]:start[c+1]]
	for e, obsIdxs := range s.ObsOfExtractor {
		if !st.extIncluded[e] {
			continue
		}
		for _, oi := range obsIdxs {
			c := st.cellOfTriple[st.tripleOfObs[oi]]
			if cellStamp[c] != int32(e)+1 {
				cellStamp[c] = int32(e) + 1
				st.cellsOfExtractor[e] = append(st.cellsOfExtractor[e], c)
				start[c+1]++
			}
		}
	}
	for c := range nCells {
		start[c+1] += start[c]
	}
	exts, at := make([]int32, start[nCells]), cellStamp
	copy(at, start[:nCells])
	for e, cells := range st.cellsOfExtractor {
		for _, c := range cells {
			exts[at[c]] = int32(e)
			at[c]++
		}
	}
	for c := range nCells {
		st.setOfCell[c] = st.internSet(exts[start[c]:start[c+1]:start[c+1]])
	}
}

// joinBaseSet adds the included extractors among [from, to) to set 0 under
// ScopeAllExtractors, where every cell is in it and no cell ever moves (so
// setID is not consulted); a joining extractor's recall denominator takes in
// the set's correctness mass. A no-op under ScopeAttemptedSources, where set 0
// stays empty.
func (st *state) joinBaseSet(from, to int) {
	if st.opt.Scope != ScopeAllExtractors {
		return
	}
	for e := from; e < to; e++ {
		if !st.extIncluded[e] {
			continue
		}
		st.setMembers[0] = append(st.setMembers[0], int32(e))
		st.setsOfExtractor[e] = append(st.setsOfExtractor[e], 0)
		if ag := st.agg; ag != nil {
			ag.rDen[e] = ag.rDen[e].AddSum(st.setC[0])
		}
	}
}

// attempt records that included extractor e observed candidate triple ti, so
// attempts its cell. Unless the cell's set already holds e, the cell joins
// e's attempted cells and moves to the set with e added, taking its
// correctness mass along while the Stage IV caches are valid: the members the
// two sets share see no change, and e's recall denominator gains the mass.
// The mass is re-summed from the cell's cached terms over the ledger's
// triplesOfCell, O(cell); an EM without a ledger (one its caller drives
// directly) finds the cell's triples among its source's.
func (st *state) attempt(e, ti int) {
	c := st.cellOfTriple[ti]
	from := st.setOfCell[c]
	old := st.setMembers[from]
	k, ok := slices.BinarySearch(old, int32(e))
	if ok {
		return
	}
	st.cellsOfExtractor[e] = append(st.cellsOfExtractor[e], c)
	st.setScratch = slices.Insert(append(st.setScratch[:0], old...), k, int32(e))
	n := len(st.setMembers)
	to := st.internSet(st.setScratch)
	if int(to) == n {
		st.setScratch = nil // the new set keeps the scratch as its members
	}
	st.setOfCell[c] = to
	ag := st.agg
	if ag == nil || !ag.valid[stageExtractors] {
		return
	}
	var mass, neg stats.Sum // Sub rounds oddly, so neg is exactly -mass
	if led := st.ledger; led != nil {
		for _, t := range led.triplesOfCell[c] {
			mass, neg = mass.Add(ag.cCov[t]), neg.Sub(ag.cCov[t])
		}
	} else {
		for _, t := range st.s.TriplesOfSource[st.s.Triples[ti].W] {
			if st.cellOfTriple[t] == c {
				mass, neg = mass.Add(ag.cCov[t]), neg.Sub(ag.cCov[t])
			}
		}
	}
	st.setC[from] = st.setC[from].AddSum(neg)
	st.setC[to] = st.setC[to].AddSum(mass)
	ag.rDen[e] = ag.rDen[e].AddSum(mass)
}

// internSet returns the id of the set of the given extractors (ascending),
// interning it on first sight, when the set keeps members as its list: the
// caller must not write to it again. A new set's absence mass is summed from
// its members' published votes, which is what a rebuild would derive while
// the masses are valid.
func (st *state) internSet(members []int32) int32 {
	key := st.setKey[:0]
	for _, e := range members {
		key = binary.LittleEndian.AppendUint32(key, uint32(e))
	}
	st.setKey = key
	if set, ok := st.setID[string(key)]; ok {
		return set
	}
	set := int32(len(st.setMembers))
	var abs stats.Sum
	for _, e := range members {
		abs = abs.Add(st.ab[e])
		st.setsOfExtractor[e] = append(st.setsOfExtractor[e], set)
	}
	st.setMembers = append(st.setMembers, members)
	st.setAbsSum, st.setAbs = append(st.setAbsSum, abs), append(st.setAbs, abs.Float())
	st.setC = append(st.setC, stats.Sum{})
	st.setID[string(key)] = set
	return set
}

// internCell returns the dense id of the (source, predicate) cell, assigning
// the next id on first sight. Ids depend only on the first-appearance order
// of pairs over the triple list, so they are stable under extension.
func (st *state) internCell(w, p int) int {
	key := int64(w)<<32 | int64(uint32(p))
	if c, ok := st.cellID[key]; ok {
		return c
	}
	c := st.numCells
	st.cellID[key] = c
	st.numCells++
	return c
}

// computeVotes recomputes the per-extractor presence/absence votes (Eqs
// 12-13) from the current R and Q, for every extractor. Partial engine
// iterations instead go through selectiveVotes, which republishes only the
// extractors whose vote parameters moved beyond tolerance: keeping the other
// votes bitwise stable is what lets the incremental M-step reuse its
// per-observation caches instead of re-scanning every vote-shifted
// extractor.
func (st *state) computeVotes() {
	st.noteVoteRefresh()
	for e := range st.pre {
		st.pre[e] = PresenceVote(st.r[e], st.q[e])
		st.ab[e] = AbsenceVote(st.r[e], st.q[e])
	}
}

// selectiveVotes republishes the votes of exactly the extractors whose R/Q
// have moved at least Tol since their votes were last derived — the
// per-extractor counterpart of the engine's old global vote-drift gate. Each
// republish charges the movement to the ledger (the extractor's reach is now
// stale) and, while the absence masses are valid, folds the vote change into
// the masses of the extractor's sets — exactly, so they equal what the
// rebuild would derive. Extractors below the threshold
// keep bitwise-stable published votes, so their cached E-step inputs and
// M-step observation caches stay exactly valid.
func (st *state) selectiveVotes() {
	led := st.ledger
	tol := st.opt.Tol
	adjust := !st.absenceStale
	for e := range st.pre {
		move := math.Abs(st.r[e]-led.rAt[e]) + math.Abs(st.q[e]-led.qAt[e])
		if move < tol {
			continue
		}
		led.extDrift[e] += move
		led.rAt[e], led.qAt[e] = st.r[e], st.q[e]
		pre, ab := PresenceVote(st.r[e], st.q[e]), AbsenceVote(st.r[e], st.q[e])
		if adjust && st.extIncluded[e] {
			dAb := stats.Term(ab).Sub(st.ab[e])
			for _, set := range st.setsOfExtractor[e] {
				st.setAbsSum[set] = st.setAbsSum[set].AddSum(dAb)
				st.setAbs[set] = st.setAbsSum[set].Float()
			}
			st.voteDelta[e] = pre - ab
		}
		st.pre[e], st.ab[e] = pre, ab
	}
}

// prepareVotes readies the per-iteration vote state: optionally refreshed
// extractor votes, the folded Stage I vote deltas, and the base absence mass
// of every attempt set, in O(Σ|set|) (the Stage II source votes are kept by
// their writers: state.srcVote). The masses are exact sums, so two states
// with equal votes and attempted cells produce bit-identical vote state
// however they were constructed.
func (st *state) prepareVotes(refreshVotes bool) {
	if refreshVotes {
		st.computeVotes()
	} else if st.ledger != nil {
		// Partial engine iterations: republish per extractor under the Tol
		// contract (folding any changes into valid absence masses in place);
		// a stale mass structure falls through to the rebuild below,
		// which reads the freshly republished votes.
		st.selectiveVotes()
	}
	if !refreshVotes && !st.absenceStale {
		// Frozen (or selectively adjusted) votes over an unchanged
		// attempted-cell structure: the absence masses and vote deltas are
		// already exactly what the rebuild below would produce.
		return
	}
	st.absenceStale = false
	for e := range st.voteDelta {
		if st.extIncluded[e] {
			st.voteDelta[e] = st.pre[e] - st.ab[e]
		} else {
			st.voteDelta[e] = 0
		}
	}
	for set, members := range st.setMembers {
		var abs stats.Sum
		for _, e := range members {
			abs = abs.Add(st.ab[e])
		}
		st.setAbsSum[set], st.setAbs[set] = abs, abs.Float()
	}
}

// forEachIndex runs fn over subset (or over all of [0,total) when subset is
// nil) on the worker pool — the shared dispatch of the subset-capable
// stages.
func forEachIndex(total int, subset []int, workers int, fn func(i int)) {
	if subset == nil {
		parallel.ForEach(total, workers, fn)
		return
	}
	parallel.ForEach(len(subset), workers, func(k int) { fn(subset[k]) })
}

// voteCap bounds a triple's vote sum before it is exponentiated. A vote is at
// most log((1-Eps)/Eps) ≈ 13.8, so some fifty extractors pinned at the clamps
// would push an unbounded exp past the float64 range, and Inf/(1+Inf) is NaN.
// At ±600 the posterior is already below 1e-250 or equal to 1 for any prior in
// [Eps, 1-Eps], while the odds (within 1e6·e^±600) and their product with a
// leave-one-out strip factor (within e^±28 for a confidence in [0,1]) stay
// finite, normal numbers.
const voteCap = 600

// voteExp is the factor Eq 15 scales the prior's odds by: the exponential of
// the vote sum, saturated at ±voteCap.
func voteExp(vcc float64) float64 {
	return math.Exp(min(max(vcc, -voteCap), voteCap))
}

// posteriorOdds is Eq 15 in odds space: σ(vcc + logit α) is o/(1+o) for the
// prior's odds scaled by the exponential of the vote sum — one exponential and
// no logarithm a triple.
func posteriorOdds(alpha, vcc float64) float64 {
	return alpha / (1 - alpha) * voteExp(vcc)
}

// voteMemo remembers the voteExp values one Stage I block has computed, by
// the exact bits of the vote sum. A vote sum is a cell's absence mass plus a
// few confidence-weighted vote deltas, and extractors emit few distinct
// confidences, so a block sees a handful of distinct sums: 64 direct-mapped
// slots, each returning exactly what voteExp returned for the same bits. +0.0
// is a legal vote sum (a triple whose extractors are all excluded), so a slot
// carries a validity flag rather than reserving a key.
type voteMemo struct {
	bits [voteSlots]uint64
	ok   [voteSlots]bool
	e    [voteSlots]float64
}

const voteSlots = 64

// voteSlot spreads a vote sum's bits over the memo's slots (Fibonacci hashing:
// the top six bits of the product).
func voteSlot(b uint64) uint64 { return b * 0x9E3779B97F4A7C15 >> 58 }

func (m *voteMemo) exp(vcc float64) float64 {
	b := math.Float64bits(vcc)
	i := voteSlot(b)
	if !m.ok[i] || m.bits[i] != b {
		m.bits[i], m.ok[i], m.e[i] = b, true, voteExp(vcc)
	}
	return m.e[i]
}

// tripleBlock is the number of candidate triples one Stage I task scores with
// one voteMemo. The memo is exact, so the block size moves no bit of the
// result; it only bounds how long a memo lives.
const tripleBlock = 1024

// estimateCSubset computes p(C_wdv=1|X) (Eq 15 with the confidence-weighted
// vote count of Eq 31) for the candidate triples listed in tis, or for every
// candidate triple when tis is nil, by fixed blocks of the list on the worker
// pool. Each index's computation is independent, so a caller may partition
// the triple space and invoke this concurrently on disjoint subsets.
// prepareVotes must have run since the last parameter update.
//
// A triple whose p(C|X) lands on the other side of 0.5 than the value it
// overwrites — the Provides gate the copy tracker reads — is noted in
// state.crossed, for Stage II to fold into its item's mark.
func (st *state) estimateCSubset(cProb []float64, tis []int, workers int) {
	s := st.s
	byTriple, conf, obsE, vd := s.ByTriple, st.conf, st.obsE, st.voteDelta
	setAbs, setOf, cellOf := st.setAbs, st.setOfCell, st.cellOfTriple
	cOdds, alpha, crossed := st.cOdds, st.alpha, st.crossed
	n := len(s.Triples)
	if tis != nil {
		n = len(tis)
	}
	parallel.ForEach((n+tripleBlock-1)/tripleBlock, workers, func(b int) {
		var memo voteMemo
		for k := b * tripleBlock; k < min((b+1)*tripleBlock, n); k++ {
			ti := k
			if tis != nil {
				ti = tis[k]
			}
			vcc := setAbs[setOf[cellOf[ti]]]
			for _, oi := range byTriple[ti] {
				// The extractor's absence vote is already in the base mass;
				// replace it with the soft mixture c·Pre + (1-c)·Abs (Eq 31).
				// voteDelta folds the inclusion gate in: excluded extractors
				// contribute a bit-neutral +0.
				vcc += conf[oi] * vd[obsE[oi]]
			}
			// posteriorOdds' expression, the exponential from the memo.
			o := alpha[ti] / (1 - alpha[ti]) * memo.exp(vcc)
			p := o / (1 + o)
			if (p >= 0.5) != (cProb[ti] >= 0.5) {
				crossed[ti] = true
			}
			cOdds[ti] = o
			cProb[ti] = p
		}
	})
}

// estimateVSubset computes p(Vd|X) (Eqs 23-25) for the items listed in
// items, or for every item when items is nil, optionally using the MAP Ĉ
// instead of the soft weights (§3.3.2 vs §3.3.3). Like estimateCSubset, the
// per-item computations are independent and safe to partition.
//
// It also keeps the copy tracker's marks (state.moved): an item is marked
// when Stage I noted one of its triples crossing 0.5 (the note is consumed
// here), when a row entry lands on the other side of 0.5 than the value it
// overwrites, or when its row is newly allocated or resized. Those are the
// only ways an item's discretised evidence moves between two tracker updates
// without the item gaining a candidate triple.
func (st *state) estimateVSubset(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, items []int, workers int) {
	s := st.s
	forEachIndex(len(s.Items), items, workers, func(d int) {
		vs := s.ItemValues[d]
		// The item's posterior row doubles as the score buffer: scores
		// accumulate in place and the softmax transforms them in place, so
		// the steady state allocates nothing per item. Published generations
		// hold copies of the engine's rows; only Run publishes its own.
		row := valueProb[d]
		resized := len(row) != len(vs)
		moved := resized || len(vs) > 64
		var above uint64
		if resized {
			row = make([]float64, len(vs))
			valueProb[d] = row
		} else {
			above = sidesAbove(row)
			clear(row)
		}
		covered := false
		for _, ti := range s.TriplesOfItem[d] {
			if st.crossed[ti] {
				st.crossed[ti] = false
				moved = true
			}
			tr := s.Triples[ti]
			if !st.srcIncluded[tr.W] || !st.coveredTriple[ti] {
				continue
			}
			covered = true
			w := cProb[ti]
			if !st.opt.WeightedVote {
				if w >= 0.5 {
					w = 1
				} else {
					w = 0
				}
			}
			row[st.slotOfTriple[ti]] += w * st.srcVote[tr.W]
		}
		coveredItem[d] = covered
		if covered {
			rest := max(st.opt.N+1-len(vs), 0)
			restMass[d] = stats.SoftmaxWithRestInPlace(row, rest, 0)
		} else {
			restMass[d] = 0 // row is all-zero: nothing was accumulated
		}
		if moved || sidesAbove(row) != above {
			st.moved[d] = 1
		}
	})
}

// sidesAbove returns which of a row's first 64 entries are at least 0.5, one
// bit each. estimateVSubset marks an item with a longer row whenever it
// re-estimates it: conservative, and items with more candidate values are
// rare.
func sidesAbove(row []float64) uint64 {
	var bits uint64
	for i, p := range row[:min(len(row), 64)] {
		if p >= 0.5 {
			bits |= 1 << i
		}
	}
	return bits
}

// aContrib returns candidate triple ti's contribution to its source's
// accuracy numerator and denominator (Eq 28, or Eq 27 when WeightedVote is
// off). Both sums range over candidates the MAP estimate considers provided
// (the paper's "dv : Ĉwdv > 0"); Eq 28 additionally weights them by p(C|X).
// The gate matters: under heavy extraction noise, candidates the model
// already disbelieves would otherwise flood the denominator with phantom
// "provided" mass and bias every accuracy towards zero. Non-contributing
// triples return (0, 0), which sums to a bit-identical result with skipping
// them — the property the incremental aggregates rely on.
func (st *state) aContrib(ti int, cProb []float64, valueProb [][]float64) (num, den float64) {
	if !st.coveredTriple[ti] || cProb[ti] < 0.5 {
		return 0, 0
	}
	tr := st.s.Triples[ti]
	weight := cProb[ti]
	if !st.opt.WeightedVote {
		weight = 1 // Eq 27: plain average over Ĉ=1 candidates
	}
	return weight * valueProb[tr.D][st.slotOfTriple[ti]], weight
}

// deriveA turns a source's aggregated (num, den) into its accuracy estimate,
// applying the clamp, and returns how far A moved; an excluded source, or one
// with no provided mass, keeps its previous value, exactly as the paper's
// estimator leaves it untouched. It is the one M-step writer of A, called at
// most once per source per iteration by the worker that owns w, so it also
// charges the movement to the staleness ledger.
func (st *state) deriveA(w int, num, den stats.Sum) float64 {
	d := den.Float()
	if d <= 0 || !st.srcIncluded[w] {
		return 0
	}
	a := num.Float() / d
	if c := st.opt.AccuracyClamp; c > 0.5 && c < 1 {
		a = stats.Clamp(a, 1-c, c)
	}
	moved := st.setA(w, stats.ClampProb(a))
	if led := st.ledger; led != nil {
		led.srcDrift[w] += moved
	}
	return moved
}

// estimateA is Stage III: source accuracy (Eq 28 / Eq 27) over the candidate
// triples in tis (nil = all; see aggregates.go), returning the largest
// movement of A. Its groups — the list's triples by source, or every source's
// triples — run in line when they hold fewer than obsBlock triples in all,
// else on the pool, each keeping its movement until the join.
func (st *state) estimateA(cProb []float64, valueProb [][]float64, tis []int) float64 {
	s, ag := st.s, st.agg
	var g *groups
	n, work := len(s.Sources), len(s.Triples)
	if !ag.visitsAll(stageSources, tis, len(s.Triples)) {
		g = st.srcGroups.reset(len(s.Sources))
		for _, ti := range tis {
			g.add(s.Triples[ti].W, ti)
		}
		g.place()
		n, work = len(g.units), len(tis)
	}
	part := st.partMaxes(n)
	if work < obsBlock {
		for k := range part {
			part[k] = st.sumSource(g, k, cProb, valueProb)
		}
	} else {
		parallel.ForEach(n, st.opt.Workers, func(k int) {
			part[k] = st.sumSource(g, k, cProb, valueProb)
		})
	}
	return maxOf(part)
}

// sumSource runs Stage III's group k — the k-th source g touched, or source k
// visited whole when g is nil: it replaces the group's terms in the source's
// sums and derives its accuracy, returning how far it moved. Without caches
// an excluded source is skipped.
func (st *state) sumSource(g *groups, k int, cProb []float64, valueProb [][]float64) float64 {
	ag, w, tris := st.agg, k, st.s.TriplesOfSource[k]
	var num, den stats.Sum
	if g != nil {
		w, tris = g.units[k], g.span(k)
		num, den = ag.aNum[w], ag.aDen[w]
	} else if ag == nil && !st.srcIncluded[w] {
		return 0
	}
	for _, ti := range tris {
		nc, dc := st.aContrib(ti, cProb, valueProb)
		if g != nil {
			if nc == ag.aNumC[ti] && dc == ag.aDenC[ti] {
				continue
			}
			num, den = num.Sub(ag.aNumC[ti]), den.Sub(ag.aDenC[ti])
		}
		if dc != 0 { // else nc is 0 too
			num, den = num.Add(nc), den.Add(dc)
		}
		if ag != nil {
			ag.aNumC[ti], ag.aDenC[ti] = nc, dc
		}
	}
	if ag != nil {
		ag.aNum[w], ag.aDen[w] = num, den
	}
	return st.deriveA(w, num, den)
}

// An observation's term in its extractor's precision/recall numerator (Eqs
// 29-33) is the effective confidence c times the extraction-correctness
// posterior of its triple, leave-one-out when configured: c·looPosterior(odds,
// strip factor), the strip factor from a stripMemo. sumObservations is the
// one loop that evaluates it.

// stripFactor is what removing one extractor's evidence multiplies a triple's
// posterior odds by: the extractor added c·Pre + (1-c)·Abs = c·(Pre-Abs) + Abs
// to the vote sum (its presence vote and its share of the base absence mass,
// Eq 31), so scoring the extraction by the rest of the evidence divides the
// odds by the exponential of that. A pure function of the confidence and the
// extractor's published votes: every observation of an extractor with the same
// confidence has the same factor.
func stripFactor(c, voteDelta, ab float64) float64 {
	return math.Exp(-(c*voteDelta + ab))
}

// looPosterior is the leave-one-out p(C|X) (Eqs 32-33): the Stage I odds o
// times the strip factor s, as a probability.
func looPosterior(o, s float64) float64 {
	os := o * s
	return os / (1 + os)
}

// stripMemo remembers the strip factors a Stage IV task has computed, by
// extractor and confidence: within one call the votes stand still, so a
// factor is a function of those two alone, and extractors emit few distinct
// confidences (a quantised score, or 1 throughout when confidences are
// unspecified or unused). Sixteen direct-mapped slots indexed by the
// confidence's top mantissa bits mixed with the extractor id — one would
// thrash on a feed interleaving 1, 0.9, 0.8. A slot returns exactly what
// stripFactor returned for the same extractor and bits, and a pair not seen
// before costs the one exponential it always did.
type stripMemo struct {
	bits [16]uint64 // zero is the bits of confidence 0, which is never looked up
	ext  [16]int32
	s    [16]float64
}

func (m *stripMemo) factor(e int, c, voteDelta, ab float64) float64 {
	b := math.Float64bits(c)
	i := (b>>45 ^ uint64(e)) & 15
	if m.bits[i] != b || m.ext[i] != int32(e) {
		m.bits[i], m.ext[i], m.s[i] = b, int32(e), stripFactor(c, voteDelta, ab)
	}
	return m.s[i]
}

// derivePRQ turns an extractor's aggregated (num, pDen, rDen) into its
// precision, recall and Q estimates, with the smoothing and floors, and
// returns how far P and R moved.
func (st *state) derivePRQ(e int, numSum, pDenSum, rDenSum stats.Sum) (movedP, movedR float64) {
	k := st.opt.Smoothing
	p, r := st.p[e], st.r[e]
	num, pDen, rDen := numSum.Float(), pDenSum.Float(), rDenSum.Float()
	if pDen > 0 {
		p = stats.ClampProb((num + k/2) / (pDen + k))
	}
	if rDen > 0 {
		r = stats.ClampProb((num + k/2) / (rDen + k))
	}
	q := QFromPR(p, r, st.opt.Gamma)
	if q < st.opt.QFloor {
		q = st.opt.QFloor
	}
	st.setQ(e, q)
	return st.setP(e, p), st.setR(e, r)
}

// estimatePRQ is Stage IV: extractor precision and recall (Eqs 29-33) and Q
// via Eq 7, over the candidate triples in tis (nil = all; see aggregates.go),
// returning the largest movements of P and R. A call over every index refills
// the sets' correctness masses (sumCorrectness); a list replaces its triples'
// terms in their sets' masses and in the recall denominators of the sets'
// members. It then sums the visited observations by (extractor, obsBlock)
// task; an extractor whose denominator alone moved gets an empty task, so it
// is derived too.
func (st *state) estimatePRQ(cProb []float64, tis []int) (movedP, movedR float64) {
	s, ag := st.s, st.agg
	whole := ag.visitsAll(stageExtractors, tis, len(s.Triples))
	g := st.extGroups.reset(len(s.Extractors))
	if whole {
		tis = nil
		st.sumCorrectness(cProb)
	}
	for _, ti := range tis {
		var cp float64
		if st.coveredTriple[ti] {
			cp = cProb[ti]
		}
		d := stats.Term(cp).Sub(ag.cCov[ti])
		ag.cCov[ti] = cp
		if d == (stats.Sum{}) {
			continue
		}
		set := st.setOfCell[st.cellOfTriple[ti]]
		st.setC[set] = st.setC[set].AddSum(d)
		for _, e := range st.setMembers[set] {
			ag.rDen[e] = ag.rDen[e].AddSum(d)
			g.touch(int(e), false)
		}
	}

	for e, inc := range st.extIncluded {
		if inc && (whole || st.opt.LeaveOneOut && (st.pre[e] != ag.preAt[e] || st.ab[e] != ag.abAt[e])) {
			g.touch(e, true)
		}
	}
	obsE, included, byTri := st.obsE, st.extIncluded, s.ByTriple
	for _, ti := range tis {
		for _, oi := range byTri[ti] {
			if e := int(obsE[oi]); included[e] && !g.whole[e] {
				g.add(e, oi)
			}
		}
	}
	g.place()
	tasks, work := g.tasks(st.obsTasks[:0], s.ObsOfExtractor)
	st.obsTasks = tasks
	if work < obsBlock { // too little work to pay for the pool
		for t := range tasks {
			st.sumObservations(&tasks[t], cProb)
		}
	} else {
		parallel.ForEach(len(tasks), st.opt.Workers, func(t int) {
			st.sumObservations(&tasks[t], cProb)
		})
	}

	// Merge each extractor's blocks into its first task, and derive.
	var first *obsTask
	for t := range tasks {
		if tk := &tasks[t]; tk.lo == 0 {
			first = tk
		} else {
			first.num = first.num.AddSum(tk.num)
		}
	}
	for t := range tasks {
		tk := &tasks[t]
		if tk.lo != 0 {
			continue
		}
		if e := tk.e; ag != nil {
			ag.eNum[e], ag.rDen[e] = tk.num, tk.rDen
			if tk.whole {
				ag.preAt[e], ag.abAt[e] = st.pre[e], st.ab[e]
			}
		}
		p, r := st.derivePRQ(tk.e, tk.num, st.pDen[tk.e], tk.rDen)
		movedP, movedR = max(movedP, p), max(movedR, r)
	}
	return movedP, movedR
}

// sumCorrectness refills every set's correctness mass from the covered-gated
// posterior of every candidate triple, caching each term when there are
// caches. It is a parallel reduction: each worker sums a contiguous triple
// range into partials per set — the first range straight into the masses,
// the others into buffers kept across calls — and the partials merge after
// the join. They are exact sums, so neither the ranges nor the merge order can
// move a bit.
func (st *state) sumCorrectness(cProb []float64) {
	n, nSets := len(st.s.Triples), len(st.setC)
	workers := st.opt.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	nb := max(1, min(workers, n/obsBlock))
	st.setPart = grow(st.setPart, nb-1, nil)
	parts := st.setPart[:nb-1]
	var cCov []float64
	if st.agg != nil {
		cCov = st.agg.cCov
	}
	covered, setOf, cellOf := st.coveredTriple, st.setOfCell, st.cellOfTriple
	parallel.ForEach(nb, workers, func(b int) {
		part := st.setC
		if b > 0 {
			part = slices.Grow(parts[b-1][:0], nSets)[:nSets]
			parts[b-1] = part
		}
		clear(part)
		for ti := b * n / nb; ti < (b+1)*n/nb; ti++ {
			var cp float64
			if covered[ti] {
				cp = cProb[ti]
			}
			if cCov != nil {
				cCov[ti] = cp
			}
			set := setOf[cellOf[ti]]
			part[set] = part[set].Add(cp)
		}
	})
	for _, part := range parts {
		for set, sum := range part {
			st.setC[set] = st.setC[set].AddSum(sum)
		}
	}
}

// obsBlock is the number of observations one Stage IV task sums. The paper
// has sixteen extractors and a serving corpus may have one, so Stage IV cannot
// parallelise over extractors alone: it reduces by blocks of each extractor's
// visited observations. The blocks only split the work — the partials are
// exact sums, so no block boundary or merge order can move a bit of the
// result.
const obsBlock = 4096

// obsTask is one unit of the Stage IV reduction: block lo/obsBlock of the
// observations a call visits for extractor e, whether it visits e whole, and
// the sums its run leaves. They start from zero, or from e's cached sums in
// e's first task (lo == 0) when e is not visited whole; later blocks merge
// into the first task.
type obsTask struct {
	e, lo     int
	obs       []int
	whole     bool
	num, rDen stats.Sum
}

// sumObservations is the one per-observation loop of Stage IV: it runs one
// task, replacing its observations' numerator terms. A first task also leaves
// the recall denominator: the cached one, or a whole extractor's sum over its
// attempt sets' correctness masses.
func (st *state) sumObservations(tk *obsTask, cProb []float64) {
	ag, e, loo, whole := st.agg, tk.e, st.opt.LeaveOneOut, tk.whole
	voteDelta, ab := st.pre[e]-st.ab[e], st.ab[e]
	var memo stripMemo
	var num, rDen stats.Sum
	if !whole && tk.lo == 0 {
		num, rDen = ag.eNum[e], ag.rDen[e]
	}
	for _, oi := range tk.obs {
		c := st.conf[oi]
		var v float64
		if c > 0 {
			ti := st.tripleOfObs[oi]
			if loo {
				v = c * looPosterior(st.cOdds[ti], memo.factor(e, c, voteDelta, ab))
			} else {
				v = c * cProb[ti]
			}
		}
		if !whole {
			if v == ag.obsNumC[oi] {
				continue
			}
			num = num.Sub(ag.obsNumC[oi])
		}
		if v != 0 {
			num = num.Add(v)
		}
		if ag != nil {
			ag.obsNumC[oi] = v
		}
	}
	if tk.lo == 0 && whole {
		for _, set := range st.setsOfExtractor[e] {
			rDen = rDen.AddSum(st.setC[set])
		}
	}
	tk.num, tk.rDen = num, rDen
}

// bootstrap is the pre-iteration extractor M-step from the prior p(C)=Alpha,
// so the first absence votes use data-driven per-unit recall instead of the
// global defaults (see Options.DisableBootstrap); it leaves cProb at the
// prior. Explicitly initialised parameters are re-applied afterwards, so the
// bootstrap only fills in what the caller did not pin.
func (st *state) bootstrap(cProb []float64) {
	if st.opt.DisableBootstrap || st.opt.FreezeExtractors {
		return
	}
	for ti := range cProb {
		cProb[ti] = st.opt.Alpha
	}
	markIndices(st.triDirty, nil)
	st.estimatePRQ(cProb, nil)
	st.applyExplicitExtractorInits()
}

// applyExplicitExtractorInits re-imposes caller-pinned extractor parameters
// on top of whatever the bootstrap estimated.
func (st *state) applyExplicitExtractorInits() {
	for e := range st.p {
		if !st.extIncluded[e] {
			continue
		}
		pv, hasP := st.opt.InitialExtractorPrecision[e]
		rv, hasR := st.opt.InitialExtractorRecall[e]
		p, r, q := st.p[e], st.r[e], st.q[e]
		if hasP {
			p = stats.ClampProb(pv)
		}
		if hasR {
			r = stats.ClampProb(rv)
		}
		if hasP || hasR {
			q = QFromPR(p, r, st.opt.Gamma)
			if q < st.opt.QFloor {
				q = st.opt.QFloor
			}
		}
		if qv, ok := st.opt.InitialExtractorQ[e]; ok {
			q = stats.ClampProb(qv)
		}
		st.setP(e, p)
		st.setR(e, r)
		st.setQ(e, q)
	}
}

// updateAlphaSubset re-estimates the prior p(C_wdv=1) from the current value
// posterior and source accuracy (Eq 26), for the candidate triples listed in
// tis or for every candidate triple when tis is nil, and returns the largest
// movement of a prior: each obsBlock block on the pool keeps its own maximum.
func (st *state) updateAlphaSubset(valueProb [][]float64, tis []int, workers int) float64 {
	s := st.s
	n := len(s.Triples)
	if tis != nil {
		n = len(tis)
	}
	part := st.partMaxes((n + obsBlock - 1) / obsBlock)
	parallel.ForEach(len(part), workers, func(b int) {
		var m float64
		for k := b * obsBlock; k < min(n, (b+1)*obsBlock); k++ {
			ti := k
			if tis != nil {
				ti = tis[k]
			}
			tr := s.Triples[ti]
			if len(valueProb[tr.D]) == 0 {
				continue
			}
			pv := valueProb[tr.D][st.slotOfTriple[ti]]
			a := st.a[tr.W]
			v := stats.ClampProb(pv*a + (1-pv)*(1-a))
			m = max(m, math.Abs(st.alpha[ti]-v))
			st.alpha[ti] = v
		}
		part[b] = m
	})
	return maxOf(part)
}

// partMaxes returns scratch for n per-task maxima, which the tasks fill on
// the pool and the stage merges after the join.
func (st *state) partMaxes(n int) []float64 {
	if cap(st.partMax) < n {
		st.partMax = make([]float64, n)
	}
	return st.partMax[:n]
}

// maxOf returns the largest of the movements ms, 0 for none.
func maxOf(ms []float64) (m float64) {
	for _, d := range ms {
		m = max(m, d)
	}
	return m
}
