package core

import (
	"errors"
	"math"
	"sort"

	"kbt/internal/parallel"
	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Result holds the multi-layer posteriors and parameter estimates from Run
// (or a published engine generation). A Result is immutable once built; the
// per-triple and per-item posteriors are read through the accessor methods
// (CProbAt, ValueRow, RestMassAt, CoveredTripleAt, CoveredItemAt), which
// hide whether the storage is the flat arrays of a batch run or the shared,
// copy-on-write generation chunks of the incremental engine (see
// publish.go). The per-unit parameters are likewise read through accessors
// (AAt, PAt, RAt, QAt, ExpectedTriplesAt): their storage is chunked and
// shared copy-on-write between generations (see params.go), so a refresh
// that moved a handful of units publishes a handful of chunk copies instead
// of O(units) fresh arrays.
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
	aVec, pVec, rVec, qVec unitVec
	expVec                 unitVec

	// Flat posterior storage (batch Run, EM.BuildResult). Exactly one of
	// the flat arrays and gen is populated.
	cProb         []float64
	valueProb     [][]float64
	restMass      []float64
	coveredTriple []bool
	coveredItem   []bool
	// gen is the chunked generation store of EM.BuildResultFrom: per-shard
	// immutable chunks, shared with the previous generation for shards the
	// refresh never re-estimated.
	gen *genStore

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
func (r *Result) NumTriples() int {
	if r.gen != nil {
		return len(r.gen.tripleShard)
	}
	return len(r.cProb)
}

// NumItems returns the number of data items the result covers.
func (r *Result) NumItems() int {
	if r.gen != nil {
		return len(r.gen.itemShard)
	}
	return len(r.restMass)
}

// CProbAt returns p(C_wdv = 1 | X) for candidate triple ti of the
// snapshot's Triples list: the probability that the source really provides
// the triple.
func (r *Result) CProbAt(ti int) float64 {
	if g := r.gen; g != nil {
		return g.chunks[g.tripleShard[ti]].cProb[g.triplePos[ti]]
	}
	return r.cProb[ti]
}

// CoveredTripleAt reports whether candidate triple ti has at least one
// observation from an included extractor.
func (r *Result) CoveredTripleAt(ti int) bool {
	if g := r.gen; g != nil {
		return g.chunks[g.tripleShard[ti]].covTri[g.triplePos[ti]]
	}
	return r.coveredTriple[ti]
}

// CoveredItemAt reports whether item d has at least one covered candidate
// triple from an included source.
func (r *Result) CoveredItemAt(d int) bool {
	if g := r.gen; g != nil {
		return g.chunks[g.itemShard[d]].covItem[g.itemPos[d]]
	}
	return r.coveredItem[d]
}

// ValueRow returns the value posterior row of item d: ValueRow(d)[k] is
// p(Vd = ItemValues[d][k] | X). The row is shared storage — callers must
// not modify it.
func (r *Result) ValueRow(d int) []float64 {
	if g := r.gen; g != nil {
		return g.chunks[g.itemShard[d]].valueRow(int(g.itemPos[d]))
	}
	return r.valueProb[d]
}

// RestMassAt returns the probability mass of item d spread uniformly over
// the unobserved domain values.
func (r *Result) RestMassAt(d int) float64 {
	if g := r.gen; g != nil {
		return g.chunks[g.itemShard[d]].restMass[g.itemPos[d]]
	}
	return r.restMass[d]
}

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

// Run executes Algorithm 1 on the snapshot.
func Run(s *triple.Snapshot, opt Options) (*Result, error) {
	if s == nil {
		return nil, errors.New("core: nil snapshot")
	}
	if err := validate(opt); err != nil {
		return nil, err
	}

	nSrc, nExt, nItem, nTri := len(s.Sources), len(s.Extractors), len(s.Items), len(s.Triples)

	st := newState(s, opt)
	res := &Result{
		cProb:             make([]float64, nTri),
		valueProb:         make([][]float64, nItem),
		restMass:          make([]float64, nItem),
		coveredTriple:     st.coveredTriple,
		coveredItem:       make([]bool, nItem),
		SourceIncluded:    st.srcIncluded,
		ExtractorIncluded: st.extIncluded,
		snap:              s,
	}

	prevA := make([]float64, nSrc)
	prevP := make([]float64, nExt)
	prevR := make([]float64, nExt)
	prevPrior := make([]float64, nTri)

	opt.Timer.Time(StageExtQuality, func() { st.bootstrap(res.cProb) })

	iter := 0
	for iter = 1; iter <= opt.MaxIter; iter++ {
		copy(prevA, st.a)
		copy(prevP, st.p)
		copy(prevR, st.r)

		// Stage I: extraction correctness p(C|X) (Eqs 15, 26, 31).
		opt.Timer.Time(StageExtCorr, func() { st.estimateC(res.cProb) })

		// Stage II: triple truthfulness p(V|X) (Eqs 23-25).
		opt.Timer.Time(StageTriplePr, func() {
			st.estimateV(res.cProb, res.valueProb, res.restMass, res.coveredItem)
		})

		// Stage III: source accuracies (Eq 28 / Eq 27).
		if !opt.FreezeSources {
			opt.Timer.Time(StageSrcAccu, func() {
				st.estimateA(res.cProb, res.valueProb)
			})
		}

		// Stage IV: extractor quality (Eqs 29-33, Q via Eq 7).
		if !opt.FreezeExtractors {
			opt.Timer.Time(StageExtQuality, func() {
				st.estimatePRQ(res.cProb)
			})
		}

		// Re-estimate the prior p(C_wdv=1) for the next iteration (Eq 26);
		// the paper starts using the refined prior at iteration
		// UpdatePriorFromIter.
		priorDelta := 0.0
		if opt.UpdatePrior && iter+1 >= opt.UpdatePriorFromIter {
			copy(prevPrior, st.alpha)
			st.updateAlpha(res.valueProb)
			priorDelta = MaxDelta(prevPrior, st.alpha, nil)
		}

		// Convergence must account for the prior movement too, and cannot be
		// declared before the prior schedule has engaged at all: the Eq 26
		// update runs after the M-steps, so a loose Tol could otherwise
		// declare convergence on an iteration whose prior shift is still
		// reshaping the posterior landscape (or that never refined the prior
		// in the first place) — a false fixed point the next estimation
		// would immediately leave.
		priorSettled := !opt.UpdatePrior || iter+1 >= opt.UpdatePriorFromIter
		if priorSettled && MaxDelta(prevA, st.a, nil)+MaxDelta(prevP, st.p, nil)+MaxDelta(prevR, st.r, nil)+priorDelta < opt.Tol {
			res.Converged = true
			break
		}
	}
	// Iterations counts the EM iterations that actually executed: k when
	// convergence was detected at iteration k, MaxIter when the loop
	// exhausted (the clamp undoes the final loop increment in that case).
	if iter > opt.MaxIter {
		iter = opt.MaxIter
	}
	res.Iterations = iter

	// The state dies with this call, so the parameter vectors wrap its flat
	// arrays without copying.
	res.aVec, res.pVec, res.rVec, res.qVec = sliceVec(st.a), sliceVec(st.p), sliceVec(st.r), sliceVec(st.q)
	expt := make([]float64, nSrc)
	for ti, tr := range s.Triples {
		expt[tr.W] += res.cProb[ti]
	}
	res.expVec = sliceVec(expt)
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
	case opt.IncrementalAggregates && opt.ReaggregateEvery < 1:
		return errors.New("core: ReaggregateEvery must be >= 1 with IncrementalAggregates")
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
	// value leaves its chunk shareable.
	srcDirty, extDirty []uint32
	pre, ab            []float64 // per extractor, recomputed by computeVotes
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
	// the UseConfidence / BinarizeAt policy.
	conf []float64

	// cOdds[ti] caches the odds of cProb[ti] as computed by the last
	// estimateCSubset covering ti: Eq 15 in odds space, prior odds times the
	// exponential of the vote sum, cProb being o/(1+o). The leave-one-out
	// precision estimator multiplies exactly this quantity by one extractor's
	// strip factor per observation (obsNumContrib); reading the cache instead
	// of re-deriving the odds from cProb is also more accurate where the
	// posterior saturates.
	cOdds []float64

	// cellC is the per-cell correctness-mass buffer estimatePRQ refills
	// each call, kept on the state to avoid re-allocating numCells floats
	// per iteration; obsTasks likewise backs Stage IV's task list.
	cellC    []float64
	obsTasks []obsTask

	// tripleOfObs maps observation index -> candidate-triple index.
	tripleOfObs []int
	// obsE mirrors Snapshot.Obs[i].E as a dense int32 sidecar: the Stage I
	// inner loop touches one observation field, and loading 4 bytes instead
	// of the 40-byte Observation struct keeps it cache-resident.
	obsE []int32

	// slotOfTriple maps candidate-triple index -> slot in ItemValues[d].
	slotOfTriple []int

	// Cell scoping for ScopeAttemptedSources: a cell is one (source,
	// predicate) pair; an extractor "attempts" the cell if it extracted at
	// least one triple there. cellOfTriple maps each candidate triple to its
	// cell id. Cell ids are interned per distinct (source, predicate) pair in
	// first-appearance order over the triple list — not the dense
	// source×predicate product — so they are append-only as the snapshot
	// grows (a new predicate or source never renumbers existing cells),
	// which is what lets extendState carry every cell-indexed structure over
	// without a rebuild.
	cellID       map[int64]int
	cellOfTriple []int
	// cellsOfExtractor lists the distinct cells each included extractor
	// attempted, in first appearance order over the extractor's observations.
	cellsOfExtractor [][]int
	// extCellSeen marks the (extractor, cell) pairs already present in
	// cellsOfExtractor. It is built lazily on the first extendState call —
	// the stamp-array dedup newState uses is cheaper for a full build but
	// cannot answer membership for later appends.
	extCellSeen map[int64]bool
	numCells    int

	// totalAbs / cellAbs hold the base absence mass prepared by
	// prepareVotes for the current iteration (global respectively per-cell,
	// depending on Scope). absenceStale marks them out of sync with the
	// attempted-cell structure (fresh state, extension, inclusion change):
	// prepareVotes then rebuilds them even when the votes themselves are
	// frozen. Rebuilds always run in canonical order, so equal inputs give
	// bit-equal masses regardless of construction history.
	totalAbs     float64
	cellAbs      []float64
	absenceStale bool

	// agg holds the persistent stage III/IV sufficient statistics when
	// Options.IncrementalAggregates is on; nil otherwise. See aggregates.go.
	agg *aggState

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
	st.srcDirty = make([]uint32, numUnitChunks(nSrc))
	st.extDirty = make([]uint32, numUnitChunks(nExt))
	for ci := range st.srcDirty {
		st.srcDirty[ci] = 1
	}
	for ci := range st.extDirty {
		st.extDirty[ci] = 1
	}
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

	// Effective confidences.
	st.conf = make([]float64, len(s.Obs))
	for i, o := range s.Obs {
		st.conf[i] = st.effConf(o.Conf)
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
	st.cellC = make([]float64, st.numCells)
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
// chunk's publication sharing intact. setA also keeps the source's vote: one
// M-step worker writes a given w, so its vote has one writer too.
func (st *state) setA(w int, v float64) {
	if st.a[w] != v {
		st.a[w] = v
		markUnit(st.srcDirty, w)
		st.syncVote(w)
	}
}

// syncVote re-derives srcVote[w]; whoever wrote a[w] or voteWeight[w] calls it.
func (st *state) syncVote(w int) {
	v := SourceVote(st.a[w], st.opt.N)
	if st.voteWeight != nil {
		v *= st.voteWeight[w]
	}
	st.srcVote[w] = v
}

func (st *state) setP(e int, v float64) {
	if st.p[e] != v {
		st.p[e] = v
		markUnit(st.extDirty, e)
	}
}

func (st *state) setR(e int, v float64) {
	if st.r[e] != v {
		st.r[e] = v
		markUnit(st.extDirty, e)
	}
}

func (st *state) setQ(e int, v float64) {
	if st.q[e] != v {
		st.q[e] = v
		markUnit(st.extDirty, e)
	}
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

// buildExtractorCells (re)builds the per-extractor attempted-cell lists from
// scratch. Dedup uses a stamp array instead of a map: this pass touches every
// observation, and hashing would dominate an otherwise linear loop. Walking
// ObsOfExtractor keeps each extractor's observations contiguous (in global
// observation order, so the cell lists come out exactly as a map-based global
// pass would produce them), letting one stamp value per extractor suffice.
// Any derived membership/reverse indexes are invalidated; they are rebuilt
// lazily by the next extendState call.
func (st *state) buildExtractorCells() {
	s := st.s
	st.cellsOfExtractor = make([][]int, len(s.Extractors))
	st.extCellSeen = nil
	st.absenceStale = true
	cellStamp := make([]int32, st.numCells)
	for e, obsIdxs := range s.ObsOfExtractor {
		if !st.extIncluded[e] {
			continue
		}
		for _, oi := range obsIdxs {
			c := st.cellOfTriple[st.tripleOfObs[oi]]
			if cellStamp[c] != int32(e)+1 {
				cellStamp[c] = int32(e) + 1
				st.cellsOfExtractor[e] = append(st.cellsOfExtractor[e], c)
			}
		}
	}
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
// them incrementally instead of forcing the O(attempted-pairs) rebuild; the
// masses are re-anchored canonically by every absenceStale rebuild, which
// bounds the fold-in drift to a refresh's few iterations. Extractors below
// the threshold keep bitwise-stable published votes, so their cached E-step
// inputs and M-step observation caches stay exactly valid.
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
			dAb := ab - st.ab[e]
			if st.opt.Scope == ScopeAllExtractors {
				st.totalAbs += dAb
			} else {
				for _, c := range st.cellsOfExtractor[e] {
					st.cellAbs[c] += dAb
				}
			}
			st.voteDelta[e] = pre - ab
		}
		st.pre[e], st.ab[e] = pre, ab
	}
}

// prepareVotes readies the per-iteration vote state: optionally refreshed
// extractor votes, the folded Stage I vote deltas, and the base absence mass
// — per (source, predicate) cell, or globally under ScopeAllExtractors (the
// Stage II source votes are kept by their writers: state.srcVote). Everything
// derived here is rebuilt in canonical order, so two states with equal
// parameters produce bit-identical vote state however they were constructed.
func (st *state) prepareVotes(refreshVotes bool) {
	if refreshVotes {
		st.computeVotes()
	} else if st.ledger != nil {
		// Partial engine iterations: republish per extractor under the Tol
		// contract (folding any changes into valid absence masses in place);
		// a stale mass structure falls through to the canonical rebuild,
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
	if st.opt.Scope == ScopeAllExtractors {
		st.totalAbs = 0
		for e, inc := range st.extIncluded {
			if inc {
				st.totalAbs += st.ab[e]
			}
		}
		return
	}
	// Cell space grows with every extension, so the buffer is sized with
	// headroom and re-sliced: reallocating per refresh would churn hundreds
	// of kilobytes. New entries (and, on reuse, the attempted prefix) are
	// zeroed explicitly — untouched cells are zero in either case.
	if cap(st.cellAbs) < st.numCells {
		st.cellAbs = make([]float64, st.numCells, st.numCells+st.numCells/2)
	} else {
		prev := len(st.cellAbs)
		st.cellAbs = st.cellAbs[:st.numCells]
		for c := prev; c < st.numCells; c++ {
			st.cellAbs[c] = 0
		}
		st.zeroAttemptedCells(st.cellAbs)
	}
	for e, cells := range st.cellsOfExtractor {
		for _, c := range cells {
			st.cellAbs[c] += st.ab[e]
		}
	}
}

// zeroAttemptedCells clears the entries of a numCells-sized buffer that any
// included extractor attempts — the only cells the vote and recall
// accumulators ever write. Cell space is the dense (source × predicate)
// product and grows with the corpus, but the attempted subset tracks the
// observations, so clearing per iteration stays proportional to the data
// rather than the product space.
func (st *state) zeroAttemptedCells(buf []float64) {
	for _, cells := range st.cellsOfExtractor {
		for _, c := range cells {
			buf[c] = 0
		}
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

// posteriorOdds is Eq 15 in odds space: σ(vcc + logit α) is o/(1+o) for the
// prior's odds scaled by the exponential of the vote sum — one exponential and
// no logarithm a triple.
func posteriorOdds(alpha, vcc float64) float64 {
	return alpha / (1 - alpha) * math.Exp(min(max(vcc, -voteCap), voteCap))
}

// estimateCSubset computes p(C_wdv=1|X) (Eq 15 with the confidence-weighted
// vote count of Eq 31) for the candidate triples listed in tis, or for every
// candidate triple when tis is nil. Each index's computation is independent,
// so a caller may partition the triple space and invoke this concurrently on
// disjoint subsets. prepareVotes must have run since the last parameter
// update.
func (st *state) estimateCSubset(cProb []float64, tis []int, workers int) {
	s := st.s
	byTriple, conf, obsE, vd := s.ByTriple, st.conf, st.obsE, st.voteDelta
	cellAbs, cellOf := st.cellAbs, st.cellOfTriple
	cOdds, alpha := st.cOdds, st.alpha
	allScope, totalAbs := st.opt.Scope == ScopeAllExtractors, st.totalAbs
	forEachIndex(len(s.Triples), tis, workers, func(ti int) {
		vcc := totalAbs
		if !allScope {
			vcc = cellAbs[cellOf[ti]]
		}
		for _, oi := range byTriple[ti] {
			// The extractor's absence vote is already in the base mass;
			// replace it with the soft mixture c·Pre + (1-c)·Abs (Eq 31).
			// voteDelta folds the inclusion gate in: excluded extractors
			// contribute a bit-neutral +0.
			vcc += conf[oi] * vd[obsE[oi]]
		}
		o := posteriorOdds(alpha[ti], vcc)
		cOdds[ti] = o
		cProb[ti] = o / (1 + o)
	})
}

// estimateC computes p(C_wdv=1|X) for every candidate triple.
func (st *state) estimateC(cProb []float64) {
	st.prepareVotes(true)
	st.estimateCSubset(cProb, nil, st.opt.Workers)
}

// estimateVSubset computes p(Vd|X) (Eqs 23-25) for the items listed in
// items, or for every item when items is nil, optionally using the MAP Ĉ
// instead of the soft weights (§3.3.2 vs §3.3.3). Like estimateCSubset, the
// per-item computations are independent and safe to partition.
func (st *state) estimateVSubset(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool, items []int, workers int) {
	s := st.s
	forEachIndex(len(s.Items), items, workers, func(d int) {
		vs := s.ItemValues[d]
		// The item's posterior row doubles as the score buffer: scores
		// accumulate in place and the softmax transforms them in place, so
		// the steady state allocates nothing per item. Rows are only ever
		// read through the same arrays being written here; result snapshots
		// deep-copy them.
		row := valueProb[d]
		if len(row) != len(vs) {
			row = make([]float64, len(vs))
			valueProb[d] = row
		} else {
			for i := range row {
				row[i] = 0
			}
		}
		covered := false
		for _, ti := range s.TriplesOfItem[d] {
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
		if !covered {
			restMass[d] = 0 // row is all-zero: nothing was accumulated
			return
		}
		rest := st.opt.N + 1 - len(vs)
		if rest < 0 {
			rest = 0
		}
		restMass[d] = stats.SoftmaxWithRestInPlace(row, rest, 0)
	})
}

// estimateV computes p(Vd|X) for every item.
func (st *state) estimateV(cProb []float64, valueProb [][]float64, restMass []float64, coveredItem []bool) {
	st.estimateVSubset(cProb, valueProb, restMass, coveredItem, nil, st.opt.Workers)
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
// applying the clamp; a source with no provided mass keeps its previous
// value, exactly as the paper's estimator leaves it untouched. It is the one
// M-step writer of A, called at most once per source per iteration by the
// worker that owns w, so it also charges the movement to the staleness
// ledger.
func (st *state) deriveA(w int, num, den float64) {
	if den <= 0 {
		return
	}
	a := num / den
	if c := st.opt.AccuracyClamp; c > 0.5 && c < 1 {
		a = stats.Clamp(a, 1-c, c)
	}
	a = stats.ClampProb(a)
	if led := st.ledger; led != nil {
		led.srcDrift[w] += math.Abs(a - st.a[w])
	}
	st.setA(w, a)
}

// estimateA updates source accuracies (Eq 28 / Eq 27) by full aggregation
// over every source's candidate triples — the one full body of Stage III. In
// aggregate mode it also caches every contribution and per-source sum (an
// excluded source's too: its triples may be handed to estimateADelta), so a
// full pass re-anchors exactly what the delta path maintains; the arithmetic
// is the same either way, a non-contributing triple's (0, 0) being bit-neutral.
func (st *state) estimateA(cProb []float64, valueProb [][]float64) {
	s, ag := st.s, st.agg
	parallel.ForEach(len(s.Sources), st.opt.Workers, func(w int) {
		if ag == nil && !st.srcIncluded[w] {
			return
		}
		var num, den float64
		for _, ti := range s.TriplesOfSource[w] {
			nc, dc := st.aContrib(ti, cProb, valueProb)
			if ag != nil {
				ag.aNumC[ti], ag.aDenC[ti] = nc, dc
			}
			num += nc
			den += dc
		}
		if ag != nil {
			ag.aNum[w], ag.aDen[w] = num, den
		}
		if st.srcIncluded[w] {
			st.deriveA(w, num, den)
		}
	})
	if ag != nil {
		ag.aValid = true
	}
}

// obsNumContrib returns an observation's contribution to its extractor's
// precision/recall numerator (Eqs 29-33): the effective confidence c times the
// extraction-correctness posterior of its triple ti, leave-one-out when
// configured. It is the per-observation form the delta M-step calls;
// sumObsTasks evaluates the identical expression over a block with the strip
// factors memoised, so the cached contributions of the two compare bit-equal.
func (st *state) obsNumContrib(oi, ti, e int, c float64, cProb []float64) float64 {
	if !st.opt.LeaveOneOut {
		return c * cProb[ti]
	}
	return c * looPosterior(st.cOdds[ti], stripFactor(c, st.pre[e]-st.ab[e], st.ab[e]))
}

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

// stripMemo remembers the strip factors one Stage IV block has computed, by
// confidence. A block belongs to one extractor, so its factors differ only in
// the confidence, and extractors emit few distinct ones (a quantised score, or
// 1 throughout when confidences are unspecified or unused): sixteen
// direct-mapped slots indexed by the confidence's top mantissa bits — one
// would thrash on a feed interleaving 1, 0.9, 0.8. A slot returns exactly what
// stripFactor returned for the same bits, and a confidence not seen before
// costs the one exponential it always did.
type stripMemo struct {
	bits [16]uint64 // zero is the bits of confidence 0, which is never looked up
	s    [16]float64
}

func (m *stripMemo) factor(c, voteDelta, ab float64) float64 {
	b := math.Float64bits(c)
	i := b >> 45 & 15
	if m.bits[i] != b {
		m.bits[i], m.s[i] = b, stripFactor(c, voteDelta, ab)
	}
	return m.s[i]
}

// derivePRQ turns an extractor's aggregated (num, pDen, rDen) into its
// precision, recall and Q estimates, with the smoothing and floors.
func (st *state) derivePRQ(e int, num, pDen, rDen float64) {
	k := st.opt.Smoothing
	p, r := st.p[e], st.r[e]
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
	st.setP(e, p)
	st.setR(e, r)
	st.setQ(e, q)
}

// estimatePRQ updates extractor precision and recall (Eqs 29-33) and derives
// Q via Eq 7, by full aggregation over every extractor's observations — the
// one full body of Stage IV. In aggregate mode it also fills the correctness-
// mass, denominator and (through sumObsTasks) numerator caches, re-anchoring
// exactly what estimatePRQDelta maintains.
func (st *state) estimatePRQ(cProb []float64) {
	s, ag := st.s, st.agg

	// Per-cell total correctness mass, used by the recall denominator under
	// ScopeAttemptedSources.
	var totalC float64
	cellC := st.cellC
	st.zeroAttemptedCells(cellC)
	for ti := range s.Triples {
		var cp float64
		if st.coveredTriple[ti] {
			cp = cProb[ti]
			cellC[st.cellOfTriple[ti]] += cp
			totalC += cp
		}
		if ag != nil {
			ag.cCov[ti] = cp
		}
	}

	tasks := st.obsTasks[:0]
	for e := range s.Extractors {
		if st.extIncluded[e] {
			tasks = appendObsTasks(tasks, e, len(s.ObsOfExtractor[e]))
		} else if ag != nil {
			ag.eNum[e], ag.ePDen[e], ag.rDen[e] = 0, 0, 0
		}
	}
	st.sumObsTasks(tasks, cProb, func(e int) (rDen float64) {
		if st.opt.Scope == ScopeAllExtractors {
			return totalC
		}
		for _, cell := range st.cellsOfExtractor[e] {
			rDen += cellC[cell]
		}
		return rDen
	})
	for _, tk := range tasks {
		if tk.lo != 0 {
			continue
		}
		if ag != nil {
			ag.ePDen[tk.e], ag.rDen[tk.e] = tk.pDen, tk.rDen
		}
		st.derivePRQ(tk.e, tk.num, tk.pDen, tk.rDen)
	}
	if ag != nil {
		ag.totalC = totalC
		ag.eValid = true
	}
}

// obsBlock is the number of observations one Stage IV task sums. The paper
// has sixteen extractors and a serving corpus may have one, so Stage IV cannot
// parallelise over extractors alone: it reduces by fixed blocks of each
// extractor's observation list. A constant, because the block boundaries fix
// the order the floating-point partials are added in — the result must not
// depend on the worker count.
const obsBlock = 4096

// obsTask is one unit of the Stage IV reduction: positions [lo, hi) of
// extractor e's observation list, and the partial sums its run leaves. An
// extractor's first task (lo == 0) ends up holding the extractor's totals.
type obsTask struct {
	e, lo, hi       int
	num, pDen, rDen float64
}

// appendObsTasks appends the tasks covering an extractor with n observations
// (one even when n is 0, so every listed extractor is derived).
func appendObsTasks(tasks []obsTask, e, n int) []obsTask {
	for lo := 0; lo == 0 || lo < n; lo += obsBlock {
		tasks = append(tasks, obsTask{e: e, lo: lo, hi: min(lo+obsBlock, n)})
	}
	return tasks
}

// sumObsTasks is the one per-observation loop of Stage IV. It runs the tasks
// — which list each extractor's blocks contiguously, ascending — flat on the
// pool, each summing its block's numerator and confidence mass serially, then
// adds every extractor's partials in block order into its first task. The
// partition and the order of every addition are fixed by obsBlock, so the
// result is bit-identical at any worker count, and an extractor that fits one
// block gets the plain serial sum. rDen, when given, computes an extractor's
// recall denominator on the pool beside its first block. In aggregate mode
// the numerator caches — the per-observation contributions, their sum and
// the votes they were computed under — are re-anchored, which is also all the
// exact rescan of a vote-shifted extractor in estimatePRQDelta consists of.
func (st *state) sumObsTasks(tasks []obsTask, cProb []float64, rDen func(e int) float64) {
	ag := st.agg
	st.obsTasks = tasks // keep the grown backing for the next call
	parallel.ForEach(len(tasks), st.opt.Workers, func(t int) {
		tk := &tasks[t]
		loo := st.opt.LeaveOneOut
		voteDelta, ab := st.pre[tk.e]-st.ab[tk.e], st.ab[tk.e]
		var memo stripMemo
		var num, pDen float64
		for _, oi := range st.s.ObsOfExtractor[tk.e][tk.lo:tk.hi] {
			c := st.conf[oi]
			var v float64
			if c > 0 {
				// obsNumContrib's expression, the strip factor from the memo.
				ti := st.tripleOfObs[oi]
				if loo {
					v = c * looPosterior(st.cOdds[ti], memo.factor(c, voteDelta, ab))
				} else {
					v = c * cProb[ti]
				}
				num += v
				pDen += c
			}
			if ag != nil {
				ag.obsNumC[oi] = v
			}
		}
		tk.num, tk.pDen = num, pDen
		if tk.lo == 0 && rDen != nil {
			tk.rDen = rDen(tk.e)
		}
	})
	var first *obsTask
	for t := range tasks {
		if tk := &tasks[t]; tk.lo == 0 {
			first = tk
		} else {
			first.num += tk.num
			first.pDen += tk.pDen
		}
		if ag != nil { // the last block leaves the total
			ag.eNum[first.e] = first.num
			ag.preAt[first.e], ag.abAt[first.e] = st.pre[first.e], st.ab[first.e]
		}
	}
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
	st.estimatePRQ(cProb)
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
// tis or for every candidate triple when tis is nil.
func (st *state) updateAlphaSubset(valueProb [][]float64, tis []int, workers int) {
	s := st.s
	forEachIndex(len(s.Triples), tis, workers, func(ti int) {
		tr := s.Triples[ti]
		if len(valueProb[tr.D]) == 0 {
			return
		}
		pv := valueProb[tr.D][st.slotOfTriple[ti]]
		a := st.a[tr.W]
		st.alpha[ti] = stats.ClampProb(pv*a + (1-pv)*(1-a))
	})
}

// updateAlpha re-estimates the prior for every candidate triple.
func (st *state) updateAlpha(valueProb [][]float64) {
	st.updateAlphaSubset(valueProb, nil, st.opt.Workers)
}

// MaxDelta returns the largest absolute elementwise difference between two
// equal-length vectors over the entries in idx (nil = all; callers pass a
// subset when they know every other entry is unchanged) — the quantity Run's
// convergence test (and the engine's, which must match it) sums across A, P, R
// and the Eq 26 priors, all of them probabilities.
func MaxDelta(a, b []float64, idx []int) float64 {
	var m float64
	if idx == nil {
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > m {
				m = d
			}
		}
		return m
	}
	for _, i := range idx {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
