package core

import (
	"errors"
	"sort"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// NewEMFrom extends prev's inference state to cover s — a snapshot built by
// extending prev's snapshot (triple.Snapshot.Extend) — the way Extend itself
// carries the snapshot: every index structure (observation/triple mappings,
// value slots, absence-vote cells, effective confidences, coverage masks,
// priors and vote caches) is grown append-only from the extension delta, at
// cost proportional to the new records, instead of being rebuilt from the
// corpus. The resulting state is field-for-field identical to what
// NewEM(s, opt) followed by re-seeding the carried values would build, so
// downstream inference is unaffected by which path constructed it.
//
// prev is consumed: its state is extended in place (the returned EM is prev)
// and it must not be used independently afterwards. opt must be identical to
// the options prev was built with, except Workers and the aggregate knobs,
// which may change freely. Passing prev's own snapshot is allowed and
// returns prev unchanged (the resume case).
//
// Two events void the pure append and trigger a partial rebuild internally,
// still without touching the per-triple carried state: an old unit's support
// crossing its inclusion threshold (coverage and attempted-cell scopes are
// rebuilt, the incremental M-step aggregates are invalidated, and
// InclusionFlipped reports it to the caller), and a granularity mismatch,
// which is an error.
func NewEMFrom(prev *EM, s *triple.Snapshot, opt Options) (*EM, error) {
	if prev == nil {
		return nil, errors.New("core: nil previous EM")
	}
	if s == nil {
		return nil, errors.New("core: nil snapshot")
	}
	if err := validate(opt); err != nil {
		return nil, err
	}
	st := prev.st
	if opt.N != st.opt.N {
		return nil, errors.New("core: N differs from the previous EM's, whose kept source votes are derived from it")
	}
	if opt.IncrementalAggregates && st.agg == nil {
		st.agg = newAggState(len(st.s.Sources), len(st.s.Extractors), len(st.s.Triples), len(st.s.Obs))
	} else if !opt.IncrementalAggregates {
		st.agg = nil
	}
	if s == st.s {
		st.opt = opt
		st.structural = false
		return prev, nil
	}
	d, ok := s.ParentDelta()
	if !ok {
		return nil, errors.New("core: snapshot was not built by Extend")
	}
	if d.Obs != len(st.s.Obs) || d.Triples != len(st.s.Triples) || d.Items != len(st.s.Items) ||
		d.Sources != len(st.s.Sources) || d.Extractors != len(st.s.Extractors) {
		return nil, errors.New("core: snapshot does not extend the previous EM's snapshot")
	}
	extendState(st, s, opt, d)
	return prev, nil
}

// extendState grows every index structure of st from prev's snapshot to s,
// touching only the extension delta. See NewEMFrom.
func extendState(st *state, s *triple.Snapshot, opt Options, d triple.Delta) {
	st.opt = opt
	nSrc, nExt, nTri, nObs := len(s.Sources), len(s.Extractors), len(s.Triples), len(s.Obs)

	// Inclusion: recompute and detect old units flipping — the structural
	// event that invalidates coverage, attempted scopes and the M-step caches.
	// O(units), two fresh slices a refresh: O(corpus) where a source is a page
	// or a handful of items (serve_settled: units ≈ items), and left so.
	srcInc, extInc := computeInclusion(s, opt)
	structural := false
	for w := 0; w < d.Sources && !structural; w++ {
		structural = srcInc[w] != st.srcIncluded[w]
	}
	for e := 0; e < d.Extractors && !structural; e++ {
		structural = extInc[e] != st.extIncluded[e]
	}
	st.srcIncluded, st.extIncluded = srcInc, extInc
	st.structural = structural

	// Absence masses: pure growth keeps them valid — a new cell starts in set
	// 0, whose mass it shares, and a set first interned below sums its
	// members' published absence votes, exactly what the rebuild would
	// derive. Anything beyond pure growth falls back to the rebuild: a grown
	// extractor set (the engine force-refreshes votes there, and a fresh
	// extractor's votes are not yet derived), an inclusion flip (structural;
	// buildExtractorCells re-stales anyway), or a caller without incremental
	// aggregates — keeping the FullAggregates/FullRecompile oracles on the
	// per-refresh rebuild the kept masses must equal bit for bit (they are
	// exact sums).
	incMass := st.agg != nil && !st.absenceStale && !structural &&
		len(s.Extractors) == d.Extractors
	if !incMass {
		st.absenceStale = true // new observations and cells change the masses
	}

	// Parameters: old units keep their current estimates; new units get
	// exactly newState's initialisation. The dirty-mark arrays grow first
	// (new chunks start dirty) so the init writes can mark; a grown boundary
	// chunk is re-copied at publication via the chunk-length test regardless.
	st.srcDirty = grow(st.srcDirty, numUnitChunks(nSrc), 1)
	st.extDirty = grow(st.extDirty, numUnitChunks(nExt), 1)
	st.triDirty = grow(st.triDirty, numUnitChunks(nTri), 1)
	st.itemDirty = grow(st.itemDirty, numUnitChunks(len(s.Items)), 1)
	st.crossed = grow(st.crossed, nTri, false)
	st.moved = grow(st.moved, len(s.Items), 0)
	st.a = grow(st.a, nSrc, 0)
	st.srcVote = grow(st.srcVote, nSrc, 0)
	if st.voteWeight != nil {
		st.voteWeight = grow(st.voteWeight, nSrc, 1)
	}
	for w := d.Sources; w < nSrc; w++ {
		st.initSourceParam(w)
	}
	st.p = grow(st.p, nExt, 0)
	st.r = grow(st.r, nExt, 0)
	st.q = grow(st.q, nExt, 0)
	for e := d.Extractors; e < nExt; e++ {
		st.initExtractorParams(e)
	}
	st.pre = grow(st.pre, nExt, 0)
	st.ab = grow(st.ab, nExt, 0)
	st.voteDelta = grow(st.voteDelta, nExt, 0)

	// Effective confidences for the new observations; raises are handled
	// below once the aggregate arrays have grown.
	st.conf = grow(st.conf, nObs, 0)
	for oi := d.Obs; oi < nObs; oi++ {
		st.conf[oi] = st.effConf(s.Obs[oi].Conf)
	}

	// Observation → triple mapping for the new observations. TripleIndex
	// scans the owning item's candidate list — O(item's triples), and the
	// items are exactly the ones the ingest touched.
	st.tripleOfObs = grow(st.tripleOfObs, nObs, 0)
	st.obsE = grow(st.obsE, nObs, 0)
	for oi := d.Obs; oi < nObs; oi++ {
		o := s.Obs[oi]
		st.tripleOfObs[oi] = s.TripleIndex(o.W, o.D, o.V)
		st.obsE[oi] = int32(o.E)
	}

	// Value slots: a direct search for the new triples. A new value inserts
	// into the middle of its item's sorted value list, shifting the slots of
	// the item's older candidate triples, so the delta's grown items re-slot
	// those too (TriplesOfItem ascends: the old triples are its prefix).
	st.slotOfTriple = grow(st.slotOfTriple, nTri, 0)
	for ti := d.Triples; ti < nTri; ti++ {
		tr := s.Triples[ti]
		st.slotOfTriple[ti] = sort.SearchInts(s.ItemValues[tr.D], tr.V)
	}
	for _, di := range d.GrownItems {
		vs := s.ItemValues[di]
		for _, ti := range s.TriplesOfItem[di] {
			if ti >= d.Triples {
				break
			}
			st.slotOfTriple[ti] = sort.SearchInts(vs, s.Triples[ti].V)
		}
	}

	// Cells for the new triples. Interned ids are append-only, so existing
	// cellOfTriple entries and every cell-indexed structure stay valid; a new
	// cell starts in set 0.
	st.cellOfTriple = grow(st.cellOfTriple, nTri, 0)
	for ti := d.Triples; ti < nTri; ti++ {
		tr := s.Triples[ti]
		st.cellOfTriple[ti] = st.internCell(tr.W, predOfItem(s, tr.D))
	}
	st.setOfCell = grow(st.setOfCell, st.numCells, 0)
	st.setsOfExtractor = grow(st.setsOfExtractor, nExt, nil)

	// Priors and the Stage I odds cache: carried by index prefix, new triples
	// start from the Alpha prior exactly as in newState.
	alpha, odds := initialPrior(opt)
	st.alpha = grow(st.alpha, nTri, alpha)
	st.cOdds = grow(st.cOdds, nTri, odds)

	// Aggregate arrays grow before the passes below adjust them. The
	// confidence masses are kept here: they depend only on the observation
	// set, not on the EM iteration.
	ag := st.agg
	if ag != nil {
		ag.growTo(nSrc, nExt, nTri, nObs)
	}
	st.pDen = grow(st.pDen, nExt, stats.Sum{})
	for oi := d.Obs; oi < nObs; oi++ {
		e := s.Obs[oi].E
		st.pDen[e] = st.pDen[e].Add(pDenPart(st.conf[oi]))
	}
	// Raised confidences: recompute the effective value in place. The
	// raised observation's numerator cache goes stale, but its triple is in
	// the caller's dirty set by construction (the duplicate record touched
	// its cell), so the next M-step over that set replaces it. RaisedObs may
	// repeat an index; after the first visit the recompute is a no-op.
	for _, oi := range d.RaisedObs {
		oldEff := st.conf[oi]
		newEff := st.effConf(s.Obs[oi].Conf)
		if newEff == oldEff {
			continue
		}
		st.conf[oi] = newEff
		e := s.Obs[oi].E
		st.pDen[e] = st.pDen[e].Sub(pDenPart(oldEff)).Add(pDenPart(newEff))
	}

	// Everything below — the ledger appends, the cell moves and the structural
	// rebuild helpers — reads the extended tables, so the snapshot pointer
	// flips here.
	st.s = s

	// Staleness ledger: new items' shard assignments, new triples' reach
	// bits, zero drift for new units.
	st.extendLedger(d)

	// Coverage and attempt sets for the new observations: a new included
	// extractor joins set 0 under ScopeAllExtractors, and a newly attempted
	// (extractor, cell) pair moves the cell to its next set.
	st.coveredTriple = grow(st.coveredTriple, nTri, false)
	st.cellsOfExtractor = append(st.cellsOfExtractor, make([][]int, nExt-len(st.cellsOfExtractor))...)
	st.joinBaseSet(d.Extractors, nExt)
	for oi := d.Obs; oi < nObs; oi++ {
		e := s.Obs[oi].E
		if !st.extIncluded[e] {
			continue
		}
		ti := st.tripleOfObs[oi]
		if !st.coveredTriple[ti] {
			st.coveredTriple[ti] = true
			markUnit(st.triDirty, ti)
		}
		st.attempt(e, ti)
	}

	// Structural fallback: an old unit's inclusion flipped, so coverage and
	// attempted scopes no longer extend — rebuild both (O(corpus), rare)
	// and invalidate the M-step caches; the engine escalates such refreshes
	// to a full first pass, whose M-steps visit every index.
	if structural {
		if ag != nil {
			ag.valid = [2]bool{}
		}
		st.rebuildCoverage()
		st.buildExtractorCells()
	}
}

// rebuildCoverage recomputes coveredTriple from scratch against the current
// inclusion masks — the structural-fallback counterpart of newState's fused
// build loop.
func (st *state) rebuildCoverage() {
	markIndices(st.triDirty, nil)
	st.coveredTriple = make([]bool, len(st.s.Triples))
	for ti, idxs := range st.s.ByTriple {
		for _, oi := range idxs {
			if st.extIncluded[st.s.Obs[oi].E] {
				st.coveredTriple[ti] = true
				break
			}
		}
	}
}

// pDenPart is an observation's contribution to its extractor's confidence
// mass (the Eq 29 denominator): the effective confidence when positive.
func pDenPart(c float64) float64 {
	if c > 0 {
		return c
	}
	return 0
}
