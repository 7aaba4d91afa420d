package core

import (
	"errors"
	"sort"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// NewEMFrom extends prev's inference state to cover s — a snapshot built by
// extending prev's snapshot (triple.Snapshot.ExtendTable) — the way the
// extension itself carries the snapshot: every index structure
// (observation/triple mappings, value slots, absence-vote cells, effective
// confidences, coverage masks, priors and vote caches) is grown append-only
// from the extension delta, at
// cost proportional to the new records, instead of being rebuilt from the
// corpus. NewEM is this extension from the empty state, so there is one
// builder: the result is NewEM(s, opt) with prev's carried values (parameters,
// votes, priors, ledger drift) in place of the initial ones, and downstream
// inference is unaffected by which path constructed it.
//
// prev is consumed: its state is extended in place (the returned EM is prev)
// and it must not be used independently afterwards. opt must be identical to
// the options prev was built with, except Workers and the aggregate knobs,
// which may change freely. Passing prev's own snapshot is allowed and extends
// it by nothing (the resume case).
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
	d := triple.Delta{Obs: len(st.s.Obs), Triples: len(st.s.Triples), Items: len(st.s.Items),
		Sources: st.s.NumSources(), Extractors: st.s.NumExtractors()}
	if s != st.s {
		pd, ok := s.ParentDelta()
		if !ok {
			return nil, errors.New("core: snapshot was not built by Extend")
		}
		if pd.Obs != d.Obs || pd.Triples != d.Triples || pd.Items != d.Items ||
			pd.Sources != d.Sources || pd.Extractors != d.Extractors {
			return nil, errors.New("core: snapshot does not extend the previous EM's snapshot")
		}
		d = pd
	}
	extendState(st, s, opt, d)
	return prev, nil
}

// extendState grows every index structure of st from the snapshot of d's
// table lengths to s, touching only the extension delta; from &state{} and a
// zero Delta it builds the whole state (NewEM). See NewEMFrom.
func extendState(st *state, s *triple.Snapshot, opt Options, d triple.Delta) {
	st.opt = opt
	nSrc, nExt, nTri, nObs := s.NumSources(), s.NumExtractors(), len(s.Triples), len(s.Obs)
	if !opt.IncrementalAggregates {
		st.agg = nil
	} else if st.agg == nil {
		st.agg = &aggState{}
	}
	if st.cellID == nil {
		st.cellID = make(map[int64]int32)
	}

	// Inclusion, in place: support only grows, and only through new
	// observations, so a new unit is evaluated once and an old one only when
	// a new observation names it (below). An old unit crossing its threshold
	// is the structural event that invalidates coverage, attempted scopes and
	// the M-step caches.
	minSrc, minExt := max(1, opt.MinSourceSupport), max(1, opt.MinExtractorSupport)
	st.srcIncluded = grow(st.srcIncluded, nSrc, false)
	st.extIncluded = grow(st.extIncluded, nExt, false)
	for w := d.Sources; w < nSrc; w++ {
		st.srcIncluded[w] = len(s.TriplesOfSource[w]) >= minSrc
	}
	for e := d.Extractors; e < nExt; e++ {
		st.extIncluded[e] = len(s.ObsOfExtractor[e]) >= minExt
	}

	// Per new observation: its effective confidence and extractor mass, its
	// extractor sidecar, and its old units' thresholds.
	st.conf = grow(st.conf, nObs, 0)
	st.obsE = grow(st.obsE, nObs, 0)
	st.pDen = grow(st.pDen, nExt, stats.Sum{})
	structural := false
	for oi := d.Obs; oi < nObs; oi++ {
		o := &s.Obs[oi]
		st.conf[oi] = st.effConf(o.Conf)
		st.obsE[oi] = o.E
		st.pDen[o.E] = st.pDen[o.E].Add(pDenPart(st.conf[oi]))
		if int(o.W) < d.Sources && !st.srcIncluded[o.W] && len(s.TriplesOfSource[o.W]) >= minSrc {
			st.srcIncluded[o.W], structural = true, true
		}
		if int(o.E) < d.Extractors && !st.extIncluded[o.E] && len(s.ObsOfExtractor[o.E]) >= minExt {
			st.extIncluded[o.E], structural = true, true
		}
	}
	st.structural = structural
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
		s.NumExtractors() == d.Extractors
	if !incMass {
		st.absenceStale = true // new observations and cells change the masses
	}

	// Parameters: old units keep their current estimates; new units are
	// initialised. The dirty-mark arrays grow first (new chunks start dirty,
	// and a fresh state has no publication baseline) so the init writes can
	// mark; a grown boundary chunk is re-copied at publication via the
	// chunk-length test regardless.
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

	// Observation → triple mapping. Every observation of a new triple is
	// new, so the new triples' ByTriple rows are inverted first; what is left
	// is a new observation of an old triple (a re-extraction), which
	// TripleIndex finds among its item's candidates, O(item's triples).
	st.tripleOfObs = grow(st.tripleOfObs, nObs, -1)
	for ti := d.Triples; ti < nTri; ti++ {
		for _, oi := range s.ByTriple[ti] {
			st.tripleOfObs[oi] = int32(ti)
		}
	}
	for oi := d.Obs; oi < nObs; oi++ {
		if st.tripleOfObs[oi] < 0 {
			o := &s.Obs[oi]
			st.tripleOfObs[oi] = int32(s.TripleIndex(int(o.W), int(o.D), int(o.V)))
		}
	}

	// Value slots: a direct search for the new triples. A new value inserts
	// into the middle of its item's sorted value list, shifting the slots of
	// the item's older candidate triples, so the delta's grown items re-slot
	// those too (TriplesOfItem ascends: the old triples are its prefix).
	st.slotOfTriple = grow(st.slotOfTriple, nTri, 0)
	for ti := d.Triples; ti < nTri; ti++ {
		tr := s.Triples[ti]
		st.slotOfTriple[ti] = valueSlot(s.ItemValues[tr.D], tr.V)
	}
	for _, di := range d.GrownItems {
		vs := s.ItemValues[di]
		for _, ti := range s.TriplesOfItem[di] {
			if int(ti) >= d.Triples {
				break
			}
			st.slotOfTriple[ti] = valueSlot(vs, s.Triples[ti].V)
		}
	}

	// Cells for the new triples. Interned ids are append-only, so existing
	// cellOfTriple entries and every cell-indexed structure stay valid.
	st.cellOfTriple = grow(st.cellOfTriple, nTri, 0)
	for ti := d.Triples; ti < nTri; ti++ {
		tr := s.Triples[ti]
		st.cellOfTriple[ti] = st.internCell(tr.W, predOfItem(s, tr.D))
	}

	// Priors and the Stage I odds cache: carried by index prefix, new triples
	// start from the Alpha prior and the matching odds of the prior-valued
	// cProb every estimation starts from.
	alpha, odds := initialPrior(opt)
	st.alpha = grow(st.alpha, nTri, alpha)
	st.cOdds = grow(st.cOdds, nTri, odds)

	ag := st.agg
	if ag != nil {
		ag.growTo(nSrc, nExt, nTri, nObs)
	}

	// Everything below — the ledger appends, the cell moves and the rebuild
	// helpers — reads the extended tables, so the snapshot pointer flips
	// here.
	st.s = s

	// Staleness ledger: new triples' cell entries, zero drift for new units.
	st.extendLedger(d)

	// Coverage and attempt sets. From the empty state, or when an old unit's
	// inclusion flipped (O(corpus), rare: the engine escalates such refreshes
	// to a full first pass, whose M-steps visit every index), both are built
	// whole: buildExtractorCells' counting sort interns only each cell's
	// final set, where one attempt at a time would intern every intermediate
	// one. Otherwise a new included extractor joins set 0 under
	// ScopeAllExtractors, and a newly attempted (extractor, cell) pair moves
	// the cell to its next set.
	if structural || d.Obs == 0 {
		if ag != nil {
			ag.valid = [2]bool{}
		}
		st.rebuildCoverage()
		st.buildExtractorCells()
		return
	}
	st.coveredTriple = grow(st.coveredTriple, nTri, false)
	st.cellsOfExtractor = grow(st.cellsOfExtractor, nExt, nil)
	st.setOfCell = grow(st.setOfCell, st.numCells, 0)
	st.setsOfExtractor = grow(st.setsOfExtractor, nExt, nil)
	st.joinBaseSet(d.Extractors, nExt)
	for oi := d.Obs; oi < nObs; oi++ {
		e := s.Obs[oi].E
		if !st.extIncluded[e] {
			continue
		}
		ti := int(st.tripleOfObs[oi])
		if !st.coveredTriple[ti] {
			st.coveredTriple[ti] = true
			markUnit(st.triDirty, ti)
		}
		st.attempt(e, ti)
	}
}

// rebuildCoverage computes coveredTriple whole against the current
// inclusion masks: the build from the empty state and after an inclusion
// flip.
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

// valueSlot is the slot of value v in an item's sorted value row.
func valueSlot(values []int, v int32) int32 { return int32(sort.SearchInts(values, int(v))) }

// pDenPart is an observation's contribution to its extractor's confidence
// mass (the Eq 29 denominator): the effective confidence when positive.
func pDenPart(c float64) float64 {
	if c > 0 {
		return c
	}
	return 0
}
