package core

import (
	"math"
	"slices"

	"kbt/internal/triple"
)

// This file maintains the per-unit staleness ledger behind the engine's
// confined settling sweeps, the ScopeSet those sweeps run over, and Settle.
//
// The engine caches every item's E-step outputs between iterations and
// refreshes. A cached posterior goes stale when a parameter it was computed
// from moves — but only when one *it was computed from* moves. An item's
// Stage II scores read the accuracies of exactly the sources with a candidate
// triple on the item, and its Stage I vote sums read the extractor
// presence/absence votes — which the engine freezes until the R/Q movement
// behind them crosses Tol, so between vote refreshes the published extractor
// state does not move at all, no matter how the raw parameters drift.
//
// The ledger tracks, per unit, the movement of what the E-step actually
// consumes:
//
//   - per source: |ΔA_w|, charged by deriveA (the one M-step writer of A_w,
//     once per source per iteration) and by SetSourceVoteWeights, with the
//     items holding the source's candidate triples as its reach — the only
//     rows whose cached posteriors read A_w;
//   - per extractor: the published vote-parameter movement |ΔR_e| + |ΔQ_e|,
//     accumulated when the votes republish (computeVotes, selectiveVotes).
//     An extractor's absence vote reaches every triple in every
//     (source, predicate) cell it attempts, so its reach is the items of its
//     attempted cells — global only under ScopeAllExtractors, where the
//     absence mass is a corpus-wide total.
//
// Reach is resolved at item granularity: a drifted unit stales the items it
// actually touches, and MarkStale records them in a ScopeSet — marked items,
// or the whole corpus — which CompileScope gathers into the one ascending
// dense-id list a settling pass runs over. A unit whose reach covers a
// quarter or more of the corpus marks the whole corpus instead (its per-item
// walk would cost more than the confinement saves); the cutoff depends only
// on snapshot table sizes, so the FullRecompile oracle resolves the identical
// scopes. Drift resets when a pass re-estimates what it was
// widened for: a partial pass re-anchors exactly the units MarkStale recorded
// on its scope, a full pass re-anchors every unit (SettleScopes).
//
// The ledger persists across refreshes (extended append-only by NewEMFrom,
// remapped by dense-id prefix under FullRecompile), so sub-Tol residue left
// by a converged refresh keeps accumulating instead of being forgotten —
// many small refreshes cannot compound into an unbounded cached-posterior
// lag.
//
// Contract: a settled row's cached posteriors lag the published parameters
// by less than Tol of accumulated movement per relevant unit. The engine
// refuses to declare convergence while any unit's drift stands at or above
// Tol — it runs one more confined settling pass instead — so the contract
// holds for every published converged result; only a MaxIter-capped
// unconverged refresh may publish residue, and the carried ledger re-anchors
// that at the next refresh's first pass.

// broadReachDenom is the reach cutoff for whole-corpus marking: a unit
// touching >= 1/broadReachDenom of the corpus marks every item, not its own.
const broadReachDenom = 4

// staleLedger is the per-unit drift state plus the append-only index
// scopes are resolved through.
type staleLedger struct {
	// triplesOfCell indexes, per (source, predicate) cell (state.cellID
	// dense ids), the candidate triples the cell holds — the reach of an
	// extractor's republished absence vote, and the engine's
	// pending-footprint index. Append-only: cell ids and triple order are
	// extension-stable.
	triplesOfCell [][]int32

	// srcDrift is the accumulated |ΔA| (and vote-weight movement) per source
	// since its reach was last re-estimated.
	srcDrift []float64

	// extDrift is the accumulated published vote-parameter movement
	// |ΔR| + |ΔQ| per extractor; rAt/qAt the values backing the currently
	// published votes (updated by computeVotes).
	extDrift []float64
	rAt, qAt []float64

	// passItems/passTris back the index lists CompileScope returns. Never
	// nil, even when empty: the kernels read a nil list as "every index".
	passItems, passTris []int
}

// ScopeSet is a dirty set of marked items, or of every item. It also records
// which units a settling pass was widened for, so SettleScopes can reset
// exactly their drift. The engine and the fusion store keep ScopeSets across
// refreshes and Reset them per use; nothing here allocates once the buffers have grown to corpus
// size.
type ScopeSet struct {
	all bool // every item in scope (MarkAllFull, or every item marked)
	n   int  // the item count of the last Reset

	itemMark []bool // per dense item id: item in scope (narrow marks)
	items    []int  // the marked item ids, unordered

	// settledSrc/settledExt list the units whose reach MarkStale marked;
	// SettleScopes resets their drift.
	settledSrc []int32
	settledExt []int32
}

// NewScopeSet returns an empty ScopeSet; Reset sizes it.
func NewScopeSet() *ScopeSet { return &ScopeSet{} }

// Reset clears the scope for nItems items, retaining buffers.
func (sc *ScopeSet) Reset(nItems int) {
	sc.all, sc.n = false, nItems
	if len(sc.itemMark) < nItems {
		sc.itemMark = append(sc.itemMark, make([]bool, nItems-len(sc.itemMark))...)
	}
	for _, d := range sc.items {
		sc.itemMark[d] = false
	}
	sc.items = sc.items[:0]
	sc.settledSrc = sc.settledSrc[:0]
	sc.settledExt = sc.settledExt[:0]
}

// MergeFrom adds base's marks into sc. Settled-unit records are not merged —
// they belong to the pass that recorded them.
func (sc *ScopeSet) MergeFrom(base *ScopeSet) {
	if base.all {
		sc.MarkAllFull()
		return
	}
	for _, d := range base.items {
		sc.Mark(d)
	}
}

// MarkAllFull puts every item in scope; reports 1 if it was not already.
func (sc *ScopeSet) MarkAllFull() int {
	if sc.all {
		return 0
	}
	sc.all = true
	return 1
}

// Mark puts one item in scope and reports 1, or 0 when everything already is
// or the item is already marked.
func (sc *ScopeSet) Mark(d int) int {
	if sc.all || sc.itemMark[d] {
		return 0
	}
	sc.itemMark[d] = true
	sc.items = append(sc.items, d)
	return 1
}

// Marked reports whether item d is in scope.
func (sc *ScopeSet) Marked(d int) bool { return sc.all || sc.itemMark[d] }

// AllFull reports whether every item is in scope: marked so, or — after
// Items — every item marked narrowly.
func (sc *ScopeSet) AllFull() bool { return sc.all }

// Settle is Algorithm 1's settling loop, the one iteration driver of all four
// estimators: the multi-layer engine's settle, the single-layer fusion store
// (fusion.Incremental), and the batch Run and fusion.Run, whose scope is
// every index (widen reports 0, enter does nothing). widen marks the next
// pass's scope and reports how many items it adds beyond the ingest footprint
// (a pass whose scope reaches past the footprint is an escalation, the first
// one too), enter readies pass iter over that scope, and pass runs it and
// reports whether the parameters settled. A settled pass converges only when
// its successor scope adds nothing: a unit whose drift crossed the tolerance
// on that very step settles first, so a converged result is published within
// contract. A final pass that did not settle marks no successor, which would
// never run. iterations counts the passes run: k when pass k converged,
// maxIter when none did. maxIter must be at least 1.
func Settle(maxIter int, widen func() (stale int), enter func(iter int), pass func(iter int) (settled bool)) (iterations int, converged bool, escalations int) {
	stale := widen()
	for iter := 1; ; iter++ {
		if stale > 0 {
			escalations++
		}
		enter(iter)
		settled := pass(iter)
		if !settled && iter >= maxIter {
			return iter, false, escalations
		}
		stale = widen()
		if converged = settled && stale == 0; converged || iter >= maxIter {
			return iter, converged, escalations
		}
	}
}

// denseGatherDenom bounds the sort in Items: narrow marks covering at least
// 1/denseGatherDenom of the items are gathered by scanning the mark array
// instead, so no corpus-sized list is ever sorted.
const denseGatherDenom = 16

// Items gathers the scope's items into dst's buffer in ascending id order —
// or returns nil when every item is in scope (marked so, or every item
// marked narrowly, which sets AllFull). An empty scope gives an empty list,
// never nil. Deterministic for a given mark set.
func (sc *ScopeSet) Items(dst []int) []int {
	if len(sc.items) == sc.n && sc.n > 0 {
		sc.all = true
	}
	if sc.all {
		return nil
	}
	items := dst[:0]
	if items == nil {
		items = []int{} // a nil list reads as every item
	}
	if len(sc.items)*denseGatherDenom >= sc.n {
		for d, m := range sc.itemMark[:sc.n] {
			if m {
				items = append(items, d)
			}
		}
	} else {
		items = append(items, sc.items...)
		slices.Sort(items)
	}
	return items
}

// CompileScope resolves the marks into what a settling pass runs over: the
// scope's items in ascending dense-id order (Items) and exactly those items'
// candidate triples behind them, item by item — or nil, nil when every item
// is in scope: the kernels' own "every index" path. Ascending order is what
// makes a pass one sequential read of the per-item and per-triple arrays.
// The fast path and the FullRecompile oracle run identical lists. The lists
// are valid until the next CompileScope on this EM.
func (em *EM) CompileScope(sc *ScopeSet) (items, tris []int) {
	led := em.st.ledger
	if items = sc.Items(led.passItems); items == nil {
		return nil, nil
	}
	tris = led.passTris[:0]
	for _, d := range items {
		for _, ti := range em.st.s.TriplesOfItem[d] {
			tris = append(tris, int(ti))
		}
	}
	led.passItems, led.passTris = items, tris
	return items, tris
}

// EnableStaleness gives the EM an empty per-unit staleness ledger, extended
// over the whole snapshot as extendState extends it over an ingest.
// Idempotent. The engine enables it on every EM it constructs; Run never
// does, so the batch path carries no ledger overhead.
func (em *EM) EnableStaleness() {
	st := em.st
	if st.ledger != nil {
		return
	}
	st.ledger = &staleLedger{passItems: []int{}, passTris: []int{}}
	st.extendLedger(triple.Delta{})
}

// CarryStalenessFrom copies prev's accumulated drift and published-vote
// anchors by dense-id prefix — the FullRecompile path's counterpart of the
// ledger NewEMFrom extends in place, needed so the oracle makes the identical
// settling decisions. Both EMs must have staleness enabled. The cell index
// is not carried: EnableStaleness rebuilds it from the same snapshot tables
// and cell interning order, bit-identically.
func (em *EM) CarryStalenessFrom(prev *EM) {
	led, old := em.st.ledger, prev.st.ledger
	if led == nil || old == nil {
		return
	}
	copy(led.srcDrift, old.srcDrift)
	copy(led.extDrift, old.extDrift)
	copy(led.rAt, old.rAt)
	copy(led.qAt, old.qAt)
}

// noteVoteRefresh accumulates the published vote-parameter movement at a vote
// recompute: the R/Q travel since the votes were last derived is exactly the
// staleness a frozen-vote E-step could not have seen. Called by computeVotes.
func (st *state) noteVoteRefresh() {
	led := st.ledger
	if led == nil {
		return
	}
	for e := range st.r {
		led.extDrift[e] += math.Abs(st.r[e]-led.rAt[e]) + math.Abs(st.q[e]-led.qAt[e])
		led.rAt[e], led.qAt[e] = st.r[e], st.q[e]
	}
}

// broadSource reports whether the source's candidate triples span at least
// 1/broadReachDenom of the corpus — the whole-corpus marking cutoff.
func (st *state) broadSource(w int) bool {
	return len(st.s.TriplesOfSource[w])*broadReachDenom >= len(st.s.Triples)
}

// broadExtractor is the extractor counterpart, on observation counts.
func (st *state) broadExtractor(e int) bool {
	return len(st.s.ObsOfExtractor[e])*broadReachDenom >= len(st.s.Obs)
}

// MarkStale widens the scope by the reach of every unit whose accumulated
// drift has reached tol — the rows whose cached posteriors the staleness
// contract no longer covers — and reports how many marks it newly added.
// Narrow units mark exactly their items and are recorded for SettleScopes;
// the first broad unit (or, under ScopeAllExtractors, any drifted extractor —
// its absence mass is corpus-global) marks everything and ends the walk.
// Excluded units are skipped: their parameters are frozen and enter no
// E-step (an inclusion flip escalates structurally before this is asked).
func (em *EM) MarkStale(tol float64, sc *ScopeSet) int {
	st := em.st
	led := st.ledger
	if led == nil {
		return 0
	}
	s := st.s
	added := 0
	for e, drift := range led.extDrift {
		if drift < tol || !st.extIncluded[e] {
			continue
		}
		if st.opt.Scope == ScopeAllExtractors || st.broadExtractor(e) {
			// The republished votes' absence mass reaches every attempted
			// cell — under the global scope, every row outright.
			return added + sc.MarkAllFull()
		}
		for _, c := range st.cellsOfExtractor[e] {
			for _, ti := range led.triplesOfCell[c] {
				added += sc.Mark(int(s.Triples[ti].D))
			}
		}
		sc.settledExt = append(sc.settledExt, int32(e))
	}
	for w, drift := range led.srcDrift {
		if drift < tol || !st.srcIncluded[w] {
			continue
		}
		if st.broadSource(w) {
			return added + sc.MarkAllFull()
		}
		for _, ti := range s.TriplesOfSource[w] {
			added += sc.Mark(int(s.Triples[ti].D))
		}
		sc.settledSrc = append(sc.settledSrc, int32(w))
	}
	return added
}

// MarkCellItems widens the scope by the items of one (source, predicate)
// cell — the engine's pending-ingest footprint seeding. It reports whether
// the cell exists (a pending record whose cell is unknown violates the
// ingest invariant; the engine escalates).
func (em *EM) MarkCellItems(w, p int, sc *ScopeSet) bool {
	st := em.st
	led := st.ledger
	if led == nil {
		return false
	}
	c, ok := st.cellID[int64(w)<<32|int64(uint32(p))]
	if !ok {
		return false
	}
	for _, ti := range led.triplesOfCell[c] {
		sc.Mark(int(st.s.Triples[ti].D))
	}
	return true
}

// SettleScopes records that an E-step pass re-estimated the compiled scope
// against the current parameters: a pass over every item re-anchors every
// unit (drift reset, the extractors' included), a partial pass exactly the
// units MarkStale recorded on the scope.
func (em *EM) SettleScopes(sc *ScopeSet) {
	led := em.st.ledger
	if led == nil {
		return
	}
	if sc.AllFull() {
		clear(led.srcDrift)
		clear(led.extDrift)
		return
	}
	for _, w := range sc.settledSrc {
		led.srcDrift[w] = 0
	}
	for _, e := range sc.settledExt {
		led.extDrift[e] = 0
	}
}

// extendLedger grows the ledger append-only with the snapshot extension —
// new triples' cell entries, zero drift and
// current-parameter vote anchors for new units; from an empty ledger and a
// zero Delta it builds the whole ledger. Called by extendState after the
// parameter arrays, cell interning and cellOfTriple have grown.
func (st *state) extendLedger(d triple.Delta) {
	led := st.ledger
	if led == nil {
		return
	}
	s := st.s
	if len(led.triplesOfCell) < st.numCells {
		led.triplesOfCell = append(led.triplesOfCell, make([][]int32, st.numCells-len(led.triplesOfCell))...)
	}
	for ti := d.Triples; ti < len(s.Triples); ti++ {
		c := st.cellOfTriple[ti]
		led.triplesOfCell[c] = append(led.triplesOfCell[c], int32(ti))
	}
	led.srcDrift = grow(led.srcDrift, s.NumSources(), 0)
	led.extDrift = grow(led.extDrift, s.NumExtractors(), 0)
	for e := len(led.rAt); e < len(st.r); e++ {
		led.rAt = append(led.rAt, st.r[e])
		led.qAt = append(led.qAt, st.q[e])
	}
}
