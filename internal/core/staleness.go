package core

import (
	"math"
	"math/bits"
	"slices"

	"kbt/internal/triple"
)

// This file maintains the per-unit staleness ledger behind the engine's
// confined settling sweeps, and the sub-shard ScopeSet those sweeps run
// over.
//
// The engine caches every shard's E-step outputs between iterations and
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
//   - per source: |ΔA_w| accumulated every M-step (srcVote follows the live
//     accuracy write for write), together with the items holding the
//     source's candidate triples — the only rows whose cached posteriors
//     read A_w;
//   - per extractor: the published vote-parameter movement |ΔR_e| + |ΔQ_e|,
//     accumulated when the votes republish (computeVotes, selectiveVotes).
//     An extractor's absence vote reaches every triple in every
//     (source, predicate) cell it attempts, so its reach is the items of its
//     attempted cells — global only under ScopeAllExtractors, where the
//     absence mass is a corpus-wide total.
//
// Reach is resolved at *item* granularity, not shard granularity: a drifted
// unit stales the items it actually touches, and MarkStale records them in a
// ScopeSet — whole shards plus marked items, which CompileScope gathers into
// the one ascending dense-id list a settling pass runs over. A unit whose
// reach covers a quarter or more of the corpus is marked at whole-shard
// granularity instead (its per-item walk would cost more than the
// confinement saves, and its item set is dense in every shard it reaches);
// the cutoff depends only on snapshot table sizes, so the FullRecompile
// oracle resolves the identical scopes. A unit's drift resets when a pass
// covers its whole reach — SettleScopes consumes the ScopeSet's record of
// which units the pass settled.
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

// broadReachDenom is the reach cutoff for whole-shard marking: a unit
// touching >= 1/broadReachDenom of the corpus marks shards, not items.
const broadReachDenom = 4

// staleLedger is the per-unit drift state plus the append-only indexes
// sub-shard scopes are resolved through.
type staleLedger struct {
	nShards, words int

	// itemShard caches each data item's shard, grown append-only with the
	// snapshot; shardLen counts items per shard (the full-shard test during
	// scope compilation).
	itemShard []int32
	shardLen  []int32

	// triplesOfCell indexes, per (source, predicate) cell (state.cellID
	// dense ids), the candidate triples the cell holds — the reach of an
	// extractor's republished absence vote, and the engine's
	// pending-footprint index. Append-only: cell ids and triple order are
	// extension-stable.
	triplesOfCell [][]int32

	// srcMask is the per-source shard reach (nSrc × words); srcDrift the
	// accumulated |ΔA| since the source's reach was last re-estimated.
	srcMask  []uint64
	srcDrift []float64

	// extDrift is the accumulated published vote-parameter movement
	// |ΔR| + |ΔQ| per extractor; rAt/qAt the values backing the currently
	// published votes (updated by computeVotes).
	extDrift []float64
	rAt, qAt []float64

	// scratch is a words-sized bitmask buffer for SettleScopes.
	scratch []uint64

	// passItems/passTris back the index lists CompileScope returns. Never
	// nil, even when empty: the kernels read a nil list as "every index".
	passItems, passTris []int
}

func (led *staleLedger) setSrcBit(w, si int) {
	led.srcMask[w*led.words+si/64] |= 1 << (si % 64)
}

// appendItems grows the shard index for items [from, len(s.Items)).
func (led *staleLedger) appendItems(s *triple.Snapshot, from int) {
	for d := from; d < len(s.Items); d++ {
		si := int32(triple.ShardOf(s.Items[d], led.nShards))
		led.itemShard = append(led.itemShard, si)
		led.shardLen[si]++
	}
}

// ScopeSet is a sub-shard dirty set: per shard either "whole shard" or a set
// of marked items. It also records which units a settling pass covers, so
// SettleScopes can reset exactly their drift. The engine keeps ScopeSets
// across refreshes and Resets them per use; nothing here allocates once the
// buffers have grown to corpus size.
type ScopeSet struct {
	nShards int

	full  []bool // per shard: whole shard in scope
	nFull int

	itemMark  []bool  // per dense item id: item in scope (narrow marks)
	items     []int   // the marked item ids, unordered
	itemShard []int32 // parallel to items: each mark's shard

	// settledSrc/settledExt list the units whose whole reach this scope
	// covers (recorded by MarkStale); SettleScopes resets their drift.
	settledSrc []int32
	settledExt []int32

	// Compiled form: the shards with any coverage, ascending. cnt is the
	// per-shard narrow-mark count CompileScope fills and leaves zeroed.
	shardList []int
	cnt       []int32
}

// NewScopeSet returns an empty ScopeSet; Reset sizes it.
func NewScopeSet() *ScopeSet { return &ScopeSet{} }

// Reset clears the scope for nShards shards and nItems items, retaining
// buffers.
func (sc *ScopeSet) Reset(nShards, nItems int) {
	if len(sc.full) < nShards {
		sc.full = append(sc.full, make([]bool, nShards-len(sc.full))...)
		sc.cnt = append(sc.cnt, make([]int32, nShards-len(sc.cnt))...)
	}
	for si := range sc.full[:nShards] {
		sc.full[si] = false
	}
	sc.nShards = nShards
	sc.nFull = 0
	if len(sc.itemMark) < nItems {
		sc.itemMark = append(sc.itemMark, make([]bool, nItems-len(sc.itemMark))...)
	}
	for _, d := range sc.items {
		sc.itemMark[d] = false
	}
	sc.items = sc.items[:0]
	sc.itemShard = sc.itemShard[:0]
	sc.settledSrc = sc.settledSrc[:0]
	sc.settledExt = sc.settledExt[:0]
	sc.shardList = sc.shardList[:0]
}

// MergeFrom adds base's marks (full shards and items) into sc. Settled-unit
// records are not merged — they belong to the pass that recorded them.
func (sc *ScopeSet) MergeFrom(base *ScopeSet) {
	for si, f := range base.full[:base.nShards] {
		if f {
			sc.MarkShardFull(si)
		}
	}
	for k, d := range base.items {
		sc.markItem(d, base.itemShard[k])
	}
}

// MarkShardFull puts the whole shard in scope; reports 1 if it was not
// already full.
func (sc *ScopeSet) MarkShardFull(si int) int {
	if sc.full[si] {
		return 0
	}
	sc.full[si] = true
	sc.nFull++
	return 1
}

// MarkAllFull puts every shard in scope; reports how many were newly added.
func (sc *ScopeSet) MarkAllFull() int {
	added := 0
	for si := 0; si < sc.nShards; si++ {
		added += sc.MarkShardFull(si)
	}
	return added
}

// markItem puts one item in scope; no-op (0) when its shard is already
// wholly in scope or the item is already marked.
func (sc *ScopeSet) markItem(d int, si int32) int {
	if sc.full[si] || sc.itemMark[d] {
		return 0
	}
	sc.itemMark[d] = true
	sc.items = append(sc.items, d)
	sc.itemShard = append(sc.itemShard, si)
	return 1
}

// AllFull reports whether every shard is wholly in scope.
func (sc *ScopeSet) AllFull() bool { return sc.nFull == sc.nShards }

// Len returns the number of shards with any coverage. Valid after
// CompileScope.
func (sc *ScopeSet) Len() int { return len(sc.shardList) }

// At returns compiled entry i: the shard id and whether the whole shard is in
// scope (else only marked items of it are).
func (sc *ScopeSet) At(i int) (si int, full bool) {
	si = sc.shardList[i]
	return si, sc.full[si]
}

// denseGatherDenom bounds the sort in CompileScope: narrow marks covering at
// least 1/denseGatherDenom of the items are gathered by scanning the mark
// array instead, so no corpus-sized list is ever sorted.
const denseGatherDenom = 16

// CompileScope resolves the marks into what a settling pass runs over. A
// shard whose narrow marks cover every item it owns is upgraded to full, and
// the shards with any coverage are listed ascending (Len, At). The return is
// the pass's index lists — the scope's items in ascending dense-id order and
// exactly those items' candidate triples behind them, item by item — or nil,
// nil when every shard is in scope: the kernels' own "every index" path.
// Ascending order is what makes a pass one sequential read of the per-item
// and per-triple arrays, whatever the shard count. Deterministic for a given
// mark set, so the fast path and the FullRecompile oracle run identical
// lists. The lists are valid until the next CompileScope on this EM.
func (em *EM) CompileScope(sc *ScopeSet) (items, tris []int) {
	led := em.st.ledger
	for k := range sc.items {
		if si := sc.itemShard[k]; !sc.full[si] {
			sc.cnt[si]++
			if sc.cnt[si] == led.shardLen[si] {
				sc.full[si] = true
				sc.nFull++
			}
		}
	}
	sc.shardList = sc.shardList[:0]
	for si := 0; si < sc.nShards; si++ {
		if sc.full[si] || sc.cnt[si] > 0 {
			sc.shardList = append(sc.shardList, si)
		}
		sc.cnt[si] = 0
	}
	if sc.AllFull() {
		return nil, nil
	}
	items, tris = led.passItems[:0], led.passTris[:0]
	if sc.nFull > 0 || len(sc.items)*denseGatherDenom >= len(led.itemShard) {
		for d, si := range led.itemShard {
			if sc.full[si] || sc.itemMark[d] {
				items = append(items, d)
			}
		}
	} else {
		items = append(items, sc.items...)
		slices.Sort(items)
	}
	for _, d := range items {
		tris = append(tris, em.st.s.TriplesOfItem[d]...)
	}
	led.passItems, led.passTris = items, tris
	return items, tris
}

// EnableStaleness builds the per-unit staleness ledger for nShards item
// shards (triple.ShardOf partitioning, matching Snapshot.Shards). Idempotent
// for an unchanged shard count; a changed count rebuilds from scratch. The
// engine enables it on every EM it constructs; core.Run never does, so the
// batch path carries no ledger overhead.
func (em *EM) EnableStaleness(nShards int) {
	st := em.st
	if st.ledger != nil && st.ledger.nShards == nShards {
		return
	}
	s := st.s
	led := &staleLedger{nShards: nShards, words: (nShards + 63) / 64, passItems: []int{}, passTris: []int{}}
	led.shardLen = make([]int32, nShards)
	led.itemShard = make([]int32, 0, len(s.Items))
	st.ledger = led
	led.appendItems(s, 0)
	led.srcMask = make([]uint64, len(s.Sources)*led.words)
	for _, tr := range s.Triples {
		led.setSrcBit(tr.W, int(led.itemShard[tr.D]))
	}
	led.triplesOfCell = make([][]int32, st.numCells)
	for ti := range s.Triples {
		c := st.cellOfTriple[ti]
		led.triplesOfCell[c] = append(led.triplesOfCell[c], int32(ti))
	}
	led.srcDrift = make([]float64, len(s.Sources))
	led.extDrift = make([]float64, len(s.Extractors))
	led.rAt = append([]float64(nil), st.r...)
	led.qAt = append([]float64(nil), st.q...)
	led.scratch = make([]uint64, led.words)
}

// CarryStalenessFrom copies prev's accumulated drift and published-vote
// anchors by dense-id prefix — the FullRecompile path's counterpart of the
// ledger NewEMFrom extends in place, needed so the oracle makes the identical
// settling decisions. Both EMs must have staleness enabled. The shard and
// cell indexes are not carried: EnableStaleness rebuilds them from the same
// snapshot tables and cell interning order, bit-identically.
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

// AccumulateSourceDrift adds each source's accuracy movement since prevA (the
// caller's copy from the start of the iteration) to its drift. Call once per
// iteration, after the M-steps.
func (em *EM) AccumulateSourceDrift(prevA []float64) {
	led := em.st.ledger
	if led == nil {
		return
	}
	a := em.st.a
	for w := range prevA {
		if d := math.Abs(a[w] - prevA[w]); d != 0 {
			led.srcDrift[w] += d
		}
	}
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
// 1/broadReachDenom of the corpus — the whole-shard marking cutoff.
func (st *state) broadSource(w int) bool {
	return len(st.s.TriplesOfSource[w])*broadReachDenom >= len(st.s.Triples)
}

// broadExtractor is the extractor counterpart, on observation counts.
func (st *state) broadExtractor(e int) bool {
	return len(st.s.ObsOfExtractor[e])*broadReachDenom >= len(st.s.Obs)
}

// MarkStale widens the scope by the reach of every unit whose accumulated
// drift has reached tol — the rows whose cached posteriors the staleness
// contract no longer covers — and reports how many marks (items or whole
// shards) it newly added. Narrow units mark exactly their items; broad units
// (and, under ScopeAllExtractors, any drifted extractor — its absence mass
// is corpus-global) mark whole shards. Every drifted unit whose reach the
// widened scope now covers is recorded for SettleScopes. Excluded units are
// skipped: their parameters are frozen and enter no E-step (an inclusion
// flip escalates structurally before this is asked).
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
				d := int(s.Triples[ti].D)
				added += sc.markItem(d, led.itemShard[d])
			}
		}
		sc.settledExt = append(sc.settledExt, int32(e))
	}
	for w, drift := range led.srcDrift {
		if drift < tol || !st.srcIncluded[w] {
			continue
		}
		if st.broadSource(w) {
			base := w * led.words
			for k := 0; k < led.words; k++ {
				word := led.srcMask[base+k]
				for word != 0 {
					si := k*64 + bits.TrailingZeros64(word)
					word &= word - 1
					added += sc.MarkShardFull(si)
				}
			}
		} else {
			for _, ti := range s.TriplesOfSource[w] {
				d := int(s.Triples[ti].D)
				added += sc.markItem(d, led.itemShard[d])
			}
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
		d := int(st.s.Triples[ti].D)
		sc.markItem(d, led.itemShard[d])
	}
	return true
}

// SettleScopes records that an E-step pass re-estimated the compiled scope:
// every unit whose whole reach was covered is re-anchored (drift reset) —
// the units MarkStale recorded on the scope, plus any source whose shard
// reach the scope's full shards cover. A scope covering every shard settles
// everything, including the extractors.
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
	clear(led.scratch)
	for si, f := range sc.full[:sc.nShards] {
		if f {
			led.scratch[si/64] |= 1 << (si % 64)
		}
	}
	for w := range led.srcDrift {
		if led.srcDrift[w] == 0 {
			continue
		}
		base := w * led.words
		covered := true
		for k := 0; k < led.words && covered; k++ {
			covered = led.srcMask[base+k]&^led.scratch[k] == 0
		}
		if covered {
			led.srcDrift[w] = 0
		}
	}
	for _, w := range sc.settledSrc {
		led.srcDrift[w] = 0
	}
	for _, e := range sc.settledExt {
		led.extDrift[e] = 0
	}
}

// extendLedger grows the ledger append-only with the snapshot extension —
// new items' shards, new triples' reach and cell entries, zero
// drift and current-parameter vote anchors for new units. Called by
// extendState after the parameter arrays, cell interning and cellOfTriple
// have grown.
func (st *state) extendLedger(d triple.Delta) {
	led := st.ledger
	if led == nil {
		return
	}
	s := st.s
	led.appendItems(s, d.Items)
	led.srcMask = grow(led.srcMask, len(s.Sources)*led.words, 0)
	if len(led.triplesOfCell) < st.numCells {
		led.triplesOfCell = append(led.triplesOfCell, make([][]int32, st.numCells-len(led.triplesOfCell))...)
	}
	for ti := d.Triples; ti < len(s.Triples); ti++ {
		tr := s.Triples[ti]
		led.setSrcBit(tr.W, int(led.itemShard[tr.D]))
		c := st.cellOfTriple[ti]
		led.triplesOfCell[c] = append(led.triplesOfCell[c], int32(ti))
	}
	led.srcDrift = grow(led.srcDrift, len(s.Sources), 0)
	led.extDrift = grow(led.extDrift, len(s.Extractors), 0)
	for e := len(led.rAt); e < len(st.r); e++ {
		led.rAt = append(led.rAt, st.r[e])
		led.qAt = append(led.qAt, st.q[e])
	}
}
