package fusion

import (
	"errors"
	"math"
	"slices"
	"sort"

	"kbt/internal/parallel"
	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Incremental is the streaming counterpart of Run: a per-data-item posterior
// store that re-fuses only the items whose votes actually changed or whose
// provenance accuracies accumulated movement beyond Tol — the same
// drift-ledger contract the multi-layer engine applies to extractor votes —
// instead of re-running EM over the corpus on every refresh.
//
// The store owns its snapshot chain (compiled at the provenance granularity
// the caller configures, extended append-only with each ingest) and persists
// between refreshes:
//
//   - the per-item vote lists and value posteriors (rows are immutable once
//     installed, so a published Result shares them copy-on-write),
//   - the per-provenance accuracies and participation flags (a provenance
//     participates once its observation count reaches MinSupport),
//   - the accuracy sufficient statistics (numerators/denominators over the
//     covered items), exact sums maintained by per-item contribution deltas
//     and re-aggregated in full on every full pass: either way they hold the
//     bits Run's M step sums, so a cold Refresh reproduces Run exactly and a
//     warm one equals the FullAggregates oracle,
//   - a per-provenance drift ledger: each M-step charges |Δaccuracy| to its
//     provenance, a provenance's charge resets when a pass re-fuses all of
//     its items, and the next iteration's E-step widens to exactly the items
//     of provenances whose accumulated charge crossed Tol.
//
// Which items a provenance votes on is read from the snapshot's
// TriplesOfSource.
type Incremental struct {
	opt  Options
	copt triple.CompileOptions

	s *triple.Snapshot

	// Per item: the (provenance, value-slot, confidence) votes in observation
	// order, the value posterior rows (immutable once installed), rest mass,
	// coverage, and — for PopAccu — the per-slot popularity shares.
	votes     [][]vote
	valueProb [][]float64
	restMass  []float64
	covered   []bool
	pop       [][]float64

	// voteAt[oi] locates observation oi's vote within votes[Obs[oi].D], so a
	// duplicate-cell confidence raise can patch the cached weight in place.
	voteAt []int32

	// Per provenance: support, participation, accuracy, the maintained
	// M-step aggregates and the accumulated |Δaccuracy| drift.
	support  []int
	updated  []bool
	acc      []float64
	num, den []stats.Sum
	drift    []float64

	// lastConverged gates the next refresh's resume escalation.
	lastConverged bool

	iterations int
	fusedItems int

	// iterate's scratch, kept so a refresh allocates nothing proportional to
	// the item or provenance count but what it publishes: the base, fused and
	// current-pass item masks, the accuracies before the M step, and the E
	// step's outputs awaiting installation.
	baseMask, fusedMask, passMask []bool
	prevAcc                       []float64
	outs                          []fuseOut
}

// fuseOut is one item's E-step output.
type fuseOut struct {
	row     []float64
	rest    float64
	covered bool
}

// resized returns buf with length n and unspecified content, growing its
// backing array geometrically: a store gains a few items every refresh.
func resized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// NewIncremental validates opt exactly as Run does and returns an empty
// store. copt fixes the provenance granularity of the internal snapshot
// chain; its key functions default to triple.ProvenanceKey and
// triple.ExtractorKeyName, the single-layer setup of §5.1.2.
func NewIncremental(opt Options, copt triple.CompileOptions) (*Incremental, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if copt.SourceKey == nil {
		copt.SourceKey = triple.ProvenanceKey
	}
	if copt.ExtractorKey == nil {
		copt.ExtractorKey = triple.ExtractorKeyName
	}
	return &Incremental{opt: opt, copt: copt}, nil
}

// Snapshot returns the store's current provenance-granularity snapshot (nil
// before the first Refresh). Immutable; later refreshes chain new snapshots.
func (inc *Incremental) Snapshot() *triple.Snapshot { return inc.s }

// FusedLast reports how many distinct items the last Refresh re-fused.
func (inc *Incremental) FusedLast() int { return inc.fusedItems }

// Refresh folds the pending records into the store and re-fuses the affected
// items. records is the full ingest-ordered sequence and pending its suffix
// since the previous Refresh (ignored on the first call, which compiles
// records wholesale). It returns an immutable Result; value-posterior rows
// are shared copy-on-write with the store and with earlier results.
func (inc *Incremental) Refresh(records, pending []triple.Record) (*Result, error) {
	cold := inc.s == nil
	prevS := inc.s
	if cold {
		inc.s = (&triple.Dataset{Records: records}).Compile(inc.copt)
	} else if len(pending) > 0 {
		inc.s = prevS.Extend(pending)
	}
	s := inc.s

	var d triple.Delta
	if !cold && s != prevS {
		var ok bool
		if d, ok = s.ParentDelta(); !ok {
			return nil, errors.New("fusion: extended snapshot lost its delta")
		}
	} else if !cold {
		d = triple.Delta{Obs: len(s.Obs), Triples: len(s.Triples), Items: len(s.Items),
			Sources: len(s.Sources), Extractors: len(s.Extractors), Values: len(s.Values)}
	}

	inc.iterate(inc.apply(prevS, d, cold))
	return inc.result(), nil
}

// apply grows every persistent structure by the extension delta — counting
// support, appending votes, remapping the slots of items whose candidate-
// value list gained an entry, patching raised confidences, refreshing the
// popularity shares — while keeping the aggregate invariant (num/den equal
// the sums over the current rows and weights of the covered items) by
// subtracting each affected item's contribution before the edits and
// re-adding it after. It returns the refresh's base dirty-item set: the
// items the ingest touched plus every item of a provenance that newly met
// MinSupport, or all items on a cold (or unconverged-resume) refresh.
func (inc *Incremental) apply(prevS *triple.Snapshot, d triple.Delta, cold bool) []int {
	s := inc.s
	nItem, nSrc, nObs := len(s.Items), len(s.Sources), len(s.Obs)
	if cold {
		d = triple.Delta{}
	}

	// Grow the per-item and per-provenance arrays; new provenances start at
	// the default accuracy exactly as in Run.
	for dd := len(inc.votes); dd < nItem; dd++ {
		inc.votes = append(inc.votes, nil)
		inc.valueProb = append(inc.valueProb, nil)
		inc.restMass = append(inc.restMass, 0)
		inc.covered = append(inc.covered, false)
		if inc.opt.Model == PopAccu {
			inc.pop = append(inc.pop, nil)
		}
	}
	for w := len(inc.acc); w < nSrc; w++ {
		inc.support = append(inc.support, 0)
		inc.updated = append(inc.updated, false)
		inc.acc = append(inc.acc, inc.opt.InitAccuracy)
		inc.num = append(inc.num, stats.Sum{})
		inc.den = append(inc.den, stats.Sum{})
		inc.drift = append(inc.drift, 0)
	}

	// The affected items: owners of new observations (which includes every
	// item whose value list grew — a new value implies a new observation on
	// the item) and of raised duplicate cells.
	affectedMask := make(map[int]bool)
	var affected []int
	touch := func(dd int) {
		if !affectedMask[dd] {
			affectedMask[dd] = true
			affected = append(affected, dd)
		}
	}
	for oi := d.Obs; oi < nObs; oi++ {
		touch(s.Obs[oi].D)
	}
	for _, oi := range d.RaisedObs {
		touch(s.Obs[oi].D)
	}
	sort.Ints(affected)

	full := inc.opt.FullAggregates
	if !full {
		for _, dd := range affected {
			inc.itemContrib(dd, -1)
		}
	}

	// Re-slot the delta's grown items, whose sorted candidate-value list
	// gained an entry: every cached vote slot shifts past the insertion point,
	// and the posterior row remaps to the new slots (new values start at zero
	// until re-fused).
	for _, dd := range d.GrownItems {
		newVs, oldVs := s.ItemValues[dd], prevS.ItemValues[dd]
		slotMap := make([]int32, len(oldVs))
		j := 0
		for k, v := range newVs {
			if j < len(oldVs) && oldVs[j] == v {
				slotMap[j] = int32(k)
				j++
			}
		}
		vs := inc.votes[dd]
		for i := range vs {
			vs[i].slot = slotMap[vs[i].slot]
		}
		oldRow := inc.valueProb[dd]
		if oldRow != nil {
			row := make([]float64, len(newVs))
			for k, p := range oldRow {
				row[slotMap[k]] = p
			}
			inc.valueProb[dd] = row
		}
	}

	// Raised duplicate cells: patch the cached vote weight in place. May
	// repeat an index; after the first visit the patch is a no-op.
	if inc.opt.UseConfidence {
		for _, oi := range d.RaisedObs {
			inc.votes[s.Obs[oi].D][inc.voteAt[oi]].conf = s.Obs[oi].Conf
		}
	}

	// New observations: support, votes and the obs→vote index.
	for oi := d.Obs; oi < nObs; oi++ {
		o := s.Obs[oi]
		inc.support[o.W]++
		inc.voteAt = append(inc.voteAt, int32(len(inc.votes[o.D])))
		inc.votes[o.D] = append(inc.votes[o.D], inc.opt.voteOf(s, o))
	}

	// Popularity shares (PopAccu): recompute the affected items' rows from
	// the patched vote lists.
	if inc.opt.Model == PopAccu {
		for _, dd := range affected {
			inc.pop[dd] = popularity(inc.votes[dd], len(s.ItemValues[dd]))
		}
	}

	if !full {
		for _, dd := range affected {
			inc.itemContrib(dd, +1)
		}
	}

	// Cold, or resuming an unconverged run: every item re-fuses, since
	// partial passes would stall on cached rows that already reproduce the
	// cached accuracies.
	all := cold || !inc.lastConverged

	// Participation flips: a provenance crossing MinSupport joins fusion,
	// seeding from InitialAccuracy exactly as Run does, and every item it
	// votes on must re-fuse. (Support never shrinks, so flips are one-way.)
	for w := 0; w < nSrc; w++ {
		if inc.updated[w] || inc.support[w] < inc.opt.MinSupport {
			continue
		}
		inc.updated[w] = true
		if a, ok := inc.opt.InitialAccuracy[w]; ok {
			inc.acc[w] = stats.ClampProb(a)
		}
		if !all {
			for _, ti := range s.TriplesOfSource[w] {
				touch(s.Triples[ti].D)
			}
		}
	}

	if all {
		base := make([]int, nItem)
		for i := range base {
			base[i] = i
		}
		return base
	}
	sort.Ints(affected)
	return affected
}

// itemContrib adds (sign=+1) or removes (sign=-1) item dd's contribution to
// the accuracy aggregates, over covered items only (Eq 4's sums). Removal
// reads the identical cached weights and row the addition used, so it
// subtracts exactly what was added.
func (inc *Incremental) itemContrib(dd int, sign float64) {
	if inc.covered[dd] {
		accumulate(inc.num, inc.den, inc.votes[dd], inc.valueProb[dd], sign)
	}
}

// iterate runs the E/M loop over the base dirty set plus the drift ledger's
// escalations, mirroring Run stage for stage: a pass that covers every item
// is arithmetically identical to one of Run's iterations.
func (inc *Incremental) iterate(base []int) {
	s := inc.s
	nItem, nSrc := len(s.Items), len(s.Sources)
	inc.baseMask, inc.fusedMask = resized(inc.baseMask, nItem), resized(inc.fusedMask, nItem)
	inc.prevAcc = resized(inc.prevAcc, nSrc)
	baseMask, fusedMask, prevAcc := inc.baseMask, inc.fusedMask, inc.prevAcc
	clear(baseMask)
	clear(fusedMask)
	for _, dd := range base {
		baseMask[dd] = true
	}
	fused := 0

	dirty := inc.widen(base, baseMask, nItem)
	converged := false
	iter := 0
	for iter = 1; iter <= inc.opt.MaxIter; iter++ {
		for _, dd := range dirty {
			if !fusedMask[dd] {
				fusedMask[dd] = true
				fused++
			}
		}
		copy(prevAcc, inc.acc)

		// Full aggregation on a full pass, where it is the cheaper of the
		// two, and always under the oracle option; partial passes maintain
		// the aggregates by per-item deltas during row installation.
		fullAgg := inc.opt.FullAggregates || len(dirty) == nItem

		// E step (Eq 2) over the dirty items: rows compute in parallel into
		// scratch, then install serially so the aggregate deltas apply in
		// deterministic ascending-item order.
		inc.outs = resized(inc.outs, len(dirty))
		outs := inc.outs
		parallel.ForEach(len(dirty), inc.opt.Workers, func(i int) {
			dd := dirty[i]
			outs[i].row, outs[i].rest, outs[i].covered =
				inc.opt.fuseItem(dd, len(s.ItemValues[dd]), inc.votes[dd], inc.pop, inc.updated, inc.acc)
		})
		for i, dd := range dirty {
			if !fullAgg {
				inc.itemContrib(dd, -1)
			}
			inc.covered[dd] = outs[i].covered
			inc.valueProb[dd] = outs[i].row
			inc.restMass[dd] = outs[i].rest
			if !fullAgg {
				inc.itemContrib(dd, +1)
			}
		}
		clear(outs) // the rows are the store's now

		// The pass re-anchored these items' rows against the current
		// accuracies: provenances whose whole item set was covered restart
		// their drift from zero (the engine's SettleShards, per provenance).
		inc.settle(dirty, nItem)

		// M step (Eq 4) from the aggregates.
		if fullAgg {
			clear(inc.num)
			clear(inc.den)
			for dd := 0; dd < nItem; dd++ {
				inc.itemContrib(dd, +1)
			}
		}
		maxDelta := reestimate(inc.acc, inc.num, inc.den, inc.updated)
		for w := 0; w < nSrc; w++ {
			if dd := math.Abs(inc.acc[w] - prevAcc[w]); dd != 0 {
				inc.drift[w] += dd
			}
		}

		// The next pass's scope. At a fixed point a provenance whose drift
		// crossed Tol on this very step would still be published out of
		// contract, so converge only when the ledger adds nothing beyond the
		// base set; otherwise keep settling.
		dirty = inc.widen(base, baseMask, nItem)
		if maxDelta < inc.opt.Tol && len(dirty) == len(base) {
			converged = true
			break
		}
	}
	if iter > inc.opt.MaxIter {
		iter = inc.opt.MaxIter
	}
	inc.iterations = iter
	inc.fusedItems = fused
	inc.lastConverged = converged
}

// widen returns base plus the items of every participating provenance whose
// accumulated drift reached Tol, ascending. A base already covering
// everything short-circuits.
func (inc *Incremental) widen(base []int, baseMask []bool, nItem int) []int {
	if len(base) == nItem {
		return base
	}
	s := inc.s
	dirty := base
	grown := false
	for w, dr := range inc.drift {
		if dr < inc.opt.Tol || !inc.updated[w] {
			continue
		}
		for _, ti := range s.TriplesOfSource[w] {
			if dd := s.Triples[ti].D; !baseMask[dd] {
				if !grown {
					grown = true
					dirty = append([]int(nil), base...)
				}
				baseMask[dd] = true
				dirty = append(dirty, dd)
			}
		}
	}
	if !grown {
		return base
	}
	// Restore baseMask to the base set for later iterations, then order the
	// pass deterministically.
	for _, dd := range dirty[len(base):] {
		baseMask[dd] = false
	}
	sort.Ints(dirty)
	return dirty
}

// settle resets the drift of every participating provenance whose whole item
// set the pass covered. A full pass settles everything.
func (inc *Incremental) settle(dirty []int, nItem int) {
	if len(dirty) == nItem {
		clear(inc.drift)
		return
	}
	inc.passMask = resized(inc.passMask, nItem)
	mask := inc.passMask
	clear(mask)
	for _, dd := range dirty {
		mask[dd] = true
	}
	s := inc.s
	for w := range inc.drift {
		if inc.drift[w] == 0 {
			continue
		}
		covered := true
		for _, ti := range s.TriplesOfSource[w] {
			if !mask[s.Triples[ti].D] {
				covered = false
				break
			}
		}
		if covered {
			inc.drift[w] = 0
		}
	}
}

// result assembles an immutable Result: parameter and per-item scalars are
// copied, posterior rows are shared (they are never mutated in place — every
// re-fuse installs a fresh row).
func (inc *Incremental) result() *Result {
	return &Result{
		Accuracy:    append([]float64(nil), inc.acc...),
		Updated:     append([]bool(nil), inc.updated...),
		ValueProb:   append([][]float64(nil), inc.valueProb...),
		RestMass:    append([]float64(nil), inc.restMass...),
		CoveredItem: append([]bool(nil), inc.covered...),
		Iterations:  inc.iterations,
	}
}
