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
//   - the per-provenance accuracies, support counts and participation flags,
//   - the accuracy sufficient statistics (numerators/denominators over the
//     covered items), maintained by per-item contribution deltas and
//     re-anchored by a full re-aggregation every Options.ReaggregateEvery
//     partial M-steps — and on every full pass, so a cold Refresh executes
//     the identical arithmetic as Run and reproduces its output exactly,
//   - a per-provenance drift ledger: each M-step charges |Δaccuracy| to its
//     provenance, a provenance's charge resets when a pass re-fuses all of
//     its items, and the next iteration's E-step widens to exactly the items
//     of provenances whose accumulated charge crossed Tol.
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
	// M-step aggregates, the accumulated |Δaccuracy| drift, and the distinct
	// items it votes on (the fan-out set of a drift escalation).
	support  []int
	updated  []bool
	acc      []float64
	num, den []float64
	drift    []float64
	itemsOf  [][]int32
	pairSeen map[int64]bool // (provenance, item) pairs already in itemsOf

	// sinceReagg counts partial M-steps since the last full re-aggregation;
	// lastConverged gates the next refresh's resume escalation.
	sinceReagg    int
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
	if opt.ReaggregateEvery < 1 {
		opt.ReaggregateEvery = 64
	}
	if copt.SourceKey == nil {
		copt.SourceKey = triple.ProvenanceKey
	}
	if copt.ExtractorKey == nil {
		copt.ExtractorKey = triple.ExtractorKeyName
	}
	return &Incremental{opt: opt, copt: copt, pairSeen: make(map[int64]bool)}, nil
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

	base, err := inc.apply(prevS, d, cold)
	if err != nil {
		return nil, err
	}
	inc.iterate(base)
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
func (inc *Incremental) apply(prevS *triple.Snapshot, d triple.Delta, cold bool) ([]int, error) {
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
		inc.num = append(inc.num, 0)
		inc.den = append(inc.den, 0)
		inc.drift = append(inc.drift, 0)
		inc.itemsOf = append(inc.itemsOf, nil)
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

	// New observations: support, votes, the obs→vote index, and the
	// provenance→items fan-out lists.
	for oi := d.Obs; oi < nObs; oi++ {
		o := s.Obs[oi]
		inc.support[o.W]++
		inc.voteAt = append(inc.voteAt, int32(len(inc.votes[o.D])))
		inc.votes[o.D] = append(inc.votes[o.D], inc.opt.voteOf(s, o))
		key := int64(o.W)<<32 | int64(uint32(o.D))
		if !inc.pairSeen[key] {
			inc.pairSeen[key] = true
			inc.itemsOf[o.W] = append(inc.itemsOf[o.W], int32(o.D))
		}
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

	// Participation flips: a provenance crossing MinSupport joins fusion,
	// seeding from InitialAccuracy exactly as Run does, and every item it
	// votes on must re-fuse. (Support never shrinks, so flips are one-way.)
	var flippedItems []int32
	for w := 0; w < nSrc; w++ {
		if inc.updated[w] || inc.support[w] < inc.opt.MinSupport {
			continue
		}
		inc.updated[w] = true
		if a, ok := inc.opt.InitialAccuracy[w]; ok {
			inc.acc[w] = stats.ClampProb(a)
		}
		flippedItems = append(flippedItems, inc.itemsOf[w]...)
	}

	if cold || !inc.lastConverged {
		// Cold, or resuming an unconverged run: partial passes would stall on
		// cached rows that already reproduce the cached accuracies.
		base := make([]int, nItem)
		for i := range base {
			base[i] = i
		}
		return base, nil
	}
	for _, dd := range flippedItems {
		touch(int(dd))
	}
	sort.Ints(affected)
	return affected, nil
}

// itemContrib adds (sign=+1) or removes (sign=-1) item dd's contribution to
// the accuracy aggregates: each vote contributes conf×p(value) to its
// provenance's numerator and conf to the denominator, over covered items
// only (Eq 4's sums). Removal uses the identical cached weights and row the
// addition used, so a remove/re-add round trip is exact.
func (inc *Incremental) itemContrib(dd int, sign float64) {
	if !inc.covered[dd] {
		return
	}
	row := inc.valueProb[dd]
	for _, vt := range inc.votes[dd] {
		inc.num[vt.w] += sign * vt.conf * row[vt.slot]
		inc.den[vt.w] += sign * vt.conf
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

	converged := false
	iter := 0
	for iter = 1; iter <= inc.opt.MaxIter; iter++ {
		dirty := inc.widen(base, baseMask, nItem)
		for _, dd := range dirty {
			if !fusedMask[dd] {
				fusedMask[dd] = true
				fused++
			}
		}
		copy(prevAcc, inc.acc)

		// Full aggregation on every full pass (keeping a cold refresh
		// bit-identical to Run), on the re-anchoring cadence, and always
		// under the oracle option; partial passes otherwise maintain the
		// aggregates by per-item deltas during row installation.
		fullAgg := inc.opt.FullAggregates || len(dirty) == nItem ||
			inc.sinceReagg+1 >= inc.opt.ReaggregateEvery

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
			inc.sinceReagg = 0
		} else {
			inc.sinceReagg++
		}
		maxDelta := 0.0
		for w := 0; w < nSrc; w++ {
			// Run skips exact-zero denominators; the delta-maintained sums
			// can leave ~1e-16 cancellation residue where the true sum is
			// zero, so the streaming guard is a hair above that. Any real
			// vote weight is orders of magnitude larger.
			if !inc.updated[w] || inc.den[w] <= 1e-9 {
				continue
			}
			a := stats.ClampProb(inc.num[w] / inc.den[w])
			if dd := math.Abs(a - inc.acc[w]); dd > maxDelta {
				maxDelta = dd
			}
			inc.acc[w] = a
		}
		for w := 0; w < nSrc; w++ {
			if dd := math.Abs(inc.acc[w] - prevAcc[w]); dd != 0 {
				inc.drift[w] += dd
			}
		}

		if maxDelta < inc.opt.Tol {
			// At a fixed point — but a provenance whose accumulated drift
			// crossed Tol on this very step would be published out of
			// contract. Converge only when the ledger adds nothing beyond
			// the base set; otherwise keep settling.
			if !inc.anyDriftBeyond(baseMask) {
				converged = true
				break
			}
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
	dirty := base
	grown := false
	for w, dr := range inc.drift {
		if dr < inc.opt.Tol || !inc.updated[w] {
			continue
		}
		for _, dd := range inc.itemsOf[w] {
			if !baseMask[dd] {
				if !grown {
					grown = true
					dirty = append([]int(nil), base...)
				}
				baseMask[dd] = true
				dirty = append(dirty, int(dd))
			}
		}
	}
	if !grown {
		return base
	}
	// Restore baseMask to the base set for the convergence check and later
	// iterations, then order the pass deterministically.
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
	for w := range inc.drift {
		if inc.drift[w] == 0 {
			continue
		}
		covered := true
		for _, dd := range inc.itemsOf[w] {
			if !mask[dd] {
				covered = false
				break
			}
		}
		if covered {
			inc.drift[w] = 0
		}
	}
}

// anyDriftBeyond reports whether some participating provenance with ≥Tol
// accumulated drift votes on an item outside the base set.
func (inc *Incremental) anyDriftBeyond(baseMask []bool) bool {
	for w, dr := range inc.drift {
		if dr < inc.opt.Tol || !inc.updated[w] {
			continue
		}
		for _, dd := range inc.itemsOf[w] {
			if !baseMask[dd] {
				return true
			}
		}
	}
	return false
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
