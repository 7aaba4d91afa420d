package fusion

import (
	"errors"
	"math"
	"slices"

	"kbt/internal/core"
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
// The store owns its snapshot chain (compiled at provenance granularity,
// triple.ProvenanceKey and triple.ExtractorKeyName, the single-layer setup of
// §5.1.2, and extended append-only with each ingest) and persists between
// refreshes:
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
	opt Options

	s *triple.Snapshot
	// tab holds the records Refresh took in (RefreshTable's caller keeps its
	// own).
	tab *triple.Table

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

	// converged is the last refresh's outcome: an unconverged store resumes
	// with a pass over every item.
	converged  bool
	iterations int
	fusedItems int

	// The scopes, kept across refreshes: base holds the items the ingest
	// touched and those of participation flips (every item on a cold or
	// resuming refresh), next the scope widen marked, cur the running pass's,
	// and fused the items the refresh fused. pass lists cur's items
	// ascending, in passBuf, or is every, the list of every item id. prevAcc
	// and outs are the M step's and E step's scratch.
	base, next, cur, fused *core.ScopeSet
	pass, passBuf, every   []int
	prevAcc                []float64
	outs                   []fuseOut
}

// fuseOut is one item's E-step output.
type fuseOut struct {
	row     []float64
	rest    float64
	covered bool
}

// NewIncremental validates opt exactly as Run does and returns an empty
// store. Its second parameter is not read: the store is at provenance
// granularity whatever it holds, and every caller passes the zero value.
func NewIncremental(opt Options, _ triple.CompileOptions) (*Incremental, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return &Incremental{opt: opt, base: core.NewScopeSet(), next: core.NewScopeSet(),
		cur: core.NewScopeSet(), fused: core.NewScopeSet()}, nil
}

// Snapshot returns the store's current provenance-granularity snapshot (nil
// before the first Refresh). Immutable; later refreshes chain new snapshots.
func (inc *Incremental) Snapshot() *triple.Snapshot { return inc.s }

// FusedLast reports how many distinct items the last Refresh re-fused.
func (inc *Incremental) FusedLast() int { return inc.fusedItems }

// RefreshTable folds the rows of t the store has not taken in into it and
// re-fuses the affected items. t is the full ingest-ordered sequence: the
// first call compiles it whole, and later ones read only the rows past those
// the store's snapshot holds — none, when a refresh of the caller that failed
// after this store's pass offers the same rows again. It returns an immutable
// Result; value-posterior rows are shared copy-on-write with the store and
// with earlier results.
func (inc *Incremental) RefreshTable(t *triple.Table) (*Result, error) {
	prevS := inc.s
	var d triple.Delta // cold: every observation is new
	switch {
	case prevS == nil:
		inc.s = t.Compile(triple.ProvenanceKey, triple.ExtractorKeyName)
	case prevS.Rows() == t.Len():
		d.Obs = len(prevS.Obs) // a resume: nothing is new
	default:
		inc.s = prevS.ExtendTable(t, prevS.Rows())
		var ok bool
		if d, ok = inc.s.ParentDelta(); !ok {
			return nil, errors.New("fusion: extended snapshot lost its delta")
		}
	}
	inc.apply(prevS, d)
	inc.iterations, inc.converged, _ = core.Settle(inc.opt.MaxIter, inc.widen, inc.enter, inc.step)
	return inc.result(), nil
}

// Refresh is RefreshTable over records: records is the full ingest-ordered
// sequence, which the first call compiles, and pending its suffix since the
// previous Refresh, which later calls fold in. The store adds them to a table
// of its own, which grows by the pending records alone.
func (inc *Incremental) Refresh(records, pending []triple.Record) (*Result, error) {
	if inc.tab == nil {
		inc.tab, pending = &triple.Table{}, records
	}
	for _, r := range pending {
		inc.tab.Add(r)
	}
	return inc.RefreshTable(inc.tab.Clip())
}

// apply grows every persistent structure by the extension delta — counting
// support, appending votes, remapping the slots of items whose candidate-
// value list gained an entry, patching raised confidences, refreshing the
// popularity shares — while keeping the aggregate invariant (num/den equal
// the sums over the current rows and weights of the covered items) by
// subtracting each affected item's contribution before the edits and
// re-adding it after. It marks the refresh's base scope: the items the
// ingest touched plus every item of a provenance that newly met MinSupport,
// or all items on a cold (or unconverged-resume) refresh.
func (inc *Incremental) apply(prevS *triple.Snapshot, d triple.Delta) {
	s := inc.s
	nItem, nSrc, nObs := len(s.Items), s.NumSources(), len(s.Obs)

	// Grow the per-item and per-provenance arrays; new provenances start at
	// the default accuracy exactly as in Run.
	for dd := len(inc.votes); dd < nItem; dd++ {
		inc.votes = append(inc.votes, nil)
		inc.valueProb = append(inc.valueProb, nil)
		inc.restMass = append(inc.restMass, 0)
		inc.covered = append(inc.covered, false)
		inc.every = append(inc.every, dd)
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
		inc.prevAcc = append(inc.prevAcc, 0)
	}
	inc.fused.Reset(nItem)
	inc.fusedItems = 0

	// The affected items: owners of new observations (which includes every
	// item whose value list grew — a new value implies a new observation on
	// the item) and of raised duplicate cells.
	base := inc.base
	base.Reset(nItem)
	for oi := d.Obs; oi < nObs; oi++ {
		base.Mark(int(s.Obs[oi].D))
	}
	for _, oi := range d.RaisedObs {
		base.Mark(int(s.Obs[oi].D))
	}
	affected := inc.itemsOf(base)

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

	// Cold (a new store has not converged), or resuming an unconverged run:
	// every item re-fuses, since partial passes would stall on cached rows
	// that already reproduce the cached accuracies.
	if !inc.converged {
		base.MarkAllFull()
	}

	// Participation flips: a provenance crossing MinSupport joins fusion,
	// seeding from InitialAccuracy exactly as Run does, and every item it
	// votes on must re-fuse. Support grows only with new observations, so
	// only their provenances can flip (and flips are one-way).
	for oi := d.Obs; oi < nObs; oi++ {
		w := int(s.Obs[oi].W)
		if inc.updated[w] || inc.support[w] < inc.opt.MinSupport {
			continue
		}
		inc.updated[w] = true
		if a, ok := inc.opt.InitialAccuracy[w]; ok {
			inc.acc[w] = stats.ClampProb(a)
		}
		for _, ti := range s.TriplesOfSource[w] {
			base.Mark(int(s.Triples[ti].D))
		}
	}
}

// itemsOf returns sc's items in ascending order — every, when sc holds every
// item. A narrow list lives in passBuf until the next call.
func (inc *Incremental) itemsOf(sc *core.ScopeSet) []int {
	items := sc.Items(inc.passBuf)
	if items == nil {
		return inc.every[:len(inc.s.Items)]
	}
	inc.passBuf = items
	return items
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

// widen, enter and step are the three steps core.Settle drives for a
// refresh: the same settling loop the multi-layer engine and Run run, over the
// single-layer model. A pass over every item is arithmetically identical to
// one of Run's iterations.

// widen marks into next the base scope plus the items of every
// participating provenance whose accumulated drift reached Tol, and reports
// how many items that adds to the base.
func (inc *Incremental) widen() (stale int) {
	s, next := inc.s, inc.next
	next.Reset(len(s.Items))
	next.MergeFrom(inc.base)
	if next.AllFull() {
		return 0
	}
	for w, dr := range inc.drift {
		if dr < inc.opt.Tol || !inc.updated[w] {
			continue
		}
		for _, ti := range s.TriplesOfSource[w] {
			stale += next.Mark(int(s.Triples[ti].D))
		}
	}
	return stale
}

// enter makes the scope widen marked the current one and lists its items.
func (inc *Incremental) enter(int) {
	inc.cur, inc.next = inc.next, inc.cur
	inc.pass = inc.itemsOf(inc.cur)
}

// step runs one E/M iteration over the current pass and reports whether the
// accuracies settled within Tol.
func (inc *Incremental) step(int) (settled bool) {
	s, dirty := inc.s, inc.pass
	for _, dd := range dirty {
		inc.fusedItems += inc.fused.Mark(dd)
	}
	copy(inc.prevAcc, inc.acc)

	// Full aggregation on a full pass, where it is the cheaper of the two,
	// and always under the oracle option; partial passes maintain the
	// aggregates by per-item deltas during row installation.
	fullAgg := inc.opt.FullAggregates || inc.cur.AllFull()

	// E step (Eq 2) over the dirty items: rows compute in parallel into
	// scratch, then install serially so the aggregate deltas apply in
	// deterministic ascending-item order.
	inc.outs = slices.Grow(inc.outs[:0], len(dirty))[:len(dirty)]
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

	// The pass re-anchored these items' rows against the current accuracies.
	inc.settle()

	// M step (Eq 4) from the aggregates.
	if fullAgg {
		clear(inc.num)
		clear(inc.den)
		for dd := range s.Items {
			inc.itemContrib(dd, +1)
		}
	}
	maxDelta := reestimate(inc.acc, inc.num, inc.den, inc.updated)
	for w, a := range inc.acc {
		if dd := math.Abs(a - inc.prevAcc[w]); dd != 0 {
			inc.drift[w] += dd
		}
	}
	return maxDelta < inc.opt.Tol
}

// settle resets the drift of every participating provenance whose whole item
// set the current pass covered. A full pass settles everything.
func (inc *Incremental) settle() {
	if inc.cur.AllFull() {
		clear(inc.drift)
		return
	}
	s := inc.s
	for w := range inc.drift {
		if inc.drift[w] == 0 {
			continue
		}
		covered := true
		for _, ti := range s.TriplesOfSource[w] {
			if !inc.cur.Marked(int(s.Triples[ti].D)) {
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
		Converged:   inc.converged,
	}
}
