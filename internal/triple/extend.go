package triple

import (
	"fmt"
	"slices"
)

// ExtendTable compiles the rows of t from row from on top of the snapshot,
// producing a new snapshot equal to compiling the parent's records followed
// by those rows in one batch — bit-identical tables, indexes and canonical
// order, hence bit-identical downstream inference. The parent is not mutated
// and remains fully usable, also while the child is being built.
//
// Cost: O(cells × radix passes + log-amortised interning), the cells being the
// records and the parent's observations of the items they touch: one sort
// groups them with the records, one pass in record order assigns the new ids,
// and each index table is filled by one more sort of the new triples or
// observations by row, never by an array the size of the table
// (appender.appendCells); plus one row header for every unit of a kind whose
// old rows the batch grows. The first Extend of a parent claims its tail
// (Snapshot.tailClaimed) and shares what it does not touch: it appends to the
// flat tables, and to the outer arrays of ItemValues and the four inverted
// indexes, in their spare capacity. Growing a parent's row replaces its
// header, so the first such write to a table copies that table's outer array
// (rowTable.set) — ObsOfExtractor on every batch, a few rows;
// TriplesOfSource when a known source says something new; TriplesOfItem,
// ByTriple and ItemValues (Delta.GrownItems) when a known item or triple is
// extracted again, and those are O(corpus) headers: a stream of new pages
// about known entities pays them, which ROADMAP item 8(b) leaves to a
// measurement. A grown row takes the batch's run in one append, in place, the
// parent never reading past its own length; a merge into a sorted ItemValues
// row that inserts before its end copies the row instead. Interning layers
// merge geometrically: over a lineage a label is re-inserted O(log n) times.
// Also outside the bound: a table or row that outgrows its capacity is
// regrown by append (amortised); a raised confidence copies Obs
// (Delta.RaisedObs); and a second child of the same parent copies every table,
// each index row clipped to its length so that no later append lands in the
// claimant's capacity.
//
// Invariants the child guarantees relative to its parent:
//
//   - dense ids are stable: every source/extractor/item/value/predicate
//     keeps its id, and new labels take the next ids in first-appearance
//     order;
//   - Triples is append-only: parent.Triples is a strict prefix of
//     child.Triples, so per-triple state carries over by index;
//   - Obs is append-only except that a duplicate (e,w,d,v) cell with higher
//     confidence raises the existing observation's Conf (in the child only).
//
// Each row is resolved by its field ids under the snapshot's groupings: a
// field's unit is the row's id, a tuple's one lookup of the ids in a layered
// map; a label is joined only for a tuple with a "\x1f" inside a field
// (units.intern). t's first from rows must be the snapshot's, from being their
// number (a table the snapshot's was clipped from, or a clip of it, grown);
// the child keeps a clip of t. ExtendTable panics if the parent was built on
// Units (split-and-merge, positional labels), which assign the records built
// and cannot classify new ones.
func (s *Snapshot) ExtendTable(t *Table, from int) *Snapshot {
	s.mustExtend()
	return s.extend(t.Clip(), from, s.tailClaimed.CompareAndSwap(false, true))
}

// Extend is ExtendTable over the snapshot's records followed by these: they
// are added to a table grown from the snapshot's, in place in its spare
// capacity if this is the snapshot's first Extend.
func (s *Snapshot) Extend(records []Record) *Snapshot {
	s.mustExtend()
	claimed := s.tailClaimed.CompareAndSwap(false, true)
	t := s.table.grow(claimed)
	for _, r := range records {
		t.Add(r)
	}
	t.freeze()
	return s.extend(t, s.Rows(), claimed)
}

// mustExtend panics unless s was built on two field groupings.
func (s *Snapshot) mustExtend() {
	if s.sources.labelled || s.extractors.labelled {
		panic("triple: Extend on a snapshot built on Units")
	}
}

// extend builds the child of s over the rows of t from from on, t being the
// child's own table; claimed says whether the child is s's claimant.
func (s *Snapshot) extend(t *Table, from int, claimed bool) *Snapshot {
	if from != s.Rows() || t.Len() < from {
		panic(fmt.Sprintf("triple: Extend from row %d of a table of %d rows, over a snapshot of %d", from, t.Len(), s.Rows()))
	}
	c := &Snapshot{
		table:      t,
		sources:    s.sources.fork(claimed),
		extractors: s.extractors.fork(claimed),
		items:      s.items.fork(claimed),
		values:     s.values,
		predicates: s.predicates,

		// Record the parent table sizes before appending, so ParentDelta can
		// tell incremental consumers exactly which suffixes are new.
		delta: &Delta{
			Obs: len(s.Obs), Triples: len(s.Triples), Items: len(s.Items),
			Sources: s.NumSources(), Extractors: s.NumExtractors(), Values: s.NumValues(),
		},

		// The claimant adopts the parent's backing arrays and appends into
		// their spare capacity, never writing the prefixes the parent's
		// holders read: a write below a parent's length (a raised confidence
		// in appender.appendCells, a grown row in rowTable.set) first unshares
		// the array it lands in.
		ItemValues:      forkRows(s.ItemValues, claimed),
		ByTriple:        forkRows(s.ByTriple, claimed),
		TriplesOfItem:   forkRows(s.TriplesOfItem, claimed),
		TriplesOfSource: forkRows(s.TriplesOfSource, claimed),
		ObsOfExtractor:  forkRows(s.ObsOfExtractor, claimed),

		obsShared:  claimed,
		Obs:        adopt(s.Obs, claimed),
		Triples:    adopt(s.Triples, claimed),
		PredOfItem: adopt(s.PredOfItem, claimed),
	}
	// Resolve the rows to id columns in order, as Compile does, growing the
	// row tables of each new unit and noting the parent's items they touch.
	n := t.Len() - from
	es, ws, ds, vs := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	var touched []int32
	for k := range n {
		i := from + k
		es[k] = c.extractors.intern(t, i)
		if int(es[k]) == len(c.ObsOfExtractor) {
			c.ObsOfExtractor = append(c.ObsOfExtractor, nil)
		}
		ws[k] = c.sources.intern(t, i)
		if int(ws[k]) == len(c.TriplesOfSource) {
			c.TriplesOfSource = append(c.TriplesOfSource, nil)
		}
		ds[k] = c.items.intern(t, i)
		if int(ds[k]) == len(c.PredOfItem) {
			c.PredOfItem = append(c.PredOfItem, t.ids[fieldPredicate][i])
			c.TriplesOfItem = append(c.TriplesOfItem, nil)
			c.ItemValues = append(c.ItemValues, nil)
		}
		vs[k] = t.ids[fieldObject][i]
		if int(ds[k]) < c.delta.Items {
			touched = append(touched, ds[k])
		}
	}
	c.Items = c.items.first
	// The parent's cells of those items rank before every record, so a
	// record's triple or observation already in the parent keeps its index.
	var tri, obs []int32
	if len(touched) > 0 {
		slices.Sort(touched)
		touched = slices.Compact(touched)
		p := 0
		for _, d := range touched {
			for _, ti := range c.TriplesOfItem[d] {
				p += len(c.ByTriple[ti])
			}
		}
		pe, pw, pd, pv := make([]int32, 0, p+n), make([]int32, 0, p+n), make([]int32, 0, p+n), make([]int32, 0, p+n)
		tri, obs = make([]int32, 0, p+n), make([]int32, 0, p+n)
		for _, d := range touched {
			for _, ti := range c.TriplesOfItem[d] {
				for _, oi := range c.ByTriple[ti] {
					o := c.Obs[oi]
					pe, pw, pd, pv = append(pe, o.E), append(pw, o.W), append(pd, o.D), append(pv, o.V)
					tri, obs = append(tri, ti), append(obs, oi)
				}
			}
		}
		es, ws, ds, vs = append(pe, es...), append(pw, ws...), append(pd, ds...), append(pv, vs...)
	}
	newAppender(c, *c.delta, claimed).appendCells(t.conf[from:], es, ws, ds, vs, tri, obs)
	return c
}

// adopt returns the table a child starts from: a copy, unless it is the claimant.
func adopt[T any](table []T, claimed bool) []T {
	if claimed {
		return table
	}
	return slices.Clone(table)
}

// forkRows is adopt for an index whose rows a build appends to in place: a
// copy's rows are clipped to their lengths, so nothing it or a descendant
// appends lands in the spare capacity the claimant inherited.
func forkRows[T denseID](rows [][]T, claimed bool) [][]T {
	rows = adopt(rows, claimed)
	if !claimed {
		for i, row := range rows {
			rows[i] = slices.Clip(row)
		}
	}
	return rows
}
