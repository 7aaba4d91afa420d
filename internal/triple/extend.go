package triple

import "slices"

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
// Each row is resolved by its labels under the snapshot's groupings, one
// label join and one intern lookup per unit. ExtendTable panics if the parent
// was built on Units (split-and-merge, positional labels), which assign the
// records built and cannot classify new ones.
func (s *Snapshot) ExtendTable(t *Table, from int) *Snapshot {
	if s.sourceKey.Fields == nil {
		panic("triple: Extend on a snapshot built on Units")
	}
	// One claimant: a second child's appends would collide in the shared tail.
	claimed := s.tailClaimed.CompareAndSwap(false, true)
	c := &Snapshot{
		sourceIdx:    s.sourceIdx.child(),
		extractorIdx: s.extractorIdx.child(),
		itemIdx:      s.itemIdx.child(),
		valueIdx:     s.valueIdx.child(),
		predIdx:      s.predIdx.child(),

		sourceKey: s.sourceKey, extractorKey: s.extractorKey,

		// Record the parent table sizes before appending, so ParentDelta can
		// tell incremental consumers exactly which suffixes are new.
		delta: &Delta{
			Obs: len(s.Obs), Triples: len(s.Triples), Items: len(s.Items),
			Sources: len(s.Sources), Extractors: len(s.Extractors), Values: len(s.Values),
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
		Sources:    adopt(s.Sources, claimed),
		Extractors: adopt(s.Extractors, claimed),
		Items:      adopt(s.Items, claimed),
		Values:     adopt(s.Values, claimed),
		Predicates: adopt(s.Predicates, claimed),
		PredOfItem: adopt(s.PredOfItem, claimed),
	}
	// Resolve the rows to id columns in order, as Compile does, noting the
	// parent's items they touch.
	n := t.Len() - from
	es, ws, ds, vs := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	var touched []int32
	for k := range n {
		i := from + k
		es[k] = c.internExtractor(c.extractorKey.row(t, i))
		ws[k] = c.internSource(c.sourceKey.row(t, i))
		ds[k] = c.internItem(itemKey.row(t, i), t.label(fieldPredicate, i))
		vs[k] = c.valueIdx.intern(&c.Values, t.label(fieldObject, i))
		if int(ds[k]) < c.delta.Items {
			touched = append(touched, ds[k])
		}
	}
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

// Extend is ExtendTable over a table of the records.
func (s *Snapshot) Extend(records []Record) *Snapshot { return s.ExtendTable(TableOf(records), 0) }

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
