package triple

import "slices"

// Extend compiles records on top of the snapshot, producing a new snapshot
// equal to compiling the parent's records followed by the new ones in one
// batch — bit-identical tables, indexes and canonical order, hence
// bit-identical downstream inference. The parent is not mutated and remains
// fully usable, also while the child is being built.
//
// Cost: O(records + log-amortised interning) plus one row header for every
// unit of a kind whose old rows the batch grows. The first Extend of a parent
// claims its tail (Snapshot.tailClaimed) and shares what it does not touch: it
// appends to the flat tables, and to the outer arrays of ItemValues and the
// five inverted indexes, in their spare capacity. Growing a parent's row
// replaces its header, so the first such write to a table copies that table's
// outer array (rowTable.set) — the extractor tables on every batch, a few
// rows; TriplesOfSource when a known source says something new;
// TriplesOfItem, ByTriple and ItemValues (Delta.GrownItems) when a known item
// or triple is extracted again, and those are O(corpus) headers: a stream of
// new pages about known entities pays them, which ROADMAP item 5 leaves to a
// measurement. The row itself is appended to in place, the parent never
// reading past its own length (an insert before a sorted row's end copies the
// row, once per call). Interning layers merge geometrically: over a lineage a
// label is re-inserted O(log n) times. Also outside the bound: a table or row
// that outgrows its capacity is regrown by append (amortised); a raised
// confidence copies Obs (Delta.RaisedObs); and a second child of the same
// parent copies every table, each index row clipped to its length so that no
// later append lands in the claimant's capacity.
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
// Extend panics if the parent was compiled with positional label overrides
// (CompileOptions.SourceLabels/ExtractorLabels): those labels are parallel
// to the original record slice and cannot classify new records.
func (s *Snapshot) Extend(records []Record) *Snapshot {
	if s.labelCompiled {
		panic("triple: Extend on a snapshot compiled with positional label overrides")
	}
	// One claimant: a second child's appends would collide in the shared tail.
	claimed := s.tailClaimed.CompareAndSwap(false, true)
	c := &Snapshot{
		sourceIdx:    s.sourceIdx.child(),
		extractorIdx: s.extractorIdx.child(),
		itemIdx:      s.itemIdx.child(),
		valueIdx:     s.valueIdx.child(),
		predIdx:      s.predIdx.child(),

		copt: s.copt,

		// Record the parent table sizes before appending, so ParentDelta can
		// tell incremental consumers exactly which suffixes are new.
		delta: &Delta{
			Obs: len(s.Obs), Triples: len(s.Triples), Items: len(s.Items),
			Sources: len(s.Sources), Extractors: len(s.Extractors), Values: len(s.Values),
		},

		// The claimant adopts the parent's backing arrays and appends into
		// their spare capacity, never writing the prefixes the parent's
		// holders read: a write below a parent's length (a raised confidence
		// in appender.appendIDs, a grown row in rowTable.set) first unshares
		// the array it lands in.
		ByTriple:           forkRows(s.ByTriple, claimed),
		TriplesOfItem:      forkRows(s.TriplesOfItem, claimed),
		TriplesOfSource:    forkRows(s.TriplesOfSource, claimed),
		ObsOfExtractor:     forkRows(s.ObsOfExtractor, claimed),
		SourcesOfExtractor: forkRows(s.SourcesOfExtractor, claimed),

		obsShared:  claimed,
		Obs:        adopt(s.Obs, claimed),
		ItemValues: adopt(s.ItemValues, claimed),
		Triples:    adopt(s.Triples, claimed),
		Sources:    adopt(s.Sources, claimed),
		Extractors: adopt(s.Extractors, claimed),
		Items:      adopt(s.Items, claimed),
		Values:     adopt(s.Values, claimed),
		Predicates: adopt(s.Predicates, claimed),
		PredOfItem: adopt(s.PredOfItem, claimed),
	}
	ap := newAppender(c, *c.delta, claimed, len(records))
	for ri := range records {
		r := &records[ri]
		e := c.internExtractor(c.copt.ExtractorKey(*r))
		w := c.internSource(c.copt.SourceKey(*r))
		ap.appendIDs(e, w, c.internItem(r), c.valueIdx.intern(&c.Values, r.Object), r.Conf())
	}
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
func forkRows(rows [][]int, claimed bool) [][]int {
	rows = adopt(rows, claimed)
	if !claimed {
		for i, row := range rows {
			rows[i] = slices.Clip(row)
		}
	}
	return rows
}
