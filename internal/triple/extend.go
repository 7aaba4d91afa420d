package triple

import "slices"

// Extend compiles records on top of the snapshot, producing a new snapshot
// equal to compiling the parent's records followed by the new ones in one
// batch — bit-identical tables, indexes and canonical order, hence
// bit-identical downstream inference. The parent is not mutated and remains
// fully usable.
//
// Cost: label interning and per-row index construction are proportional to
// the new records and the items they touch, and the first Extend of a parent
// appends to the flat tables (observations, triples, labels) in place.
// Inverted-index rows untouched by the new records share backing arrays with
// the parent; interning maps are layered copy-on-write (flattened past a
// fixed depth, so lookup cost stays bounded across arbitrarily long Extend
// lineages). Two memcpys are O(corpus) all the same: the six outer index
// slices are cloned whole — one 24-byte row header per item, triple, source
// and extractor — and a parent row is cloned whole before its first append,
// so the row of a unit that spans the corpus (a hub site's TriplesOfSource,
// an every-cell extractor's ObsOfExtractor) is copied again by every Extend.
// At 80 k records with one such site and one such extractor a 100-record
// Extend allocates 4.1 MB, 2.4 MB of it outer slices and 0.6 MB those rows.
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
	c := &Snapshot{
		sourceIdx:    s.sourceIdx.child(s.Sources),
		extractorIdx: s.extractorIdx.child(s.Extractors),
		itemIdx:      s.itemIdx.child(s.Items),
		valueIdx:     s.valueIdx.child(s.Values),
		predIdx:      s.predIdx.child(s.Predicates),

		copt: s.copt,

		// Record the parent table sizes before appending, so ParentDelta can
		// tell incremental consumers exactly which suffixes are new.
		delta: &Delta{
			Obs: len(s.Obs), Triples: len(s.Triples), Items: len(s.Items),
			Sources: len(s.Sources), Extractors: len(s.Extractors), Values: len(s.Values),
		},

		// Outer index slices are cloned so row clones and appends never
		// write into the parent's arrays (a row-pointer replacement in a
		// shared outer array would change what the parent reads); the rows
		// themselves stay shared until the appender touches them.
		ItemValues:         slices.Clone(s.ItemValues),
		ByTriple:           slices.Clone(s.ByTriple),
		TriplesOfItem:      slices.Clone(s.TriplesOfItem),
		TriplesOfSource:    slices.Clone(s.TriplesOfSource),
		ObsOfExtractor:     slices.Clone(s.ObsOfExtractor),
		SourcesOfExtractor: slices.Clone(s.SourcesOfExtractor),
	}
	// The flat tables are append-only, so the child can adopt the parent's
	// backing arrays outright and append into their spare capacity — the
	// prefixes every holder of the parent reads are never written again.
	// Only the first Extend of a given parent may do this (appends by a
	// second child would collide in the shared tail); later ones, and the
	// rare in-place confidence raise (see appender.appendIDs), copy.
	if s.tailClaimed.CompareAndSwap(false, true) {
		c.Obs = s.Obs
		c.obsShared = true
		c.Triples = s.Triples
		c.Sources = s.Sources
		c.Extractors = s.Extractors
		c.Items = s.Items
		c.Values = s.Values
		c.Predicates = s.Predicates
		c.PredOfItem = s.PredOfItem
	} else {
		c.Obs = append(make([]Observation, 0, len(s.Obs)+len(records)), s.Obs...)
		c.Triples = slices.Clone(s.Triples)
		c.Sources = slices.Clone(s.Sources)
		c.Extractors = slices.Clone(s.Extractors)
		c.Items = slices.Clone(s.Items)
		c.Values = slices.Clone(s.Values)
		c.Predicates = slices.Clone(s.Predicates)
		c.PredOfItem = slices.Clone(s.PredOfItem)
	}
	ap := newAppender(c, len(records))
	for ri := range records {
		r := &records[ri]
		e := c.internExtractor(c.copt.ExtractorKey(*r))
		w := c.internSource(c.copt.SourceKey(*r))
		ap.appendIDs(e, w, c.internItem(r), c.valueIdx.intern(&c.Values, r.Object), r.Conf())
	}
	return c
}
