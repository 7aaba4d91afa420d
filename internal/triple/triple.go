package triple

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Record is one raw extraction with full provenance, before any choice of
// source/extractor granularity. It corresponds to a single X_ewdv = 1 cell
// (or a soft cell when Confidence < 1).
type Record struct {
	// Extractor names the extraction system (one of KV's 16 in the paper).
	Extractor string
	// Pattern is the extraction pattern within the extractor.
	Pattern string
	// Website is the registrable domain of the page, e.g. "wiki.com".
	Website string
	// Page is the specific URL, e.g. "wiki.com/page1".
	Page string
	// Subject, Predicate, Object form the extracted knowledge triple.
	Subject   string
	Predicate string
	Object    string
	// Confidence is the extractor's probability that the page really
	// provides the triple. Zero means "unspecified" and is treated as 1,
	// matching §5.1.2 ("if an extractor does not provide confidence, we
	// assume the confidence is 1").
	Confidence float64
}

// Conf returns the effective confidence of the record in (0,1].
func (r Record) Conf() float64 {
	if r.Confidence <= 0 {
		return 1
	}
	if r.Confidence > 1 {
		return 1
	}
	return r.Confidence
}

// ItemKey returns the data-item identity (subject, predicate) of the record.
func (r Record) ItemKey() string { return r.Subject + "\x1f" + r.Predicate }

// TripleKey returns the full (subject, predicate, object) identity.
func (r Record) TripleKey() string {
	return r.Subject + "\x1f" + r.Predicate + "\x1f" + r.Object
}

// SourceKeyFunc maps a record to the label of the source unit it belongs to
// under some granularity (e.g. website-only, or website|predicate|page).
type SourceKeyFunc func(Record) string

// ExtractorKeyFunc maps a record to the label of the extractor unit it
// belongs to under some granularity.
type ExtractorKeyFunc func(Record) string

// The paper's source feature vector is ⟨website, predicate, webpage⟩ ordered
// most-general-first (§4); the extractor vector is ⟨extractor, pattern,
// predicate, website⟩. These helpers build the standard key functions.

// SourceKeyWebsite groups records by website only (coarsest source).
func SourceKeyWebsite(r Record) string { return r.Website }

// SourceKeyWebsitePredicate groups by ⟨website, predicate⟩.
func SourceKeyWebsitePredicate(r Record) string {
	return r.Website + "\x1f" + r.Predicate
}

// SourceKeyFinest groups by ⟨website, predicate, webpage⟩, the finest source
// granularity used in the paper's experiments (§5.1.2).
func SourceKeyFinest(r Record) string {
	return r.Website + "\x1f" + r.Predicate + "\x1f" + r.Page
}

// SourceKeyPage groups by webpage (used when treating each URL as a source).
func SourceKeyPage(r Record) string { return r.Page }

// ExtractorKeyName groups by extractor system only (coarsest).
func ExtractorKeyName(r Record) string { return r.Extractor }

// ExtractorKeyFinest groups by ⟨extractor, pattern, predicate, website⟩, the
// finest extractor granularity used in the paper's experiments.
func ExtractorKeyFinest(r Record) string {
	return r.Extractor + "\x1f" + r.Pattern + "\x1f" + r.Predicate + "\x1f" + r.Website
}

// ProvenanceKey groups by the single-layer "provenance" 4-tuple
// (extractor, website, predicate, pattern) of §5.1.2.
func ProvenanceKey(r Record) string {
	return r.Extractor + "\x1f" + r.Website + "\x1f" + r.Predicate + "\x1f" + r.Pattern
}

// Dataset accumulates raw extraction records plus, optionally, the triples
// each source truly provides (ground truth available from simulators and the
// motivating example; absent for real crawls).
type Dataset struct {
	Records []Record

	// Provided, when non-nil, maps source-truth: ProvidedKey(w,d,v) entries
	// that web sources actually state. Used for SqC evaluation and for the
	// single-layer/multi-layer comparisons on synthetic data.
	Provided map[string]bool

	// TrueValue, when non-nil, maps an item key to the value that is correct
	// in the real world. Used for SqV evaluation on synthetic data.
	TrueValue map[string]string
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{}
}

// Add appends an extraction record.
func (d *Dataset) Add(r Record) {
	d.Records = append(d.Records, r)
}

// MarkProvided records ground truth that page (on website) truly provides
// the triple. pageSourceKey must agree with the SourceKeyFunc later used to
// compile the dataset; we store it keyed by the finest key and re-derive.
func (d *Dataset) MarkProvided(website, page, subject, predicate, object string) {
	if d.Provided == nil {
		d.Provided = make(map[string]bool)
	}
	d.Provided[ProvidedKey(website, page, subject, predicate, object)] = true
}

// ProvidedKey builds the canonical ground-truth key for a provided triple.
func ProvidedKey(website, page, subject, predicate, object string) string {
	return website + "\x1f" + page + "\x1f" + subject + "\x1f" + predicate + "\x1f" + object
}

// MarkTrue records the real-world true value of a data item.
func (d *Dataset) MarkTrue(subject, predicate, value string) {
	if d.TrueValue == nil {
		d.TrueValue = make(map[string]string)
	}
	d.TrueValue[subject+"\x1f"+predicate] = value
}

// Observation is one compiled cell of the observation matrix with dense ids.
type Observation struct {
	E    int     // extractor unit
	W    int     // source unit
	D    int     // data item
	V    int     // value (dense per dataset, shared across items)
	Conf float64 // p(X_ewdv = 1), in (0,1]
}

// Snapshot is the compiled, id-dense view of a Dataset at a fixed
// source/extractor granularity. It is immutable after Compile (and after
// Extend, which builds a child snapshot without mutating its parent).
//
// Canonical order: observations, candidate triples and all dense ids follow
// the first appearance of their label/cell in record order. Because records
// only ever append, this makes compilation itself append-only — compiling a
// grown dataset yields a snapshot whose tables are strict prefixes-plus-
// appends of the old ones, and Extend reproduces Compile's output exactly
// (bit-identical indexes, hence bit-identical downstream inference).
type Snapshot struct {
	Obs []Observation

	Sources    []string // source-unit labels, indexed by Observation.W
	Extractors []string // extractor-unit labels, indexed by Observation.E
	Items      []string // data-item keys, indexed by Observation.D
	Values     []string // value labels, indexed by Observation.V

	// Predicates interns the predicate vocabulary; PredOfItem maps each
	// data item to its predicate id. The multi-layer model scopes extractor
	// absence votes by (source, predicate) cells.
	Predicates []string
	PredOfItem []int

	sourceIdx    *internTable
	extractorIdx *internTable
	itemIdx      *internTable
	valueIdx     *internTable
	predIdx      *internTable

	// copt records the granularity the snapshot was compiled at, so Extend
	// can keep applying it. labelCompiled marks snapshots built from
	// positional label overrides, which cannot extend (the labels are
	// parallel to the original record slice only).
	copt          CompileOptions
	labelCompiled bool

	// delta, set only on snapshots built by Extend, records the parent table
	// sizes, the in-place confidence raises and the grown value rows — all
	// that incremental consumers need to carry their own state append-only.
	delta *Delta

	// tailClaimed grants the first Extend of this snapshot the right to
	// append into spare capacity instead of copying: of the flat append-only
	// tables (Obs, Triples, labels, PredOfItem), of the outer arrays of
	// ItemValues and the five inverted indexes, and of each index row. One
	// claimant per parent makes the lineage that appends in place a chain,
	// and no snapshot reads past its own lengths; later Extends copy (forkRows).
	// An adopted array is unshared before the build writes below the parent's
	// length: obsShared marks Obs, rowTable.shared the row tables.
	tailClaimed atomic.Bool
	obsShared   bool

	// ItemValues lists, per data item, the distinct candidate values observed
	// for it (sorted ascending for determinism).
	ItemValues [][]int

	// ByTriple groups observation indices by (W,D,V) candidate triple;
	// Triples lists the distinct candidate triples in deterministic order.
	Triples  []TripleRef
	ByTriple [][]int // parallel to Triples: indices into Obs

	// TriplesOfItem indexes, per data item, the candidate triples (indices
	// into Triples) that mention it.
	TriplesOfItem [][]int

	// TriplesOfSource indexes, per source, the candidate triples provided
	// candidates for it.
	TriplesOfSource [][]int

	// ObsOfExtractor indexes, per extractor, its observation indices.
	ObsOfExtractor [][]int

	// SourcesOfExtractor lists, per extractor, the distinct sources it
	// extracted at least one triple from (its "attempted" scope), ascending.
	SourcesOfExtractor [][]int
}

// TripleRef identifies one candidate triple (a (w,d,v) combination with at
// least one extraction).
type TripleRef struct {
	W, D, V int
}

// CompileOptions selects the granularity for Compile.
type CompileOptions struct {
	SourceKey    SourceKeyFunc
	ExtractorKey ExtractorKeyFunc

	// SourceLabels / ExtractorLabels, when non-nil, override the key
	// functions with a precomputed per-record label (parallel to
	// Dataset.Records). The granularity package produces these: split
	// assignments are random partitions, not pure functions of the record.
	// Snapshots compiled with label overrides cannot Extend.
	SourceLabels    []string
	ExtractorLabels []string
}

// Compile builds a Snapshot from the dataset at the requested granularity.
// Duplicate (e,w,d,v) cells are merged keeping the maximum confidence.
// Defaults: finest source and extractor granularity per §5.1.2.
//
// The four vocabularies (extractors, sources, items with their predicates,
// values) do not depend on one another, so each is interned by its own
// in-order pass over the records, all four at once: an id is the rank of its
// label's first appearance within its own vocabulary, which no other pass can
// move. The id columns then go through the append path Extend uses.
func (d *Dataset) Compile(opt CompileOptions) *Snapshot {
	if opt.SourceKey == nil {
		opt.SourceKey = SourceKeyFinest
	}
	if opt.ExtractorKey == nil {
		opt.ExtractorKey = ExtractorKeyFinest
	}
	recs := d.Records
	s := &Snapshot{
		Obs:           make([]Observation, 0, len(recs)),
		sourceIdx:     &internTable{},
		extractorIdx:  &internTable{},
		itemIdx:       &internTable{},
		valueIdx:      &internTable{},
		predIdx:       &internTable{},
		copt:          CompileOptions{SourceKey: opt.SourceKey, ExtractorKey: opt.ExtractorKey},
		labelCompiled: opt.SourceLabels != nil || opt.ExtractorLabels != nil,
	}

	// A positional label, where given, is the key; the key function is then
	// never called.
	extractorKey := func(ri int) string { return opt.ExtractorKey(recs[ri]) }
	if opt.ExtractorLabels != nil {
		extractorKey = func(ri int) string { return opt.ExtractorLabels[ri] }
	}
	sourceKey := func(ri int) string { return opt.SourceKey(recs[ri]) }
	if opt.SourceLabels != nil {
		sourceKey = func(ri int) string { return opt.SourceLabels[ri] }
	}
	var wg sync.WaitGroup
	column := func(intern func(ri int) int) []int {
		col := make([]int, len(recs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ri := range col {
				col[ri] = intern(ri)
			}
		}()
		return col
	}
	es := column(func(ri int) int { return s.internExtractor(extractorKey(ri)) })
	ws := column(func(ri int) int { return s.internSource(sourceKey(ri)) })
	ds := column(func(ri int) int { return s.internItem(&recs[ri]) })
	vs := column(func(ri int) int { return s.valueIdx.intern(&s.Values, recs[ri].Object) })
	wg.Wait()

	ap := newAppender(s, Delta{}, false, len(recs))
	for ri := range recs {
		ap.appendIDs(es[ri], ws[ri], ds[ri], vs[ri], recs[ri].Conf())
	}
	return s
}

// The intern methods resolve a record's unit to its dense id, on first sight
// growing the vocabulary and the row tables indexed by it. Each writes only
// the tables of its own vocabulary (values, which index no rows, are interned
// directly), which is what lets Compile run them side by side.

func (s *Snapshot) internExtractor(key string) int {
	e := s.extractorIdx.intern(&s.Extractors, key)
	if e == len(s.ObsOfExtractor) {
		s.ObsOfExtractor = append(s.ObsOfExtractor, nil)
		s.SourcesOfExtractor = append(s.SourcesOfExtractor, nil)
	}
	return e
}

func (s *Snapshot) internSource(key string) int {
	w := s.sourceIdx.intern(&s.Sources, key)
	if w == len(s.TriplesOfSource) {
		s.TriplesOfSource = append(s.TriplesOfSource, nil)
	}
	return w
}

func (s *Snapshot) internItem(r *Record) int {
	d := s.itemIdx.intern(&s.Items, r.ItemKey())
	if d == len(s.PredOfItem) {
		s.PredOfItem = append(s.PredOfItem, s.predIdx.intern(&s.Predicates, r.Predicate))
		s.TriplesOfItem = append(s.TriplesOfItem, nil)
		s.ItemValues = append(s.ItemValues, nil)
	}
	return d
}

// internTable interns labels into dense ids with copy-on-write layering:
// a child table records only the labels first seen after the fork and
// delegates older labels to its parent chain. Layers merge geometrically (see
// child), so a chain is O(log n) deep however long the Extend lineage.
type internTable struct {
	idx    map[string]int // nil until the layer's first label
	parent *internTable
}

// child forks a copy-on-write layer over t, which is read-only from here on
// (the parent snapshot keeps looking labels up in it). A top layer at least
// half the size of the one below is first folded into it — into a fresh map,
// t's holders keep theirs — and an empty one is skipped: layer sizes more than
// double down the chain, so it is O(log n) deep and re-inserts a label as often.
func (t *internTable) child() *internTable {
	for t.parent != nil && 2*len(t.idx) >= len(t.parent.idx) {
		under := t.parent
		idx := make(map[string]int, len(t.idx)+len(under.idx))
		maps.Copy(idx, under.idx)
		maps.Copy(idx, t.idx)
		t = &internTable{idx: idx, parent: under.parent}
	}
	if len(t.idx) == 0 && t.parent != nil {
		t = t.parent
	}
	return &internTable{parent: t}
}

func (t *internTable) lookup(key string) (int, bool) {
	for tt := t; tt != nil; tt = tt.parent {
		if i, ok := tt.idx[key]; ok {
			return i, true
		}
	}
	return 0, false
}

// intern returns the id of key, assigning the next dense id (and appending
// the label to list) on first sight.
func (t *internTable) intern(list *[]string, key string) int {
	if i, ok := t.lookup(key); ok {
		return i
	}
	i := len(*list)
	if t.idx == nil {
		t.idx = make(map[string]int)
	}
	t.idx[key] = i
	*list = append(*list, key)
	return i
}

// appender is the transient per-call state of the shared append-only build
// path used by both Compile (from an empty snapshot) and Extend (from a fork
// of the parent): both resolve their records to dense ids and hand the ids to
// appendIDs. It maintains every inverted index through the tables' write
// handles and seeds its lookup maps lazily per data item, so an Extend does
// work proportional to the new records plus the items they touch.
type appender struct {
	s *Snapshot

	tripleIdx map[TripleRef]int // (w,d,v) -> triple index, seeded per item
	obsIdx    map[[2]int]int    // (triple index, e) -> obs index
	seeded    map[int]bool      // parent items whose rows are loaded

	// Appending to a parent's row needs no copy of the row, an insert before
	// its end does: the owned maps name the rows copied.
	itemValues, byTriple, triplesOfItem, triplesOfSource rowTable
	obsOfExtractor, sourcesOfExtractor                   rowTable
	ownedValueRows, ownedExtractorSrcRows                map[int]bool
}

// rowTable is one build's write handle on a table of rows whose first n0 are
// the parent's (none under Compile); while shared, so is the outer array.
type rowTable struct {
	rows   *[][]int
	n0     int
	shared bool
}

// set replaces row i, first copying a shared outer array if i is a parent's
// row; a row the build appended to it is past every length the parent reads.
func (t *rowTable) set(i int, row []int) {
	if t.shared && i < t.n0 {
		*t.rows = slices.Clone(*t.rows)
		t.shared = false
	}
	(*t.rows)[i] = row
}

// add appends v to row i, in place given spare capacity: the claimant's by
// inheritance, and any other build starts from clipped rows (forkRows).
func (t *rowTable) add(i, v int) { t.set(i, append((*t.rows)[i], v)) }

// newAppender prepares a build of n records on top of s, a fork of a parent
// with base's table lengths whose outer row arrays it shares or not (Compile:
// no parent).
func newAppender(s *Snapshot, base Delta, shared bool, n int) *appender {
	table := func(rows *[][]int, n0 int) rowTable { return rowTable{rows: rows, n0: n0, shared: shared} }
	return &appender{
		s:                     s,
		tripleIdx:             make(map[TripleRef]int, n),
		obsIdx:                make(map[[2]int]int, n),
		seeded:                make(map[int]bool),
		itemValues:            table(&s.ItemValues, base.Items),
		byTriple:              table(&s.ByTriple, base.Triples),
		triplesOfItem:         table(&s.TriplesOfItem, base.Items),
		triplesOfSource:       table(&s.TriplesOfSource, base.Sources),
		obsOfExtractor:        table(&s.ObsOfExtractor, base.Extractors),
		sourcesOfExtractor:    table(&s.SourcesOfExtractor, base.Extractors),
		ownedValueRows:        make(map[int]bool),
		ownedExtractorSrcRows: make(map[int]bool),
	}
}

// seedItem loads the parent's candidate triples and observations for item d
// into the lookup maps, once per call. Rows added by this call are entered
// into the maps at creation, so seeding before the item's first addition
// captures exactly the parent state.
func (ap *appender) seedItem(d int) {
	if d >= ap.triplesOfItem.n0 || ap.seeded[d] {
		return
	}
	ap.seeded[d] = true
	s := ap.s
	for _, ti := range s.TriplesOfItem[d] {
		ap.tripleIdx[s.Triples[ti]] = ti
		for _, oi := range s.ByTriple[ti] {
			ap.obsIdx[[2]int{ti, s.Obs[oi].E}] = oi
		}
	}
}

// addValue inserts v at slot k of item d's sorted value row. A parent item's
// first new value of the call is the one place that knows its row grew: the
// delta records the item, and the row is copied (the insert shifts slots).
func (ap *appender) addValue(d, k, v int) {
	s := ap.s
	row := s.ItemValues[d]
	if d < ap.itemValues.n0 && !ap.ownedValueRows[d] {
		ap.ownedValueRows[d] = true
		s.delta.GrownItems = append(s.delta.GrownItems, d)
		row = slices.Clone(row)
	}
	ap.itemValues.set(d, slices.Insert(row, k, v))
}

// appendIDs appends one record, given as the dense ids of its units,
// updating every table and index to exactly the state a full Compile over the
// concatenated records would produce.
func (ap *appender) appendIDs(e, w, d, v int, conf float64) {
	s := ap.s
	ap.seedItem(d)
	tr := TripleRef{W: w, D: d, V: v}
	ti, known := ap.tripleIdx[tr]
	if !known {
		ti = len(s.Triples)
		ap.tripleIdx[tr] = ti
		s.Triples = append(s.Triples, tr)
		s.ByTriple = append(s.ByTriple, nil)
		ap.triplesOfItem.add(d, ti)
		ap.triplesOfSource.add(w, ti)
		vs := s.ItemValues[d]
		if k := sort.SearchInts(vs, v); k == len(vs) || vs[k] != v {
			ap.addValue(d, k, v)
		}
	}

	ok2 := [2]int{ti, e}
	if known { // a triple this record created holds no cell yet
		if oi, dup := ap.obsIdx[ok2]; dup {
			// Duplicate (e,w,d,v) cell: keep the maximum confidence. Raising a
			// parent observation is the one in-place mutation of the
			// append-only build: it forces an adopted Obs backing to be
			// unshared first (the parent must keep its own confidence), and
			// Extend records it for incremental consumers.
			if conf > s.Obs[oi].Conf {
				if s.obsShared && s.delta != nil && oi < s.delta.Obs {
					s.Obs = slices.Clone(s.Obs)
					s.obsShared = false
				}
				s.Obs[oi].Conf = conf
				if s.delta != nil && oi < s.delta.Obs {
					s.delta.RaisedObs = append(s.delta.RaisedObs, oi)
				}
			}
			return
		}
	}
	oi := len(s.Obs)
	ap.obsIdx[ok2] = oi
	s.Obs = append(s.Obs, Observation{E: e, W: w, D: d, V: v, Conf: conf})
	ap.byTriple.add(ti, oi)
	ap.obsOfExtractor.add(e, oi)
	srcs := s.SourcesOfExtractor[e]
	if k := sort.SearchInts(srcs, w); k == len(srcs) || srcs[k] != w {
		// At the end (a first-seen source has the highest id yet) an append
		// like any other; in the middle it shifts what the parent reads, so a
		// parent's row is copied first, once per call.
		if k < len(srcs) && e < ap.obsOfExtractor.n0 && !ap.ownedExtractorSrcRows[e] {
			ap.ownedExtractorSrcRows[e] = true
			srcs = slices.Clone(srcs)
		}
		ap.sourcesOfExtractor.set(e, slices.Insert(srcs, k, w))
	}
}

// Delta describes how a snapshot built by Extend differs from its parent:
// every table is append-only past the recorded parent length, with exactly two
// kinds of change below it — a duplicate (e,w,d,v) cell may raise the
// confidence of a parent observation in place (RaisedObs), and a new candidate
// value inserts into a parent item's sorted ItemValues row, shifting the slots
// after it (GrownItems). Consumers that carry per-index state across snapshots
// read these lists instead of comparing the two snapshots: everything they do
// not name is the parent's, index for index.
type Delta struct {
	// Obs, Triples, Items, Sources, Extractors, Values are the parent's
	// table lengths: indices below them are carried over unchanged (modulo
	// RaisedObs and GrownItems), indices at or above them are new in this
	// snapshot.
	Obs, Triples, Items, Sources, Extractors, Values int
	// RaisedObs lists observation indices below Obs whose Conf was raised by
	// a duplicate cell in the extension batch. May contain repeats when
	// several duplicates raise the same cell.
	RaisedObs []int
	// GrownItems lists the item ids below Items whose ItemValues row is longer
	// than the parent's, each once, in the order they first grew. The parent's
	// row is the child's minus the inserted values, in the same order.
	GrownItems []int
}

// ParentDelta returns the extension metadata recorded by Extend, or false
// for snapshots built by Compile (which have no parent).
func (s *Snapshot) ParentDelta() (Delta, bool) {
	if s.delta == nil {
		return Delta{}, false
	}
	return *s.delta, true
}

// SourceID returns the dense id of a source label, or -1 if absent.
func (s *Snapshot) SourceID(label string) int {
	if i, ok := s.sourceIdx.lookup(label); ok {
		return i
	}
	return -1
}

// ExtractorID returns the dense id of an extractor label, or -1 if absent.
func (s *Snapshot) ExtractorID(label string) int {
	if i, ok := s.extractorIdx.lookup(label); ok {
		return i
	}
	return -1
}

// ItemID returns the dense id of a data-item key, or -1 if absent.
func (s *Snapshot) ItemID(subject, predicate string) int {
	if i, ok := s.itemIdx.lookup(subject + "\x1f" + predicate); ok {
		return i
	}
	return -1
}

// ValueID returns the dense id of a value label, or -1 if absent.
func (s *Snapshot) ValueID(label string) int {
	if i, ok := s.valueIdx.lookup(label); ok {
		return i
	}
	return -1
}

// TripleIndex returns the candidate-triple index for (w,d,v), or -1.
func (s *Snapshot) TripleIndex(w, d, v int) int {
	for _, ti := range s.TriplesOfItem[d] {
		tr := s.Triples[ti]
		if tr.W == w && tr.V == v {
			return ti
		}
	}
	return -1
}

// Stats returns a short human-readable summary of the snapshot.
func (s *Snapshot) Stats() string {
	return fmt.Sprintf("%d observations, %d candidate triples, %d sources, %d extractors, %d items, %d values",
		len(s.Obs), len(s.Triples), len(s.Sources), len(s.Extractors), len(s.Items), len(s.Values))
}
