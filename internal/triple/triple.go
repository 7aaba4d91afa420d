package triple

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"kbt/internal/parallel"
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

// CheckConfidence refuses a confidence no record may carry: NaN, or outside
// [0,1] (0 means unspecified). The TSV reader applies it alone; the engine's
// ingest and the batch calls of package kbt apply it through CheckRecord.
func CheckConfidence(c float64) error {
	if math.IsNaN(c) || c < 0 || c > 1 {
		return fmt.Errorf("confidence %v out of [0,1]", c)
	}
	return nil
}

// CheckRecord refuses a record the model cannot take as input: one with an
// empty identity field, which would compile into a degenerate unit or value,
// or a confidence CheckConfidence refuses. The engine's ingest and the batch
// calls of package kbt both apply it.
func CheckRecord(r *Record) error {
	switch {
	case r.Extractor == "":
		return errors.New("empty Extractor")
	case r.Website == "":
		return errors.New("empty Website")
	case r.Subject == "":
		return errors.New("empty Subject")
	case r.Predicate == "":
		return errors.New("empty Predicate")
	case r.Object == "":
		return errors.New("empty Object")
	}
	return CheckConfidence(r.Confidence)
}

// Conf returns the effective confidence of the record in (0,1].
func (r Record) Conf() float64 { return effectiveConf(r.Confidence) }

// effectiveConf is Record.Conf of a confidence as given.
func effectiveConf(c float64) float64 {
	if c <= 0 || c > 1 {
		return 1
	}
	return c
}

// SplitItemKey splits a data item's key, its subject and predicate joined
// with "\x1f", into the two; a key without the separator is all subject.
func SplitItemKey(key string) (subject, predicate string) {
	subject, predicate, _ = strings.Cut(key, "\x1f")
	return subject, predicate
}

// TripleKey returns the full (subject, predicate, object) identity.
func (r Record) TripleKey() string {
	return r.Subject + "\x1f" + r.Predicate + "\x1f" + r.Object
}

// The paper's source feature vector is ⟨website, predicate, webpage⟩ ordered
// most-general-first (§4); the extractor vector is ⟨extractor, pattern,
// predicate, website⟩. The standard granularities are field groupings over
// them.
var (
	// SourceKeyWebsite groups records by website only (coarsest source).
	SourceKeyWebsite = Grouping{Fields: []Field{fieldWebsite}}
	// SourceKeyPage groups by webpage (each URL a source).
	SourceKeyPage = Grouping{Fields: []Field{fieldPage}}
	// SourceKeyFinest groups by ⟨website, predicate, webpage⟩, the finest
	// source granularity used in the paper's experiments (§5.1.2).
	SourceKeyFinest = Grouping{Fields: []Field{fieldWebsite, fieldPredicate, fieldPage}}
	// ExtractorKeyName groups by extractor system only (coarsest).
	ExtractorKeyName = Grouping{Fields: []Field{fieldExtractor}}
	// ExtractorKeyFinest groups by ⟨extractor, pattern, predicate, website⟩,
	// the finest extractor granularity used in the paper's experiments.
	ExtractorKeyFinest = Grouping{Fields: []Field{fieldExtractor, fieldPattern, fieldPredicate, fieldWebsite}}
	// ProvenanceKey groups by the single-layer "provenance" 4-tuple
	// (extractor, website, predicate, pattern) of §5.1.2.
	ProvenanceKey = Grouping{Fields: []Field{fieldExtractor, fieldWebsite, fieldPredicate, fieldPattern}}
)

// ProvenanceWebsite returns the website of a ProvenanceKey unit: its label's
// second part.
func ProvenanceWebsite(l Label) string { return l.Part(1) }

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
// the triple, keyed by ProvidedKey whatever granularity the dataset is later
// compiled at.
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

// Observation is one compiled cell of the observation matrix with dense ids,
// 24 bytes: the ids are int32, as every id a snapshot stores is (a build
// refuses more than math.MaxInt32 of any kind, checkIDs).
type Observation struct {
	E    int32   // extractor unit
	W    int32   // source unit
	D    int32   // data item
	V    int32   // value (dense per dataset, shared across items)
	Conf float64 // p(X_ewdv = 1), in (0,1]
}

// Snapshot is the compiled, id-dense view of a Dataset at a fixed
// source/extractor granularity. It is immutable after Compile (and after
// Extend, which builds a child snapshot without mutating its parent).
//
// A snapshot holds ids, not labels: it keeps a clip of the table it was built
// on, every row it compiled and no other, and reads every label from it
// (Source, Item, Value, ... in vocab.go). Every dense id it stores — in Obs,
// Triples, Items, PredOfItem and the four inverted indexes — is an int32, half
// the width of an int: a snapshot holds at most math.MaxInt32 observations,
// and every unit, item and triple comes from one. ItemValues alone keeps int
// rows, which its readers search with sort.SearchInts.
//
// Canonical order: observations, candidate triples and all dense ids follow
// the first appearance of their label/cell in record order. Because records
// only ever append, this makes compilation itself append-only — compiling a
// grown dataset yields a snapshot whose tables are strict prefixes-plus-
// appends of the old ones, and Extend reproduces Compile's output exactly
// (bit-identical indexes, hence bit-identical downstream inference).
type Snapshot struct {
	Obs []Observation

	// Items lists each data item's first row in the table: its subject and
	// predicate are that row's (Item).
	Items []int32

	// PredOfItem maps each data item to its predicate's id, its table id
	// (Predicate). The multi-layer model scopes extractor absence votes by
	// (source, predicate) cells.
	PredOfItem []int32

	// table is the clip of the records the snapshot compiled. The units are
	// the five kinds of id and their groupings: sources and extractors at the
	// build's granularity, which an Extend goes on applying to new rows, items
	// at (subject, predicate), values at object and predicates at predicate.
	// A snapshot built on Units cannot extend: units assign the records built,
	// and are no rule for new ones.
	table                                          *Table
	sources, extractors, items, values, predicates units

	// delta, set only on snapshots built by Extend, records the parent table
	// sizes, the in-place confidence raises and the grown value rows — all
	// that incremental consumers need to carry their own state append-only.
	delta *Delta

	// tailClaimed grants the first Extend of this snapshot the right to
	// append into spare capacity instead of copying: of the flat append-only
	// tables (Obs, Triples, Items, PredOfItem, the units' first rows, and the
	// table an Extend over records grows), of the outer arrays of ItemValues
	// and the four inverted indexes, and of each of their rows. One claimant
	// per parent makes the lineage that appends in place a chain, and no
	// snapshot reads past its own lengths; later Extends copy (forkRows).
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
	ByTriple [][]int32 // parallel to Triples: indices into Obs

	// TriplesOfItem indexes, per data item, the candidate triples (indices
	// into Triples) that mention it.
	TriplesOfItem [][]int32

	// TriplesOfSource indexes, per source, the candidate triples provided
	// candidates for it.
	TriplesOfSource [][]int32

	// ObsOfExtractor indexes, per extractor, its observation indices.
	ObsOfExtractor [][]int32
}

// TripleRef identifies one candidate triple (a (w,d,v) combination with at
// least one extraction), in 12 bytes.
type TripleRef struct {
	W, D, V int32
}

// CompileOptions selects the granularity for Dataset.Compile.
type CompileOptions struct {
	SourceKey    Grouping
	ExtractorKey Grouping

	// SourceLabels / ExtractorLabels, when non-nil, give each record's unit
	// label in place of the grouping (parallel to Dataset.Records), as Units.
	// Snapshots compiled with them cannot Extend.
	SourceLabels    []string
	ExtractorLabels []string
}

// Compile builds a Snapshot from the dataset's records: Table.Compile of a
// table of them, each grouping defaulting to the finest (§5.1.2), and
// positional labels, where given, turned into Units.
func (d *Dataset) Compile(opt CompileOptions) *Snapshot {
	t := TableOf(d.Records)
	grouping := func(labels []string, g, finest Grouping) Grouping {
		switch {
		case labels != nil:
			return Grouping{Units: unitsOf(len(labels), func(i int) string { return labels[i] })}
		case g.Fields == nil && g.Units == nil:
			return finest
		}
		return g
	}
	return t.Compile(grouping(opt.SourceLabels, opt.SourceKey, SourceKeyFinest),
		grouping(opt.ExtractorLabels, opt.ExtractorKey, ExtractorKeyFinest))
}

// appender is the transient per-call state of the one build path Compile
// (from an empty snapshot) and Extend (from a fork of the parent) share: both
// resolve their records to dense id columns and hand them to appendCells,
// Extend preceded by the parent's cells of the items its records touch. It
// holds a write handle per index table, so an Extend does work proportional
// to the new records plus the cells of the items they touch.
type appender struct {
	s *Snapshot

	itemValues                                               rowTable[int]
	byTriple, triplesOfItem, triplesOfSource, obsOfExtractor rowTable[int32]

	// compile marks a Compile, the one build whose fills may run side by
	// side (appendCells).
	compile bool
}

// denseID is the element of an index row: int32 in every table but
// ItemValues.
type denseID interface{ ~int | ~int32 }

// rowTable is one build's write handle on a table of rows whose first n0 are
// the parent's (none under Compile); while shared, so is the outer array.
type rowTable[T denseID] struct {
	rows   *[][]T
	n0     int
	shared bool
}

// set replaces row i, first copying a shared outer array if i is a parent's
// row; a row the build appended to it is past every length the parent reads.
func (t *rowTable[T]) set(i int, row []T) {
	if t.shared && i < t.n0 {
		*t.rows = slices.Clone(*t.rows)
		t.shared = false
	}
	(*t.rows)[i] = row
}

// newAppender prepares a build on top of s, a fork of a parent with base's
// table lengths whose outer row arrays it shares or not (Compile: no parent).
func newAppender(s *Snapshot, base Delta, shared bool) *appender {
	table := func(rows *[][]int32, n0 int) rowTable[int32] {
		return rowTable[int32]{rows: rows, n0: n0, shared: shared}
	}
	return &appender{
		s:               s,
		itemValues:      rowTable[int]{rows: &s.ItemValues, n0: base.Items, shared: shared},
		byTriple:        table(&s.ByTriple, base.Triples),
		triplesOfItem:   table(&s.TriplesOfItem, base.Items),
		triplesOfSource: table(&s.TriplesOfSource, base.Sources),
		obsOfExtractor:  table(&s.ObsOfExtractor, base.Extractors),
	}
}

// groupLeads finds which cells of a build share a candidate triple and which
// share an observation, without a lookup table: one stable LSD radix sort of
// the cell ranks by their (d,w,v,e) ids brings each group together with its
// ranks ascending. For every cell ranked at or after first it writes to tri
// the lowest rank of its (d,w,v) group, and to obs that of its (d,w,v,e) group.
//
// Digits are bytes, and a column takes only the passes its largest id needs,
// so the cost is O(cells × passes) whatever the size of the corpus. The sort
// moves 4-byte ranks (bounds-checked; appendCells has checked that the cells
// fit int32) and reads each digit through its column.
func groupLeads(e, w, d, v []int32, first int, tri, obs []int32) {
	buf, tmp := make([]uint32, len(e)), make([]uint32, len(e))
	for i := range buf {
		buf[i] = uint32(i)
	}
	for _, col := range [...][]int32{e, v, w, d} { // least significant first
		hi := int32(0)
		for _, x := range col {
			hi = max(hi, x)
		}
		for shift := 0; shift < bits.Len32(uint32(hi)); shift += 8 {
			var count [256]int
			for _, r := range buf {
				count[col[r]>>shift&0xff]++
			}
			sum := 0
			for b, n := range count {
				count[b], sum = sum, sum+n
			}
			for _, r := range buf {
				b := col[r] >> shift & 0xff
				tmp[count[b]] = r
				count[b]++
			}
			buf, tmp = tmp, buf
		}
	}
	// A triple group is one run of the sorted cells, its cell groups runs
	// within it; a cell group's first rank is its lowest, a triple group's
	// lowest is the least of those.
	for i := 0; i < len(buf); {
		r0 := int32(buf[i])
		lead, j := r0, i+1
		for ; j < len(buf); j++ {
			r := int32(buf[j])
			if d[r] != d[r0] || w[r] != w[r0] || v[r] != v[r0] {
				break
			}
			lead = min(lead, r)
		}
		cellLead := r0
		for k := i; k < j; k++ {
			r := int32(buf[k])
			if e[r] != e[cellLead] {
				cellLead = r
			}
			if int(r) >= first {
				tri[r], obs[r] = lead, cellLead
			}
		}
		i = j
	}
}

// appendCells appends a build's records, updating every table and index to
// exactly the state a full Compile over the concatenated records would
// produce. conf holds each record's confidence as given (0: unspecified); the
// id columns es, ws, ds, vs hold one cell per record, preceded by
// the parent's cells whose triple and observation indexes tri and obs hold; a
// cell that shares its triple or observation with a lower-ranked one reuses it
// (groupLeads), so a record already in the parent keeps the parent's indexes.
//
// One pass in record order gives each new triple and observation the next id,
// appends it to Triples or Obs and raises a duplicate's confidence, as a
// record-at-a-time build would. Every id is below the cell count or len(Obs),
// each label and triple coming from an observation, so checking those two
// against int32 (checkIDs) is what makes every id of the snapshot fit. The five index tables are then filled from the
// new triples and observations, side by side for a large Compile, each by its
// own fill, which writes its own tables alone: it sorts its entries by row
// (sortEntries) and gives each row its run in one write.
func (ap *appender) appendCells(conf []float64, es, ws, ds, vs, tri, obs []int32) {
	s := ap.s
	checkIDs(len(es))
	checkIDs(len(s.Obs) + len(conf))
	first := len(tri)
	tri, obs = append(tri, make([]int32, len(conf))...), append(obs, make([]int32, len(conf))...)
	groupLeads(es, ws, ds, vs, first, tri, obs)
	nTri := 0
	for r := first; r < len(es); r++ {
		if int(tri[r]) == r {
			nTri++
		}
	}
	s.Triples, s.ByTriple = room(s.Triples, nTri), room(s.ByTriple, nTri)
	t0, o0 := len(s.Triples), len(s.Obs)
	for r := first; r < len(es); r++ {
		e, w, d, v, conf := es[r], ws[r], ds[r], vs[r], effectiveConf(conf[r-first])
		if lead := tri[r]; int(lead) != r {
			tri[r] = tri[lead]
		} else {
			tri[r] = int32(len(s.Triples))
			s.Triples = append(s.Triples, TripleRef{W: w, D: d, V: v})
			s.ByTriple = append(s.ByTriple, nil)
		}

		if lead := obs[r]; int(lead) != r {
			// Duplicate (e,w,d,v) cell: keep the maximum confidence. Raising a
			// parent observation is the one in-place mutation of the
			// append-only build: it forces an adopted Obs backing to be
			// unshared first (the parent must keep its own confidence), and
			// Extend records it for incremental consumers.
			oi := obs[lead]
			obs[r] = oi
			if conf > s.Obs[oi].Conf {
				parent := s.delta != nil && int(oi) < s.delta.Obs
				if s.obsShared && parent {
					s.Obs = slices.Clone(s.Obs)
					s.obsShared = false
				}
				s.Obs[oi].Conf = conf
				if parent {
					s.delta.RaisedObs = append(s.delta.RaisedObs, int(oi))
				}
			}
			continue
		}
		obs[r] = int32(len(s.Obs))
		s.Obs = append(s.Obs, Observation{E: e, W: w, D: d, V: v, Conf: conf})
	}

	// Each fill lists its entries, sorts them by row and writes its tables; the
	// two tables of items share the fill.
	newTri, newObs := s.Triples[t0:], s.Obs[o0:]
	fills := [...]func(){
		func() {
			withEntries(len(newObs), func(byExtractor []entry) {
				for k, o := range newObs {
					byExtractor[k] = newEntry(o.E, o0+k)
				}
			}, ap.obsOfExtractor.appendRuns)
		},
		func() {
			withEntries(len(newObs), func(byTriple []entry) {
				k := 0
				for r := first; r < len(tri); r++ {
					if int(obs[r]) == o0+k { // the cell that added observation o0+k
						byTriple[k] = newEntry(tri[r], o0+k)
						k++
					}
				}
			}, ap.byTriple.appendRuns)
		},
		func() {
			withEntries(len(newTri), func(byItem []entry) {
				for k, tr := range newTri {
					byItem[k] = newEntry(tr.D, t0+k)
				}
			}, func(byItem []entry) {
				ap.triplesOfItem.appendRuns(byItem)
				var grown [][2]int // a parent item that gained a value, after the triple that first gave it one
				ap.itemValues.mergeRuns(byItem, func(ti int) int { return int(s.Triples[ti].V) }, func(d, ti int) {
					grown = append(grown, [2]int{ti, d})
				})
				slices.SortFunc(grown, func(a, b [2]int) int { return a[0] - b[0] })
				for _, g := range grown {
					s.delta.GrownItems = append(s.delta.GrownItems, g[1])
				}
			})
		},
		func() {
			withEntries(len(newTri), func(bySource []entry) {
				for k, tr := range newTri {
					bySource[k] = newEntry(tr.W, t0+k)
				}
			}, ap.triplesOfSource.appendRuns)
		},
	}
	// A Compile that adds largeFill observations or more fills side by side:
	// below that, waking a second core costs about what the fills do. An
	// Extend fills on this goroutine at any size: fills side by side allocate
	// their rows in whatever order the scheduler runs them, and an Extend's
	// rows are the ones a serving lineage goes on reading, so this way every
	// run of the same stream lays them out alike.
	workers := 0
	if !ap.compile || len(newObs) < largeFill {
		workers = 1
	}
	parallel.ForEach(len(fills), workers, func(i int) { fills[i]() })
}

// largeFill is the fewest entries that make a fill large: the fills of a
// Compile that adds that many observations run side by side, and a large
// fill's buffers are not recycled (entryBufs).
const largeFill = 1024

// entry is one id a build adds to a row of an index table.
type entry struct{ row, val uint32 }

func newEntry(row int32, val int) entry { return entry{uint32(row), uint32(val)} }

// entryBufs recycles the fills' entry lists and sort buffers between the
// builds of serving batches, so that a stream of Extends reuses the same few.
// A large build's are not kept: the pool would hold them through two
// collections, and a serving process's heap goal with them.
var entryBufs = sync.Pool{New: func() any { return new([2][]entry) }}

// withEntries has list write a fill's n entries, sorts them by row and hands
// them to use, on buffers from entryBufs that use must not keep.
func withEntries(n int, list, use func(es []entry)) {
	b := entryBufs.Get().(*[2][]entry)
	if cap(b[0]) < n {
		b[0], b[1] = make([]entry, n), make([]entry, n)
	}
	es := b[0][:n]
	list(es)
	use(sortEntries(es, b[1][:n]))
	if n < largeFill {
		entryBufs.Put(b)
	}
}

// sortEntries sorts a fill's entries stably by row, by an LSD radix sort on
// byte digits as groupLeads sorts cells: O(entries × passes), the passes those
// of the largest row id less any digit every entry shares, and no array sized
// by the table. It returns the sorted entries, in es or in tmp (of es's
// length), leaving es as it is if it is in row order already.
func sortEntries(es, tmp []entry) []entry {
	var hi uint32
	sorted := true
	for i, x := range es {
		hi = max(hi, x.row)
		sorted = sorted && (i == 0 || x.row >= es[i-1].row)
	}
	if sorted {
		return es
	}
	for shift := 0; shift < bits.Len32(hi); shift += 8 {
		var count [256]int
		for _, x := range es {
			count[x.row>>shift&0xff]++
		}
		if count[es[0].row>>shift&0xff] == len(es) {
			continue
		}
		sum := 0
		for b, n := range count {
			count[b], sum = sum, sum+n
		}
		for _, x := range es {
			b := x.row >> shift & 0xff
			tmp[count[b]] = x
			count[b]++
		}
		es, tmp = tmp, es
	}
	return es
}

// forRuns calls fn once per row of the sorted entries, ascending, with the
// row's entries in their order.
func forRuns(sorted []entry, fn func(row int, run []entry)) {
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].row == sorted[i].row {
			j++
		}
		fn(int(sorted[i].row), sorted[i:j])
		i = j
	}
}

// room returns row with room for n more elements. An empty one (a new row, or
// a table under Compile) is allocated once, with a quarter of n spare, as
// append leaves a large slice it grows: what later batches grow (an
// extractor's row, a hub's, Triples) takes their first appends in place. A
// parent's is grown by append, in place given spare capacity (only the
// claimant inherits any).
func room[T any](row []T, n int) []T {
	if len(row) == 0 {
		return make([]T, 0, n+n/4)
	}
	return slices.Grow(row, n)
}

// appendRuns appends each row's run of the sorted entries to it, in one write.
func (t *rowTable[T]) appendRuns(sorted []entry) {
	forRuns(sorted, func(i int, run []entry) {
		row := room((*t.rows)[i], len(run))
		for _, x := range run {
			row = append(row, T(x.val))
		}
		t.set(i, row)
	})
}

// mergeRuns adds to each row of a table of ascending, distinct ids the ids
// id(val) of its run of the sorted entries that it lacks. Ids that all sort
// after the row's end are appended as appendRuns does; any other merge makes a
// new row, so a parent's row never shifts under its readers. grew is told of
// each parent row that gains an id, with the val of the first that does.
func (t *rowTable[T]) mergeRuns(sorted []entry, id func(val int) T, grew func(row, val int)) {
	var ids []T
	forRuns(sorted, func(i int, run []entry) {
		row := (*t.rows)[i]
		ids = ids[:0]
		first := -1
		for _, x := range run {
			v := id(int(x.val))
			if _, found := slices.BinarySearch(row, v); !found {
				if first < 0 {
					first = int(x.val)
				}
				ids = append(ids, v)
			}
		}
		if first < 0 {
			return
		}
		if i < t.n0 {
			grew(i, first)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		if len(row) == 0 || ids[0] > row[len(row)-1] {
			t.set(i, append(room(row, len(ids)), ids...))
			return
		}
		merged := make([]T, 0, len(row)+len(ids))
		for _, v := range ids {
			k, _ := slices.BinarySearch(row, v)
			merged = append(append(merged, row[:k]...), v)
			row = row[k:]
		}
		t.set(i, append(merged, row...))
	})
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

// TripleIndex returns the candidate-triple index for (w,d,v), or -1.
func (s *Snapshot) TripleIndex(w, d, v int) int {
	for _, ti := range s.TriplesOfItem[d] {
		tr := s.Triples[ti]
		if int(tr.W) == w && int(tr.V) == v {
			return int(ti)
		}
	}
	return -1
}

// Stats returns a short human-readable summary of the snapshot.
func (s *Snapshot) Stats() string {
	return fmt.Sprintf("%d observations, %d candidate triples, %d sources, %d extractors, %d items, %d values",
		len(s.Obs), len(s.Triples), s.NumSources(), s.NumExtractors(), len(s.Items), s.NumValues())
}
