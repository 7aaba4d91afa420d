package triple

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Field is one of the seven label fields of a Record, a column of a Table.
type Field uint8

const (
	fieldExtractor Field = iota
	fieldPattern
	fieldWebsite
	fieldPage
	fieldSubject
	fieldPredicate
	fieldObject
	numFields
)

// of returns the field's label in r.
func (f Field) of(r *Record) string {
	switch f {
	case fieldExtractor:
		return r.Extractor
	case fieldPattern:
		return r.Pattern
	case fieldWebsite:
		return r.Website
	case fieldPage:
		return r.Page
	case fieldSubject:
		return r.Subject
	case fieldPredicate:
		return r.Predicate
	case fieldObject:
		return r.Object
	}
	panic(fmt.Sprintf("triple: field %d", f))
}

// Table is a batch of extraction records held as columns: per field, the dense
// id of every record's label, and the labels by id, numbered in order of first
// appearance; and every record's confidence as given (0: unspecified). A label
// is stored once however many records carry it, and a table holds no record
// and no input text: a label is a copy taken on first sight, so nothing a
// table holds keeps its input alive. ReadTable fills one from TSV, Add one
// record at a time; Compile builds a snapshot from it without forming a record
// or a per-record label.
type Table struct {
	ids   [numFields][]int32
	vocab [numFields][]string
	// index maps each field's labels to their ids for Add; ReadTable leaves it
	// nil, and the first Add builds it from vocab.
	index [numFields]map[string]int32
	conf  []float64

	// refusedLine is the input line of record refused, the first record that
	// ReadTable saw with an empty identity field; 0 when there is none.
	refused, refusedLine int
}

// TableOf returns a table of the records, added in order.
func TableOf(records []Record) *Table {
	t := &Table{}
	for _, r := range records {
		t.Add(r)
	}
	return t
}

// Len returns the number of records.
func (t *Table) Len() int { return len(t.conf) }

// Add appends one record. A field whose label is the previous record's takes
// its id without a lookup.
func (t *Table) Add(r Record) {
	n := t.Len()
	checkIDs(n + 1)
	for f := range numFields {
		label := f.of(&r)
		if n > 0 {
			if id := t.ids[f][n-1]; t.vocab[f][id] == label {
				t.ids[f] = append(t.ids[f], id)
				continue
			}
		}
		t.ids[f] = append(t.ids[f], t.intern(f, label))
	}
	t.conf = append(t.conf, r.Confidence)
}

// intern returns the id of a label of field f, numbering a copy of it on
// first sight.
func (t *Table) intern(f Field, label string) int32 {
	idx := t.index[f]
	if idx == nil {
		idx = make(map[string]int32, len(t.vocab[f]))
		for id, l := range t.vocab[f] {
			idx[l] = int32(id)
		}
		t.index[f] = idx
	}
	id, ok := idx[label]
	if !ok {
		id = nextID(len(t.vocab[f]))
		label = strings.Clone(label)
		idx[label] = id
		t.vocab[f] = append(t.vocab[f], label)
	}
	return id
}

// checkIDs panics unless n things of one kind fit the int32 ids that a table
// and a snapshot store: records and labels, where a table or unitsOf numbers
// them, and cells and observations, where a build does (appendCells). It is the
// one width check; everything else a snapshot numbers comes from one of these.
func checkIDs(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("triple: %d ids of one kind, past the int32 limit of %d", n, math.MaxInt32))
	}
}

// nextID is the id a vocabulary of n labels gives its next one.
func nextID(n int) int32 {
	checkIDs(n + 1)
	return int32(n)
}

// Column returns the id of field f's label in every record; Labels(f)[id] is
// the label. Both are the table's own: callers must not modify them.
func (t *Table) Column(f Field) []int32 { return t.ids[f] }

// Labels returns field f's labels, indexed by id in order of first appearance.
func (t *Table) Labels(f Field) []string { return t.vocab[f] }

// Clip returns the table's records so far as a table that shares t's arrays,
// each clipped to its length: later Adds to either table append into arrays of
// their own, and never change the other's records.
func (t *Table) Clip() *Table {
	c := &Table{conf: slices.Clip(t.conf), refused: t.refused, refusedLine: t.refusedLine}
	for f := range numFields {
		c.ids[f], c.vocab[f] = slices.Clip(t.ids[f]), slices.Clip(t.vocab[f])
	}
	return c
}

// label returns field f's label in record i.
func (t *Table) label(f Field, i int) string { return t.vocab[f][t.ids[f][i]] }

// Record returns record i, its labels the table's.
func (t *Table) Record(i int) Record {
	label := func(f Field) string { return t.label(f, i) }
	return Record{
		Extractor: label(fieldExtractor), Pattern: label(fieldPattern),
		Website: label(fieldWebsite), Page: label(fieldPage),
		Subject: label(fieldSubject), Predicate: label(fieldPredicate), Object: label(fieldObject),
		Confidence: t.conf[i],
	}
}

// Records returns every record of the table, in order.
func (t *Table) Records() []Record {
	out := make([]Record, t.Len())
	for i := range out {
		out[i] = t.Record(i)
	}
	return out
}

// identityFields are the fields CheckRecord refuses empty.
var identityFields = [...]Field{fieldExtractor, fieldWebsite, fieldSubject, fieldPredicate, fieldObject}

// Check finds the first record CheckRecord refuses and returns its index, its
// line of the input when ReadTable read it (0 otherwise), and why. It returns
// a nil error when every record passes.
func (t *Table) Check() (i, line int, err error) {
	empty := [numFields]int32{}
	for _, f := range identityFields {
		empty[f] = -1
		for id, l := range t.vocab[f] {
			if l == "" {
				empty[f] = int32(id)
				break
			}
		}
	}
	for i := range t.Len() {
		bad := CheckConfidence(t.conf[i]) != nil
		for _, f := range identityFields {
			bad = bad || t.ids[f][i] == empty[f]
		}
		if !bad {
			continue
		}
		r := t.Record(i)
		if t.refusedLine > 0 && i == t.refused {
			line = t.refusedLine
		}
		return i, line, CheckRecord(&r)
	}
	return 0, 0, nil
}

// Units assigns each record of a table to a unit: Of[i] is record i's unit,
// Labels[u] unit u's label. Units whose labels coincide compile to one.
type Units struct {
	Of     []int32
	Labels []string

	// distinct marks units whose labels are distinct and numbered in order of
	// first appearance, which a build takes as its ids; index, when set, is
	// their label index, the build's to keep.
	distinct bool
	index    map[string]int32
}

// unitsOf numbers the distinct labels of n records in order of first
// appearance: record i's label is label(i). There are at most n, so n is
// what checkIDs checks.
func unitsOf(n int, label func(i int) string) *Units {
	checkIDs(n)
	u := &Units{Of: make([]int32, n), distinct: true, index: make(map[string]int32)}
	for i := range u.Of {
		l := label(i)
		id, ok := u.index[l]
		if !ok {
			id = int32(len(u.Labels))
			u.index[l] = id
			u.Labels = append(u.Labels, l)
		}
		u.Of[i] = id
	}
	return u
}

// Grouping is a granularity: how a build forms the source or the extractor
// units. A record's unit is named by the labels of its Fields joined with
// "\x1f", so units are a pure function of the record and a snapshot built on
// field groupings extends (SourceKeyWebsite, ProvenanceKey, ...). Units, where
// given, assign the records of one table instead (split-and-merge does).
type Grouping struct {
	Fields []Field
	Units  *Units
}

// Label returns the label g gives r: its fields' labels joined with "\x1f".
// A Units grouping has no fields and labels every record "".
func (g Grouping) Label(r Record) string {
	return g.join(func(f Field) string { return f.of(&r) })
}

// row returns the label g gives record i of t, as Label would.
func (g Grouping) row(t *Table, i int) string {
	return g.join(func(f Field) string { return t.label(f, i) })
}

// join joins the labels of g's fields, label(f) each, with "\x1f": a single
// field's label is returned as it is, and a tuple's is built in one
// allocation.
func (g Grouping) join(label func(Field) string) string {
	switch len(g.Fields) {
	case 0:
		return ""
	case 1:
		return label(g.Fields[0])
	}
	n := len(g.Fields) - 1
	for _, f := range g.Fields {
		n += len(label(f))
	}
	var b strings.Builder
	b.Grow(n)
	for k, f := range g.Fields {
		if k > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(label(f))
	}
	return b.String()
}

// itemKey and valueKey are the groupings of a build's data items, the
// (subject, predicate) pairs, and of its values, the objects.
var (
	itemKey  = Grouping{Fields: []Field{fieldSubject, fieldPredicate}}
	valueKey = Grouping{Fields: []Field{fieldObject}}
)

// Compile builds the snapshot of the table's records at the given source and
// extractor granularity. Duplicate (e,w,d,v) cells are merged keeping the
// maximum confidence. Units are formed on field-id tuples, a tuple's label
// built once (Table.group). A snapshot built on two field groupings extends
// (ExtendTable); one built on Units does not.
//
// The four vocabularies do not depend on one another, so each is resolved on
// its own goroutine, in record order (Units.resolve), which gives the
// snapshot's dense ids in order of first appearance, and no other pass can
// move them. The id columns then go through the build Extend uses
// (appender.appendCells): one radix sort groups the cells, one pass in record
// order gives the triples and observations their ids, and the five index
// tables are filled side by side from sorted runs, so that each row is
// allocated once, at its final length plus a quarter.
func (t *Table) Compile(sources, extractors Grouping) *Snapshot {
	s := &Snapshot{
		Obs:          make([]Observation, 0, t.Len()),
		sourceIdx:    &internTable{},
		extractorIdx: &internTable{},
		itemIdx:      &internTable{},
		valueIdx:     &internTable{},
		predIdx:      &internTable{},
	}
	if sources.Units == nil && extractors.Units == nil {
		s.sourceKey, s.extractorKey = sources, extractors
	}
	var es, ws, ds, vs []int32
	var wg sync.WaitGroup
	for _, resolve := range []func(){
		func() {
			es = t.group(extractors).resolve(&s.Extractors, s.extractorIdx, nil)
			s.ObsOfExtractor = rows[int32](len(s.Extractors))
		},
		func() {
			ws = t.group(sources).resolve(&s.Sources, s.sourceIdx, nil)
			s.TriplesOfSource = rows[int32](len(s.Sources))
		},
		func() {
			ds = t.group(itemKey).resolve(&s.Items, s.itemIdx, func(i int) {
				s.PredOfItem = append(s.PredOfItem, s.predIdx.intern(&s.Predicates, t.label(fieldPredicate, i)))
			})
			s.TriplesOfItem, s.ItemValues = rows[int32](len(s.Items)), rows[int](len(s.Items))
		},
		func() { vs = t.group(valueKey).resolve(&s.Values, s.valueIdx, nil) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resolve()
		}()
	}
	wg.Wait()

	ap := newAppender(s, Delta{}, false)
	ap.compile = true
	ap.appendCells(t.conf, es, ws, ds, vs, nil, nil)
	return s
}

// group returns the units of a grouping. A field's own ids are distinct
// units; a tuple's label is built once, at its first record.
func (t *Table) group(g Grouping) *Units {
	if g.Units != nil {
		return g.Units
	}
	if len(g.Fields) == 1 {
		f := g.Fields[0]
		return &Units{Of: t.ids[f], Labels: t.vocab[f], distinct: true}
	}
	cols := make([][]int32, len(g.Fields))
	for k, f := range g.Fields {
		cols[k] = t.ids[f]
	}
	of, first := Tuples(cols)
	labels := make([]string, len(first))
	for u, i := range first {
		labels[u] = g.row(t, int(i))
	}
	return &Units{Of: of, Labels: labels}
}

// Tuples numbers the distinct tuples of the columns' ids in order of first
// appearance, given columns whose ids are numbered so (as a Table's are): of[i]
// is record i's tuple and first[k] the first record of tuple k. A single column
// is its own numbering; each further one is folded in by one pass that looks
// the pair (tuple so far, id) up in an array when the pairs are few enough to
// index it, and in a map otherwise.
func Tuples(cols [][]int32) (of, first []int32) {
	of = cols[0]
	n := idRange(of)
	for _, col := range cols[1:] {
		of, n = fold(of, n, col, idRange(col))
	}
	first = make([]int32, n)
	seen := 0
	for i, id := range of {
		if int(id) == seen {
			first[id] = int32(i)
			seen++
		}
	}
	return of, first
}

// idRange is one more than the largest id of a column.
func idRange(col []int32) int {
	n := int32(-1)
	for _, id := range col {
		n = max(n, id)
	}
	return int(n) + 1
}

// fold numbers the distinct pairs (a[i], b[i]) in order of first appearance,
// of na × nb possible.
func fold(a []int32, na int, b []int32, nb int) (of []int32, n int) {
	of = make([]int32, len(a))
	if nb == 0 || na <= max(4*len(a), 1<<16)/nb {
		ids := make([]int32, na*nb) // a pair's id plus one
		for i, x := range a {
			k := int(x)*nb + int(b[i])
			if ids[k] == 0 {
				n++
				ids[k] = int32(n)
			}
			of[i] = ids[k] - 1
		}
		return of, n
	}
	ids := make(map[uint64]int32)
	for i, x := range a {
		k := uint64(uint32(x))<<32 | uint64(uint32(b[i]))
		id, ok := ids[k]
		if !ok {
			id = nextID(len(ids))
			ids[k] = id
		}
		of[i] = id
	}
	return of, len(ids)
}

// rows returns a table of n empty rows, with room for a quarter more.
func rows[T denseID](n int) [][]T { return room[[]T](nil, n)[:n] }

// resolve gives every record the snapshot id of its unit, filling list with
// the labels by id and idx with their index, and calling added, if set, with
// the first record of each id in turn. Distinct units are the ids, and their
// column is returned as it is, for the build to read; any other unit's label
// is interned at the unit's first record, so that units whose labels coincide
// share an id.
func (u *Units) resolve(list *[]string, idx *internTable, added func(i int)) []int32 {
	if !u.distinct {
		ids := make([]int32, len(u.Of))
		snap := make([]int32, len(u.Labels))
		for k := range snap {
			snap[k] = -1
		}
		for i, k := range u.Of {
			if snap[k] < 0 {
				n := len(*list)
				snap[k] = idx.intern(list, u.Labels[k])
				if added != nil && len(*list) > n {
					added(i)
				}
			}
			ids[i] = snap[k]
		}
		return ids
	}
	if added != nil {
		next := int32(0)
		for i, k := range u.Of {
			if k == next {
				added(i)
				next++
			}
		}
	}
	*list, idx.idx = u.Labels, u.index
	if idx.idx == nil {
		// A table's vocabulary: an Extend's appends must not reach it.
		*list = slices.Clip(u.Labels)
		idx.idx = make(map[string]int32, len(u.Labels))
		for k, label := range u.Labels {
			idx.idx[label] = int32(k)
		}
	}
	return u.Of
}
