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
	// index maps each field's labels to their ids, the one label index of the
	// table and of every snapshot built on it: a chain of layers that a clip
	// shares, frozen, and the table's later labels go past (intern). lazy,
	// set on a table ReadTable read and on its clips, builds a table's index
	// from its labels on first use (labelIndex): a batch job that looks no
	// label up never holds one.
	index [numFields]*layered[string]
	lazy  *sync.Once
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
// first sight. A label new to a table whose top index layer a clip shares goes
// into a layer of the table's own.
func (t *Table) intern(f Field, label string) int32 {
	idx := t.labelIndex(f)
	t.lazy = nil
	if id, ok := idx.lookup(label); ok {
		return id
	}
	if idx == nil || idx.frozen.Load() {
		idx = idx.child()
		t.index[f] = idx
	}
	id := nextID(len(t.vocab[f]))
	label = strings.Clone(label)
	idx.put(label, id)
	t.vocab[f] = append(t.vocab[f], label)
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
// each clipped to its length, and its label index: later Adds to either table
// append into arrays and index layers of their own, and never change the
// other's records or labels. A clip is what a snapshot keeps of the table it
// is built on: a reader of the snapshot looks a label up beside later Adds to
// the table without a lock.
func (t *Table) Clip() *Table {
	c := t.grow(false)
	c.freeze()
	return c
}

// grow returns a table of t's records that later Adds append to: into t's
// spare capacity if inPlace, which only the one owner of t's tail may ask,
// and into arrays of its own otherwise. Its labels go into layers over t's
// index, which must be frozen; a table without an index yet builds its own.
func (t *Table) grow(inPlace bool) *Table {
	c := &Table{ids: t.ids, vocab: t.vocab, conf: t.conf, refused: t.refused, refusedLine: t.refusedLine}
	if t.lazy != nil {
		c.lazy = new(sync.Once)
	} else {
		c.index = t.index
	}
	if !inPlace {
		c.conf = slices.Clip(c.conf)
		for f := range numFields {
			c.ids[f], c.vocab[f] = slices.Clip(c.ids[f]), slices.Clip(c.vocab[f])
		}
	}
	return c
}

// freeze marks the table's index layers shared: its next new label of a
// field goes into a layer of its own.
func (t *Table) freeze() {
	for _, idx := range t.index {
		if idx != nil {
			idx.frozen.Store(true)
		}
	}
}

// labelIndex returns field f's label index, first building the table's if it
// has none yet.
func (t *Table) labelIndex(f Field) *layered[string] {
	if t.lazy != nil {
		t.lazy.Do(func() {
			for f, labels := range t.vocab {
				idx := make(map[string]int32, len(labels))
				for id, l := range labels {
					idx[l] = int32(id)
				}
				t.index[f] = &layered[string]{idx: idx}
			}
		})
	}
	return t.index[f]
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
// maximum confidence. The snapshot keeps a clip of the table (Clip), which
// holds every label it names: a unit of one field is the field's table id, a
// unit of a tuple of fields is numbered on the tuples of their ids, a label
// built only where a field holds a "\x1f" (units.compile). A snapshot built
// on two field groupings extends (ExtendTable); one built on Units does not.
//
// The three tuple vocabularies do not depend on one another, so each is
// resolved on its own goroutine, in record order, which gives the snapshot's
// dense ids in order of first appearance, and no other pass can move them.
// The id columns then go through the build Extend uses
// (appender.appendCells): one radix sort groups the cells, one pass in record
// order gives the triples and observations their ids, and the five index
// tables are filled side by side from sorted runs, so that each row is
// allocated once, at its final length plus a quarter.
func (t *Table) Compile(sources, extractors Grouping) *Snapshot {
	s := &Snapshot{
		Obs:   make([]Observation, 0, t.Len()),
		table: t.Clip(),
	}
	t = s.table
	var es, ws, ds []int32
	var wg sync.WaitGroup
	for _, resolve := range []func(){
		func() { es = s.extractors.compile(t, extractors) },
		func() { ws = s.sources.compile(t, sources) },
		func() { ds = s.items.compile(t, itemKey) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resolve()
		}()
	}
	wg.Wait()
	s.Items = s.items.first
	s.PredOfItem = make([]int32, len(s.Items))
	for d, i := range s.Items {
		s.PredOfItem[d] = t.ids[fieldPredicate][i]
	}
	s.ObsOfExtractor = rows[int32](s.NumExtractors())
	s.TriplesOfSource = rows[int32](s.NumSources())
	s.TriplesOfItem, s.ItemValues = rows[int32](len(s.Items)), rows[int](len(s.Items))

	s.predicates.fields = []Field{fieldPredicate}
	conf, vs := t.conf, s.values.compile(t, valueKey)
	if s.sources.labelled || s.extractors.labelled {
		// A snapshot built on Units cannot extend: of its table it keeps the
		// columns and labels of its groupings' fields, and the objects'
		// labels, and the rest is garbage before the index fills run.
		var used [numFields]bool
		for _, u := range [...]*units{&s.sources, &s.extractors, &s.items} {
			for _, f := range u.fields {
				used[f] = true
			}
		}
		kept := t.grow(false)
		kept.conf = nil
		for f := range numFields {
			switch {
			case used[f]:
			case f == fieldObject:
				kept.ids[f] = nil
			default:
				kept.ids[f], kept.vocab[f], kept.index[f] = nil, nil, nil
			}
		}
		s.table = kept
	}
	ap := newAppender(s, Delta{}, false)
	ap.compile = true
	ap.appendCells(conf, es, ws, ds, vs, nil, nil)
	return s
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

// resolve gives every record the snapshot id of its unit, filling in u's
// labels and their index. Distinct units are the ids, and their column is
// returned as it is, for the build to read; any other unit's label is
// interned at the unit's first record, so that units whose labels coincide
// share an id.
func (g *Units) resolve(u *units) []int32 {
	u.joined = &layered[string]{}
	if g.distinct {
		u.labels, u.joined.idx = g.Labels, g.index
		return g.Of
	}
	ids := make([]int32, len(g.Of))
	snap := make([]int32, len(g.Labels))
	for k := range snap {
		snap[k] = -1
	}
	for i, k := range g.Of {
		if snap[k] < 0 {
			id, ok := u.joined.lookup(g.Labels[k])
			if !ok {
				id = nextID(len(u.labels))
				u.joined.put(g.Labels[k], id)
				u.labels = append(u.labels, g.Labels[k])
			}
			snap[k] = id
		}
		ids[i] = snap[k]
	}
	return ids
}
