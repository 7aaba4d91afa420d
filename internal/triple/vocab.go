package triple

import (
	"fmt"
	"maps"
	"strings"
	"sync/atomic"
)

// layered maps keys to dense ids with copy-on-write layering: a child layer
// records only the keys first seen after the fork and delegates older keys to
// its parent chain. Layers merge geometrically (see child), so a chain is
// O(log n) deep however long the lineage. A table's label index is a chain of
// layered[string], forked at Table.Clip; a snapshot's tuple index a chain of
// layered[tuple], forked at every Extend.
type layered[K comparable] struct {
	idx    map[K]int32 // nil until the layer's first key
	parent *layered[K]
	// frozen marks a layer a clip of a table shares: the table's next new
	// label goes into a child layer (Table.intern).
	frozen atomic.Bool
}

// child forks a copy-on-write layer over t, which is read-only from here on
// (its holders keep looking keys up in it). A top layer at least half the size
// of the one below is first folded into it — into a fresh map, t's holders
// keep theirs — and an empty one is skipped: layer sizes more than double
// down the chain, so it is O(log n) deep and re-inserts a key as often. The
// child of no layer is an empty layer.
func (t *layered[K]) child() *layered[K] {
	for t != nil && t.parent != nil && 2*len(t.idx) >= len(t.parent.idx) {
		under := t.parent
		idx := make(map[K]int32, len(t.idx)+len(under.idx))
		maps.Copy(idx, under.idx)
		maps.Copy(idx, t.idx)
		t = &layered[K]{idx: idx, parent: under.parent}
	}
	if t != nil && len(t.idx) == 0 && t.parent != nil {
		t = t.parent
	}
	return &layered[K]{parent: t}
}

func (t *layered[K]) lookup(key K) (int32, bool) {
	for tt := t; tt != nil; tt = tt.parent {
		if i, ok := tt.idx[key]; ok {
			return i, true
		}
	}
	return 0, false
}

// put maps key to id in the top layer.
func (t *layered[K]) put(key K, id int32) {
	if t.idx == nil {
		t.idx = make(map[K]int32)
	}
	t.idx[key] = id
}

// maxFields is the most fields a Grouping may join: a tuple key and a Label
// hold that many.
const maxFields = 4

// tuple is a unit's key at a tuple grouping: the table ids of its fields'
// labels, in the grouping's order. It holds no pointer, so neither does a map
// of them.
type tuple [maxFields]int32

// Label is a unit's label as the parts it joins with "\x1f": the labels of its
// grouping's fields (a data item's subject and predicate), or a Units label
// whole. It is a view of strings a table or a snapshot already holds: no part
// is copied, and only String and Join build the joined form.
type Label struct {
	parts [maxFields]string
	n     int
}

// Len returns the number of parts.
func (l Label) Len() int { return l.n }

// Part returns part k, the label of the grouping's k-th field.
func (l Label) Part(k int) string { return l.parts[:l.n][k] }

// String returns the label as a build names its unit: the parts joined with
// "\x1f".
func (l Label) String() string { return l.Join("\x1f") }

// Join returns the parts joined with sep; a single part is returned as it is.
func (l Label) Join(sep string) string {
	if l.n == 1 {
		return l.parts[0]
	}
	return strings.Join(l.parts[:l.n], sep)
}

// fnv1a folds s into an FNV-1a hash.
func fnv1a(h uint32, s string) uint32 {
	for i := range len(s) {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// hash is the FNV-1a hash of the joined label, without joining it.
func (l Label) hash() uint32 {
	h := uint32(2166136261)
	for k := range l.n {
		if k > 0 {
			h = fnv1a(h, "\x1f")
		}
		h = fnv1a(h, l.parts[k])
	}
	return h
}

// units is one kind of a snapshot's units — its sources, extractors, data
// items, values or predicates: the grouping that forms them, and what finds a
// unit's label by its id and its id by its label. The snapshot's table holds
// every label; units of a single field are that field's table ids and keep
// nothing of their own. A tuple grouping's unit is named by the tuple of its
// fields' table ids, which tuples maps to the unit's id, and keeps the unit's
// first row, whose fields name it. Units built on a Units grouping
// (split-and-merge) keep their labels.
type units struct {
	// fields are the grouping's; labelled marks units built on a Units
	// grouping, which keep their labels and no rule for new records.
	fields   []Field
	labelled bool

	// Tuple groupings: first is each unit's first row. joined indexes by
	// their joined labels the units of the tuples with a "\x1f" inside a
	// field, the only ones whose joined labels can coincide with another
	// tuple's: such tuples share a unit (TestCollidingLabelsShareAUnit).
	first  []int32
	tuples *layered[tuple]
	joined *layered[string]

	// Units groupings: every unit's label, which joined indexes.
	labels []string
}

// field returns the grouping's one field, and whether it has exactly one.
func (u *units) field() (Field, bool) {
	if len(u.fields) != 1 {
		return 0, false
	}
	return u.fields[0], true
}

// size returns the number of units, of a snapshot of t.
func (u *units) size(t *Table) int {
	if u.labelled {
		return len(u.labels)
	}
	if f, ok := u.field(); ok {
		return len(t.vocab[f])
	}
	return len(u.first)
}

// label returns unit id's label, of a snapshot of t.
func (u *units) label(t *Table, id int) Label {
	var l Label
	if u.labelled {
		l.parts[0], l.n = u.labels[id], 1
		return l
	}
	if f, ok := u.field(); ok {
		l.parts[0], l.n = t.vocab[f][id], 1
		return l
	}
	row := int(u.first[id])
	for k, f := range u.fields {
		l.parts[k] = t.label(f, row)
	}
	l.n = len(u.fields)
	return l
}

// find returns the id of the unit labelled label, of a snapshot of t, or -1.
// A tuple grouping's label names its fields only with as many separators as
// the grouping has joins; a label with more can only be a tuple's with a
// "\x1f" inside a field, which joined indexes.
func (u *units) find(t *Table, label string) int {
	if u.labelled {
		return found(u.joined.lookup(label))
	}
	if f, ok := u.field(); ok {
		return found(t.labelIndex(f).lookup(label))
	}
	k := len(u.fields)
	switch seps := strings.Count(label, "\x1f"); {
	case seps > k-1:
		return found(u.joined.lookup(label))
	case seps < k-1:
		return -1
	}
	var parts [maxFields]string
	for j := range k - 1 {
		parts[j], label, _ = strings.Cut(label, "\x1f")
	}
	parts[k-1] = label
	return u.findParts(t, parts[:k])
}

// findParts is find of the label whose field labels are parts, which it joins
// only if one holds a "\x1f".
func (u *units) findParts(t *Table, parts []string) int {
	for _, p := range parts {
		if strings.IndexByte(p, '\x1f') >= 0 {
			return found(u.joined.lookup(strings.Join(parts, "\x1f")))
		}
	}
	var key tuple
	for j, p := range parts {
		id, ok := t.labelIndex(u.fields[j]).lookup(p)
		if !ok {
			return -1
		}
		key[j] = id
	}
	return found(u.tuples.lookup(key))
}

// found is a lookup's id, or -1 when it found none.
func found(id int32, ok bool) int {
	if !ok {
		return -1
	}
	return int(id)
}

// tupleOf returns the tuple of row i of t.
func (u *units) tupleOf(t *Table, i int) tuple {
	var key tuple
	for j, f := range u.fields {
		key[j] = t.ids[f][i]
	}
	return key
}

// ofRow returns the unit of row i of t, a row of the snapshot (-1 under a
// Units grouping, which names no row of the snapshot's table by itself).
func (u *units) ofRow(t *Table, i int) int {
	if u.labelled {
		return -1
	}
	if f, ok := u.field(); ok {
		return int(t.ids[f][i])
	}
	return found(u.tuples.lookup(u.tupleOf(t, i)))
}

// intern returns the unit of row i of t, a row an Extend adds, giving its
// tuple a unit on first sight. A single field's unit is the row's id: ids
// count in order of first appearance, so a new one is the next.
func (u *units) intern(t *Table, i int) int32 {
	if f, ok := u.field(); ok {
		return t.ids[f][i]
	}
	key := u.tupleOf(t, i)
	if id, ok := u.tuples.lookup(key); ok {
		return id
	}
	return u.add(t, i, key)
}

// add gives key, the tuple of row i of t, which has no unit yet, its unit: a
// new one, unless a field holds a "\x1f" and an earlier tuple's joined label
// is this one's.
func (u *units) add(t *Table, i int, key tuple) int32 {
	collides := false
	for _, f := range u.fields {
		collides = collides || strings.IndexByte(t.label(f, i), '\x1f') >= 0
	}
	var label string
	if collides {
		label = Grouping{Fields: u.fields}.row(t, i)
		if id, ok := u.joined.lookup(label); ok {
			u.tuples.put(key, id)
			return id
		}
	}
	id := nextID(len(u.first))
	u.first = append(u.first, int32(i))
	u.tuples.put(key, id)
	if collides {
		u.joined.put(label, id)
	}
	return id
}

// compile makes u the units of grouping g over t, for Compile, and resolves
// every row of t to its unit: the row's field id under a single field, under
// a tuple grouping the tuples numbered in order of first appearance (Tuples),
// each given its unit at its first row, and under Units their own. The
// column it returns may be t's own, for the build to read.
func (u *units) compile(t *Table, g Grouping) []int32 {
	u.fields, u.labelled = g.Fields, g.Units != nil
	if u.labelled {
		return g.Units.resolve(u)
	}
	if f, ok := u.field(); ok {
		return t.ids[f]
	}
	if len(u.fields) > maxFields {
		panic(fmt.Sprintf("triple: a grouping of %d fields, at most %d", len(u.fields), maxFields))
	}
	cols := make([][]int32, len(u.fields))
	for k, f := range u.fields {
		cols[k] = t.ids[f]
	}
	of, first := Tuples(cols)
	u.first = make([]int32, 0, len(first))
	u.tuples = &layered[tuple]{idx: make(map[tuple]int32, len(first))}
	u.joined = &layered[string]{}
	unit := make([]int32, len(first))
	merged := false
	for k, i := range first {
		unit[k] = u.add(t, int(i), u.tupleOf(t, int(i)))
		merged = merged || unit[k] != int32(k)
	}
	if merged {
		for i, k := range of {
			of[i] = unit[k]
		}
	}
	return of
}

// fork returns the units a child snapshot starts from: layers over the
// parent's indexes, and the parent's first rows, adopted or copied.
func (u *units) fork(claimed bool) units {
	c := *u
	c.first = adopt(u.first, claimed)
	if u.tuples != nil {
		c.tuples, c.joined = u.tuples.child(), u.joined.child()
	}
	return c
}

// Rows returns the number of records the snapshot compiled, the rows of its
// table: the length of its subject column, which every snapshot keeps (a
// snapshot built on Units keeps only its items' columns, Table.Compile).
func (s *Snapshot) Rows() int { return len(s.table.ids[fieldSubject]) }

// The accessors below read a snapshot's labels from its table (or, for a
// snapshot built on Units, from the units' labels); none copies a label.

// NumSources returns the number of source units.
func (s *Snapshot) NumSources() int { return s.sources.size(s.table) }

// NumExtractors returns the number of extractor units.
func (s *Snapshot) NumExtractors() int { return s.extractors.size(s.table) }

// NumValues returns the number of distinct values.
func (s *Snapshot) NumValues() int { return s.values.size(s.table) }

// NumPredicates returns the number of distinct predicates, the range of
// PredOfItem.
func (s *Snapshot) NumPredicates() int { return s.predicates.size(s.table) }

// Source returns source unit w's label.
func (s *Snapshot) Source(w int) Label { return s.sources.label(s.table, w) }

// Extractor returns extractor unit e's label.
func (s *Snapshot) Extractor(e int) Label { return s.extractors.label(s.table, e) }

// Item returns data item d's label: the subject and predicate of its first
// record, parts 0 and 1.
func (s *Snapshot) Item(d int) Label { return s.items.label(s.table, d) }

// Value returns value v's label, an object.
func (s *Snapshot) Value(v int) string { return s.table.vocab[fieldObject][v] }

// Predicate returns predicate p's label.
func (s *Snapshot) Predicate(p int) string { return s.table.vocab[fieldPredicate][p] }

// SourceID returns the dense id of a source label, in its joined form, or -1
// if absent.
func (s *Snapshot) SourceID(label string) int { return s.sources.find(s.table, label) }

// ExtractorID returns the dense id of an extractor label, or -1 if absent.
func (s *Snapshot) ExtractorID(label string) int { return s.extractors.find(s.table, label) }

// ItemID returns the dense id of a data item, or -1 if absent. An item whose
// key, subject and predicate joined with "\x1f", is another's is that item.
func (s *Snapshot) ItemID(subject, predicate string) int {
	return s.items.findParts(s.table, []string{subject, predicate})
}

// ValueID returns the dense id of a value label, or -1 if absent.
func (s *Snapshot) ValueID(label string) int { return s.values.find(s.table, label) }

// RowUnits returns the source unit and the data item of row i of the
// snapshot's table, by their ids: no label is read. Both are -1 for a row the
// snapshot did not compile, and the source is for a snapshot built on Units.
func (s *Snapshot) RowUnits(i int) (w, d int) {
	if i < 0 || i >= s.Rows() {
		return -1, -1
	}
	return s.sources.ofRow(s.table, i), s.items.ofRow(s.table, i)
}

// ItemFields returns data item d's subject and predicate: its first record's.
func (s *Snapshot) ItemFields(d int) (subject, predicate string) {
	i := int(s.Items[d])
	return s.table.label(fieldSubject, i), s.table.label(fieldPredicate, i)
}
