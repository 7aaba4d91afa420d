// Package granularity implements §4 of the paper: dynamically selecting the
// granularity of sources and extractors before running the multi-layer model.
//
// A hierarchy is a tuple of a record's fields, most general first: a source is
// ⟨website, predicate, webpage⟩, an extractor ⟨extractor, pattern, predicate,
// website⟩. The units of a level are the records' distinct prefixes of one
// length, the finest level being the whole tuple, and a unit's parent drops
// its last field. Units whose extracted-triple count falls below a minimum m
// are merged into their parent ("borrowing statistical strength"); units above
// a maximum M are split uniformly into ⌈|W|/M⌉ equal-size buckets to remove
// computational bottlenecks. This is Algorithm 2 (SPLITANDMERGE).
//
// The algorithm runs on a triple.Table's id columns (TableSources,
// TableExtractors): records are grouped once, on the tuple of their fields'
// ids, and every later step works per unit, never per record, except the
// assignment of a split unit's records to its buckets. A unit's label is built
// once per level it reaches, never per record. Sources and Extractors take
// records instead: they build a table of them and label each record with its
// unit's label.
package granularity

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Report summarises what split-and-merge did.
type Report struct {
	// InitialUnits is the number of units at the finest granularity.
	InitialUnits int
	// FinalUnits is the number of units after split and merge.
	FinalUnits int
	// Merges counts units that were folded into a parent; Splits counts
	// oversized units that were partitioned; SplitBuckets is the total
	// number of buckets those splits produced.
	Merges, Splits, SplitBuckets int
}

func (r Report) String() string {
	return fmt.Sprintf("units %d -> %d (%d merges, %d splits into %d buckets)",
		r.InitialUnits, r.FinalUnits, r.Merges, r.Splits, r.SplitBuckets)
}

// splitAndMergeTable runs Algorithm 2 over a table's id columns, the hierarchy
// being the given fields, most general first, and returns each record's unit.
// Units smaller than minSize (m) merge into their parent, units larger than
// maxSize (M) split, and seed drives the random assignment of a split unit's
// records to its buckets, whose labels are the unit's suffixed with
// "\x1f#<bucket>". The paper's sizes are m=5 and M=10000.
func splitAndMergeTable(t *triple.Table, fields []triple.Field, minSize, maxSize int, seed int64) (*triple.Units, Report, error) {
	if minSize < 0 || maxSize <= 0 || minSize > maxSize {
		return nil, Report{}, fmt.Errorf("granularity: invalid sizes m=%d M=%d", minSize, maxSize)
	}
	cols, vocabs := make([][]int32, len(fields)), make([][]string, len(fields))
	for f, field := range fields {
		cols[f], vocabs[f] = t.Column(field), t.Labels(field)
	}
	h, finestOf := newHierarchy(cols, vocabs)
	units, rep := h.splitAndMerge(finestOf, minSize, maxSize, seed)
	return units, rep, nil
}

// hierarchy holds the prefixes of a feature vector, most general feature
// first, of each length p numbered in order of first appearance, count[p] of
// them: a prefix of length p > 1 is its prefix of length p-1, up[p][k], and
// the id of feature p-1, last[p][k]; one of length 1 is the first feature's
// id. labels[f] are feature f's labels by id.
type hierarchy struct {
	labels   [][]string
	up, last [][]int32
	count    []int
}

// newHierarchy numbers the prefixes of rows whose features are id columns,
// cols[f][i] row i's id of feature f, numbered in order of first appearance;
// it returns each row's prefix of full length.
func newHierarchy(cols [][]int32, labels [][]string) (*hierarchy, []int32) {
	depth := len(cols)
	h := &hierarchy{labels: labels, up: make([][]int32, depth+1), last: make([][]int32, depth+1), count: make([]int, depth+1)}
	of, first := triple.Tuples(cols[:1])
	h.count[1] = len(first)
	for p := 2; p <= depth; p++ {
		var next []int32
		next, first = triple.Tuples([][]int32{of, cols[p-1]})
		h.up[p], h.last[p], h.count[p] = make([]int32, len(first)), make([]int32, len(first)), len(first)
		for k, i := range first {
			h.up[p][k], h.last[p][k] = of[i], cols[p-1][i]
		}
		of = next
	}
	return h, of
}

// label names the prefix k of length p: its features' labels joined.
func (h *hierarchy) label(p int, k int32) string {
	parts := make([]string, p)
	for q := p; q > 1; q-- {
		parts[q-1] = h.labels[q-1][h.last[q][k]]
		k = h.up[q][k]
	}
	parts[0] = h.labels[0][k]
	return strings.Join(parts, "\x1f")
}

// splitAndMerge is Algorithm 2 over the records whose finest units, the
// hierarchy's prefixes of full length, are finestOf, at sizes m = minSize and
// M = maxSize and with the random stream of seed; it returns each record's
// final unit.
//
// Level by level from the finest, the units are taken in the order of their
// labels: a unit of at least MinSize records, or of the top level, is final
// (split if above MaxSize, drawing its permutation from the one random
// stream), and any other merges into its parent. A merged unit's records are
// its children's in the order they merged, each finest unit's in record order;
// only a unit that splits lists them.
func (h *hierarchy) splitAndMerge(finestOf []int32, minSize, maxSize int, seed int64) (*triple.Units, Report) {
	depth, n := len(h.labels), len(finestOf)
	// The finest units are the prefixes of full length; a merge adds the
	// parent unit of a shorter prefix.
	type unit struct {
		label string
		key   int32 // the unit's prefix, of its level's length
		size  int
		up    int32   // the unit it merged into, or -1
		kids  []int32 // the units that merged into it, in merge order
		final int32   // the final unit it is, or -1 (merged, or split into buckets)
	}
	nFinest := h.count[depth]
	units := make([]unit, nFinest)
	for u := range units {
		units[u] = unit{key: int32(u), up: -1, final: -1}
	}
	for _, u := range finestOf {
		units[u].size++
	}
	rep := Report{InitialUnits: nFinest}

	out := &triple.Units{Of: make([]int32, n)}
	finalize := func(label string) int32 {
		out.Labels = append(out.Labels, label)
		rep.FinalUnits++
		return int32(len(out.Labels) - 1)
	}
	rng := stats.NewRNG(seed)
	var byFinest []int32 // record indices grouped by finest unit, built on the first split
	var start []int
	var list func(u int32, out []int) []int
	list = func(u int32, out []int) []int {
		if int(u) < nFinest {
			for _, i := range byFinest[start[u]:start[u+1]] {
				out = append(out, int(i))
			}
			return out
		}
		for _, k := range units[u].kids {
			out = list(k, out)
		}
		return out
	}
	split := func(u int32) {
		if byFinest == nil {
			start = make([]int, nFinest+1)
			for _, f := range finestOf {
				start[f+1]++
			}
			for f := range nFinest {
				start[f+1] += start[f]
			}
			byFinest = make([]int32, n)
			next := slices.Clone(start)
			for i, f := range finestOf {
				byFinest[next[f]] = int32(i)
				next[f]++
			}
		}
		// SPLIT: uniformly distribute into ⌈|W|/M⌉ buckets.
		idxs := list(u, make([]int, 0, units[u].size))
		nBuckets := (len(idxs) + maxSize - 1) / maxSize
		bucket := make([]int32, nBuckets)
		for b := range bucket {
			bucket[b] = finalize(units[u].label + "\x1f#" + strconv.Itoa(b))
		}
		for pi, p := range rng.Perm(len(idxs)) {
			out.Of[idxs[p]] = bucket[pi%nBuckets]
		}
		rep.Splits++
		rep.SplitBuckets += nBuckets
	}

	level := make([]int32, nFinest)
	for u := range level {
		level[u] = int32(u)
	}
	for prefix := depth; prefix > 0 && len(level) > 0; prefix-- {
		for _, u := range level {
			units[u].label = h.label(prefix, units[u].key)
		}
		slices.SortFunc(level, func(a, b int32) int { return strings.Compare(units[a].label, units[b].label) })
		var next []int32
		var parents []int32 // by prefix of length prefix-1, the unit merged into, plus one
		if prefix > 1 {
			parents = make([]int32, h.count[prefix-1])
		}
		for _, u := range level {
			switch {
			case units[u].size >= minSize || prefix == 1:
				// Desired size, or already at the top of the hierarchy
				// (GETPARENT(W) = ⊥): finalize.
				if units[u].size > maxSize {
					split(u)
				} else {
					units[u].final = finalize(units[u].label)
				}
			default:
				// MERGE: fold into the parent unit at the next level.
				rep.Merges++
				k := h.up[prefix][units[u].key]
				p := parents[k] - 1
				if p < 0 {
					p = int32(len(units))
					parents[k] = p + 1
					units = append(units, unit{key: k, up: -1, final: -1})
					next = append(next, p)
				}
				units[p].size += units[u].size
				units[p].kids = append(units[p].kids, u)
				units[u].up = p
			}
		}
		level = next
	}

	// A finest unit's records take the final unit it ended in, unless that
	// unit split and assigned them itself.
	for i, u := range finestOf {
		for units[u].up >= 0 {
			u = units[u].up
		}
		if f := units[u].final; f >= 0 {
			out.Of[i] = f
		}
	}
	return out, rep
}

// Sources is TableSources over a table of the records: it returns each
// record's unit label.
func Sources(records []triple.Record, minSize, maxSize int, seed int64) ([]string, Report, error) {
	return recordLabels(records, TableSources, minSize, maxSize, seed)
}

// Extractors is TableExtractors over a table of the records: it returns each
// record's unit label.
func Extractors(records []triple.Record, minSize, maxSize int, seed int64) ([]string, Report, error) {
	return recordLabels(records, TableExtractors, minSize, maxSize, seed)
}

// recordLabels runs a table front end over a table of the records and labels
// each record with its unit's label.
func recordLabels(records []triple.Record, run func(*triple.Table, int, int, int64) (*triple.Units, Report, error), minSize, maxSize int, seed int64) ([]string, Report, error) {
	units, rep, err := run(triple.TableOf(records), minSize, maxSize, seed)
	if err != nil {
		return nil, Report{}, err
	}
	labels := make([]string, len(units.Of))
	for i, u := range units.Of {
		labels[i] = units.Labels[u]
	}
	return labels, rep, nil
}

// TableSources runs splitAndMergeTable with the standard source hierarchy.
func TableSources(t *triple.Table, minSize, maxSize int, seed int64) (*triple.Units, Report, error) {
	return splitAndMergeTable(t, triple.SourceKeyFinest.Fields, minSize, maxSize, seed)
}

// TableExtractors runs splitAndMergeTable with the standard extractor hierarchy.
func TableExtractors(t *triple.Table, minSize, maxSize int, seed int64) (*triple.Units, Report, error) {
	return splitAndMergeTable(t, triple.ExtractorKeyFinest.Fields, minSize, maxSize, seed+extractorSeed)
}

// extractorSeed shifts the seed of the extractor hierarchy's random stream
// off the source hierarchy's.
const extractorSeed = 0x5eed
