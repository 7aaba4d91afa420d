// Package granularity implements §4 of the paper: dynamically selecting the
// granularity of sources and extractors before running the multi-layer model.
//
// A hierarchy is one feature vector, most general feature first: a source is
// ⟨website, predicate, webpage⟩, an extractor ⟨extractor, pattern, predicate,
// website⟩. The units of a level are the records' distinct prefixes of one
// length, the finest level being the whole vector, and a unit's parent drops
// its last feature. Units whose extracted-triple count falls below a minimum m
// are merged into their parent ("borrowing statistical strength"); units above
// a maximum M are split uniformly into ⌈|W|/M⌉ equal-size buckets to remove
// computational bottlenecks. This is Algorithm 2 (SPLITANDMERGE).
//
// Records are grouped once, on the tuple of their features; every later step
// works per unit, never per record, except the labelling of a split unit's
// records.
package granularity

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Feature reads one feature of a record.
type Feature func(*triple.Record) string

// maxFeatures bounds a feature vector: records are grouped on a fixed-size
// tuple of their features.
const maxFeatures = 4

// Config parameterises SplitAndMerge.
type Config struct {
	// MinSize (m) and MaxSize (M): units smaller than MinSize merge into
	// their parent; units larger than MaxSize split. The paper's defaults
	// are m=5 and M=10000.
	MinSize, MaxSize int
	// Features is the hierarchy's feature vector, most general first, of one
	// to four features; a unit's label is its prefix joined by "\x1f".
	Features []Feature
	// Seed drives the random uniform distribution of triples across split
	// buckets.
	Seed int64
}

// SourceFeatures is the source hierarchy ⟨website, predicate, webpage⟩.
func SourceFeatures() []Feature {
	return []Feature{
		func(r *triple.Record) string { return r.Website },
		func(r *triple.Record) string { return r.Predicate },
		func(r *triple.Record) string { return r.Page },
	}
}

// ExtractorFeatures is the extractor hierarchy ⟨extractor, pattern,
// predicate, website⟩.
func ExtractorFeatures() []Feature {
	return []Feature{
		func(r *triple.Record) string { return r.Extractor },
		func(r *triple.Record) string { return r.Pattern },
		func(r *triple.Record) string { return r.Predicate },
		func(r *triple.Record) string { return r.Website },
	}
}

// Report summarises what SplitAndMerge did.
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

// SplitAndMerge assigns every record a final unit label per Algorithm 2 and
// returns the labels (parallel to records) plus a report. Labels of split
// buckets are the unit key suffixed with "\x1f#<bucket>".
//
// Level by level from the finest, the units are taken in the order of their
// labels: a unit of at least MinSize records, or of the top level, is final
// (split if above MaxSize, drawing its permutation from the one random
// stream), and any other merges into its parent. A merged unit's records are
// its children's in the order they merged, each finest unit's in record order;
// only a unit that splits lists them.
func SplitAndMerge(records []triple.Record, cfg Config) ([]string, Report, error) {
	depth := len(cfg.Features)
	if depth == 0 || depth > maxFeatures {
		return nil, Report{}, fmt.Errorf("granularity: %d hierarchy features, want 1 to %d", depth, maxFeatures)
	}
	if cfg.MinSize < 0 || cfg.MaxSize <= 0 || (cfg.MinSize > cfg.MaxSize) {
		return nil, Report{}, fmt.Errorf("granularity: invalid sizes m=%d M=%d", cfg.MinSize, cfg.MaxSize)
	}
	if len(records) > math.MaxInt32 {
		return nil, Report{}, fmt.Errorf("granularity: %d records, more than 2^31-1", len(records))
	}

	// The finest units, numbered in order of first appearance, and each
	// record's. A unit's key is the prefix of its features shared by its
	// records, read off the first of them.
	type unit struct {
		label string
		size  int
		first int32   // the unit's first record
		up    int32   // the unit it merged into, or -1
		kids  []int32 // the units that merged into it, in merge order
		split bool    // its records are labelled by bucket
	}
	key := func(i int32, prefix int) (k [maxFeatures]string) {
		for f, feature := range cfg.Features[:prefix] {
			k[f] = feature(&records[i])
		}
		return k
	}
	var units []unit
	finestOf := make([]int32, len(records))
	ids := make(map[[maxFeatures]string]int32)
	for i := range records {
		k := key(int32(i), depth)
		id, ok := ids[k]
		if !ok {
			id = int32(len(units))
			ids[k] = id
			units = append(units, unit{first: int32(i), up: -1})
		}
		units[id].size++
		finestOf[i] = id
	}
	nFinest := len(units)
	rep := Report{InitialUnits: nFinest}

	labels := make([]string, len(records))
	rng := stats.NewRNG(cfg.Seed)
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
			byFinest = make([]int32, len(records))
			next := slices.Clone(start)
			for i, f := range finestOf {
				byFinest[next[f]] = int32(i)
				next[f]++
			}
		}
		// SPLIT: uniformly distribute into ⌈|W|/M⌉ buckets.
		idxs := list(u, make([]int, 0, units[u].size))
		nBuckets := (len(idxs) + cfg.MaxSize - 1) / cfg.MaxSize
		bucket := make([]string, nBuckets)
		for b := range bucket {
			bucket[b] = units[u].label + "\x1f#" + strconv.Itoa(b)
		}
		for pi, p := range rng.Perm(len(idxs)) {
			labels[idxs[p]] = bucket[pi%nBuckets]
		}
		units[u].split = true
		rep.Splits++
		rep.SplitBuckets += nBuckets
		rep.FinalUnits += nBuckets
	}

	level := make([]int32, nFinest)
	for u := range level {
		level[u] = int32(u)
	}
	for prefix := depth; prefix > 0 && len(level) > 0; prefix-- {
		for _, u := range level {
			k := key(units[u].first, prefix)
			units[u].label = strings.Join(k[:prefix], "\x1f")
		}
		slices.SortFunc(level, func(a, b int32) int { return strings.Compare(units[a].label, units[b].label) })
		var next []int32
		parents := make(map[[maxFeatures]string]int32)
		for _, u := range level {
			switch {
			case units[u].size >= cfg.MinSize || prefix == 1:
				// Desired size, or already at the top of the hierarchy
				// (GETPARENT(W) = ⊥): finalize.
				if units[u].size > cfg.MaxSize {
					split(u)
				} else {
					rep.FinalUnits++
				}
			default:
				// MERGE: fold into the parent unit at the next level.
				rep.Merges++
				k := key(units[u].first, prefix-1)
				p, ok := parents[k]
				if !ok {
					p = int32(len(units))
					parents[k] = p
					units = append(units, unit{first: units[u].first, up: -1})
					next = append(next, p)
				}
				units[p].size += units[u].size
				units[p].kids = append(units[p].kids, u)
				units[u].up = p
			}
		}
		level = next
	}

	// A finest unit's records take the label of the unit it ended in, unless
	// that unit split and labelled them itself.
	for i, u := range finestOf {
		for units[u].up >= 0 {
			u = units[u].up
		}
		if !units[u].split {
			labels[i] = units[u].label
		}
	}
	return labels, rep, nil
}

// Sources runs SplitAndMerge with the standard source hierarchy.
func Sources(records []triple.Record, minSize, maxSize int, seed int64) ([]string, Report, error) {
	return SplitAndMerge(records, Config{
		MinSize: minSize, MaxSize: maxSize, Features: SourceFeatures(), Seed: seed,
	})
}

// Extractors runs SplitAndMerge with the standard extractor hierarchy.
func Extractors(records []triple.Record, minSize, maxSize int, seed int64) ([]string, Report, error) {
	return SplitAndMerge(records, Config{
		MinSize: minSize, MaxSize: maxSize, Features: ExtractorFeatures(), Seed: seed + 0x5eed,
	})
}
