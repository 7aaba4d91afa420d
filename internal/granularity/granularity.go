// Package granularity implements §4 of the paper: dynamically selecting the
// granularity of sources and extractors before running the multi-layer model.
//
// A source is defined at multiple resolutions by the feature vector
// ⟨website, predicate, webpage⟩ (most general first); an extractor by
// ⟨extractor, pattern, predicate, website⟩. Sources whose extracted-triple
// count falls below a minimum m are merged into their parent in the feature
// hierarchy ("borrowing statistical strength"); sources above a maximum M
// are split uniformly into ⌈|W|/M⌉ equal-size buckets to remove
// computational bottlenecks. This is Algorithm 2 (SPLITANDMERGE).
package granularity

import (
	"fmt"
	"sort"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Level extracts one hierarchy level's key from a record.
type Level func(triple.Record) string

// Config parameterises SplitAndMerge.
type Config struct {
	// MinSize (m) and MaxSize (M): units smaller than MinSize merge into
	// their parent; units larger than MaxSize split. The paper's defaults
	// are m=5 and M=10000.
	MinSize, MaxSize int
	// Levels lists the hierarchy from FINEST to COARSEST; merging a level-i
	// unit produces a level-i+1 unit. Must be non-empty.
	Levels []Level
	// Seed drives the random uniform distribution of triples across split
	// buckets.
	Seed int64
}

// SourceLevels is the source hierarchy ⟨website, predicate, webpage⟩,
// finest (all three features) to coarsest (website only).
func SourceLevels() []Level {
	return []Level{
		triple.SourceKeyFinest,           // ⟨website, predicate, webpage⟩
		triple.SourceKeyWebsitePredicate, // ⟨website, predicate⟩
		triple.SourceKeyWebsite,          // ⟨website⟩
	}
}

// ExtractorLevels is the extractor hierarchy ⟨extractor, pattern, predicate,
// website⟩, finest to coarsest.
func ExtractorLevels() []Level {
	return []Level{
		triple.ExtractorKeyFinest, // ⟨extractor, pattern, predicate, website⟩
		func(r triple.Record) string { return r.Extractor + "\x1f" + r.Pattern + "\x1f" + r.Predicate },
		func(r triple.Record) string { return r.Extractor + "\x1f" + r.Pattern },
		triple.ExtractorKeyName, // ⟨extractor⟩
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
func SplitAndMerge(records []triple.Record, cfg Config) ([]string, Report, error) {
	if len(cfg.Levels) == 0 {
		return nil, Report{}, fmt.Errorf("granularity: no hierarchy levels")
	}
	if cfg.MinSize < 0 || cfg.MaxSize <= 0 || (cfg.MinSize > cfg.MaxSize) {
		return nil, Report{}, fmt.Errorf("granularity: invalid sizes m=%d M=%d", cfg.MinSize, cfg.MaxSize)
	}

	labels := make([]string, len(records))
	rng := stats.NewRNG(cfg.Seed)
	var rep Report

	// Group record indices by finest key.
	groups := make(map[string][]int)
	for i, r := range records {
		k := cfg.Levels[0](r)
		groups[k] = append(groups[k], i)
	}
	rep.InitialUnits = len(groups)

	finalize := func(key string, idxs []int) {
		if len(idxs) > cfg.MaxSize {
			// SPLIT: uniformly distribute into ⌈|W|/M⌉ buckets.
			nBuckets := (len(idxs) + cfg.MaxSize - 1) / cfg.MaxSize
			perm := rng.Perm(len(idxs))
			rep.Splits++
			rep.SplitBuckets += nBuckets
			rep.FinalUnits += nBuckets
			for pi, p := range perm {
				bucket := pi % nBuckets
				labels[idxs[p]] = key + "\x1f#" + itoa(bucket)
			}
			return
		}
		rep.FinalUnits++
		for _, i := range idxs {
			labels[i] = key
		}
	}

	// Process level by level: too-small units merge upward; everything else
	// is finalized (splitting if oversized).
	for lvl := 0; lvl < len(cfg.Levels); lvl++ {
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		next := make(map[string][]int)
		for _, k := range keys {
			idxs := groups[k]
			switch {
			case len(idxs) >= cfg.MinSize || lvl == len(cfg.Levels)-1:
				// Desired size, or already at the top of the hierarchy
				// (GETPARENT(W) = ⊥): finalize.
				finalize(k, idxs)
			default:
				// MERGE: fold into the parent unit at the next level.
				rep.Merges++
				parent := cfg.Levels[lvl+1](records[idxs[0]])
				next[parent] = append(next[parent], idxs...)
			}
		}
		groups = next
		if len(groups) == 0 {
			break
		}
	}
	return labels, rep, nil
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// Sources runs SplitAndMerge with the standard source hierarchy.
func Sources(records []triple.Record, minSize, maxSize int, seed int64) ([]string, Report, error) {
	return SplitAndMerge(records, Config{
		MinSize: minSize, MaxSize: maxSize, Levels: SourceLevels(), Seed: seed,
	})
}

// Extractors runs SplitAndMerge with the standard extractor hierarchy.
func Extractors(records []triple.Record, minSize, maxSize int, seed int64) ([]string, Report, error) {
	return SplitAndMerge(records, Config{
		MinSize: minSize, MaxSize: maxSize, Levels: ExtractorLevels(), Seed: seed + 0x5eed,
	})
}
