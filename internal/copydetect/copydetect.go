// Package copydetect implements source-dependence detection — §5.4.2's
// fourth research direction ("Some websites scrape data from other websites.
// Identifying such websites requires techniques such as copy detection"),
// following the ACCU-COPY test of Dong, Berti-Équille and Srivastava (VLDB
// 2009), which the paper cites as [8].
//
// The signal is shared *false* values: two independent sources rarely make
// the same mistake (probability (1-A₁)(1-A₂)/n per item under the uniform
// false-value model), while a copier reproduces its source's mistakes
// verbatim. For each pair of sources with enough overlapping data items, the
// detector computes the log-likelihood ratio of the dependence hypothesis
// from the counts of shared-true, shared-false, and differing values, and
// returns the posterior probability of dependence.
package copydetect

import (
	"errors"
	"math"
	"sort"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Options configures the detector.
type Options struct {
	// CopyRate is c, the probability a copier copies any particular value
	// rather than providing it independently (default 0.8).
	CopyRate float64
	// Prior is the prior probability that an overlapping pair is dependent
	// (default 0.1).
	Prior float64
	// N is the assumed number of false values per data item, matching the
	// fusion/KBT options (default 10).
	N int
	// MinOverlap is the minimum number of shared data items for a pair to
	// be scored (default 3) — below it the test has no power.
	MinOverlap int
	// MaxProvidersPerValue skips values provided by more than this many
	// sources when enumerating pairs (default 25): very popular values are
	// weak evidence either way, and skipping them bounds the pair
	// enumeration at O(items · cap²).
	MaxProvidersPerValue int
	// Threshold is the posterior above which a pair is reported (default 0.5).
	Threshold float64
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		CopyRate:             0.8,
		Prior:                0.1,
		N:                    10,
		MinOverlap:           3,
		MaxProvidersPerValue: 25,
		Threshold:            0.5,
	}
}

// Dependence is one detected source pair. Direction is not resolved (the
// ACCU-COPY direction test needs per-item ordering information we do not
// model); A and B are ordered by snapshot id.
type Dependence struct {
	A, B int // snapshot source ids
	// Posterior is p(dependent | shared values).
	Posterior float64
	// SharedTrue, SharedFalse, Differ are the evidence counts over the
	// pair's overlapping data items.
	SharedTrue, SharedFalse, Differ int
}

// Evidence abstracts where the detector reads beliefs from: the caller
// supplies the probability that a value is true and each source's accuracy
// (available from either a multi-layer or single-layer result).
type Evidence struct {
	// ValueProb returns p(Vd = v true). Items/values use snapshot ids.
	ValueProb func(d, v int) float64
	// Accuracy returns the source's estimated accuracy.
	Accuracy func(w int) float64
	// Provides reports whether source w provides candidate triple ti
	// (e.g. p(C) >= 0.5 under the multi-layer model).
	Provides func(ti int) bool
}

// Detect scores all source pairs with sufficient overlap and returns those
// whose dependence posterior exceeds the threshold, strongest first.
func Detect(s *triple.Snapshot, ev Evidence, opt Options) ([]Dependence, error) {
	if s == nil {
		return nil, errors.New("copydetect: nil snapshot")
	}
	if ev.ValueProb == nil || ev.Accuracy == nil {
		return nil, errors.New("copydetect: incomplete evidence")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}

	// providersOf[d] maps value -> providing sources, for shared-value
	// pair enumeration.
	type pairKey struct{ a, b int }
	type pairEv struct {
		sharedTrue, sharedFalse int
		items                   map[int]bool
	}
	pairs := make(map[pairKey]*pairEv)

	// itemsOf[w] records the items each source provides, to count overlap
	// and disagreements.
	itemsOf := make([]map[int]int, len(s.Sources)) // item -> value
	for w := range itemsOf {
		itemsOf[w] = make(map[int]int)
	}
	for ti, tr := range s.Triples {
		if ev.Provides != nil && !ev.Provides(ti) {
			continue
		}
		itemsOf[tr.W][tr.D] = tr.V
	}

	for d := range s.Items {
		for _, v := range s.ItemValues[d] {
			var providers []int
			for _, ti := range s.TriplesOfItem[d] {
				tr := s.Triples[ti]
				if tr.V != v {
					continue
				}
				if ev.Provides != nil && !ev.Provides(ti) {
					continue
				}
				providers = append(providers, tr.W)
			}
			if len(providers) < 2 || len(providers) > opt.MaxProvidersPerValue {
				continue
			}
			sort.Ints(providers)
			isTrue := ev.ValueProb(d, v) >= 0.5
			for i := 0; i < len(providers); i++ {
				for j := i + 1; j < len(providers); j++ {
					k := pairKey{providers[i], providers[j]}
					pe := pairs[k]
					if pe == nil {
						pe = &pairEv{items: make(map[int]bool)}
						pairs[k] = pe
					}
					pe.items[d] = true
					if isTrue {
						pe.sharedTrue++
					} else {
						pe.sharedFalse++
					}
				}
			}
		}
	}

	var out []Dependence
	for k, pe := range pairs {
		overlap, differ := overlapDiffer(itemsOf[k.a], itemsOf[k.b])
		if overlap < opt.MinOverlap {
			continue
		}
		post := posterior(pe.sharedTrue, pe.sharedFalse, differ,
			ev.Accuracy(k.a), ev.Accuracy(k.b), opt)
		if post < opt.Threshold {
			continue
		}
		out = append(out, Dependence{
			A: k.a, B: k.b, Posterior: post,
			SharedTrue: pe.sharedTrue, SharedFalse: pe.sharedFalse, Differ: differ,
		})
	}
	sortDependences(out)
	return out, nil
}

// validate is the option check Detect and NewTracker share.
func (opt *Options) validate() error {
	switch {
	case opt.CopyRate <= 0 || opt.CopyRate >= 1:
		return errors.New("copydetect: CopyRate must be in (0,1)")
	case opt.Prior <= 0 || opt.Prior >= 1:
		return errors.New("copydetect: Prior must be in (0,1)")
	case opt.N < 1:
		return errors.New("copydetect: N must be >= 1")
	}
	return nil
}

// overlapDiffer counts, from two sources' item → value maps, the items both
// provide (with the same value or not) and those on which they differ,
// walking the smaller map.
func overlapDiffer(a, b map[int]int) (overlap, differ int) {
	if len(b) < len(a) {
		a, b = b, a
	}
	for d, va := range a {
		vb, ok := b[d]
		if !ok {
			continue
		}
		overlap++
		if va != vb {
			differ++
		}
	}
	return overlap, differ
}

// sortDependences orders a report strongest first, ties by source ids.
func sortDependences(out []Dependence) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Posterior != out[j].Posterior {
			return out[i].Posterior > out[j].Posterior
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
}

// posterior computes p(dependent | kt shared-true, kf shared-false, kd
// differing) under the ACCU-COPY observation model.
func posterior(kt, kf, kd int, a1, a2 float64, opt Options) float64 {
	a1 = stats.Clamp(a1, 0.01, 0.99)
	a2 = stats.Clamp(a2, 0.01, 0.99)
	c := opt.CopyRate
	n := float64(opt.N)

	// Independent: same true value requires both right; same false value
	// requires both wrong AND picking the same 1-of-n false value.
	ptInd := a1 * a2
	pfInd := (1 - a1) * (1 - a2) / n
	pdInd := math.Max(1-ptInd-pfInd, 1e-12)

	// Dependent: with probability c the second source copies the first
	// verbatim (same value, true with the first source's accuracy);
	// otherwise they act independently.
	ptDep := c*a1 + (1-c)*ptInd
	pfDep := c*(1-a1) + (1-c)*pfInd
	pdDep := math.Max((1-c)*pdInd, 1e-12)

	llr := float64(kt)*math.Log(ptDep/ptInd) +
		float64(kf)*math.Log(pfDep/pfInd) +
		float64(kd)*math.Log(pdDep/pdInd)
	return stats.Sigmoid(llr + stats.Logit(opt.Prior))
}
