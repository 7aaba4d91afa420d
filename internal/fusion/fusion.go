// Package fusion implements the single-layer data-fusion baseline of §2.2:
// the ACCU model of Dong et al. (VLDB 2009) and its POPACCU variant, run over
// "provenances" — (webpage, extractor) combinations, or the 4-tuple
// (extractor, website, predicate, pattern) used in the paper's experiments.
//
// This is the state of the art the multi-layer model is compared against
// (SINGLELAYER in Table 5 and Figures 3, 8, 9). It has a single layer of
// latent variables, the unknown value Vd of each data item, and one accuracy
// parameter per provenance; it cannot distinguish extraction errors from
// source errors.
package fusion

import (
	"errors"
	"math"
	"sort"

	"kbt/internal/core"
	"kbt/internal/parallel"
	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Model selects how false values are distributed in the observation model.
type Model int

const (
	// Accu assumes the n false values are uniformly likely (Eq 1).
	Accu Model = iota
	// PopAccu uses the empirical popularity of each observed value instead
	// of the uniform assumption; proven monotonic in Dong et al. 2013.
	PopAccu
)

// Options configures a single-layer run. The zero value is not usable;
// start from DefaultOptions.
type Options struct {
	// Model is Accu or PopAccu.
	Model Model
	// N is the assumed number of false values per data item
	// (|dom(d)| = N+1). The paper uses N=100 for the single-layer runs.
	N int
	// MaxIter bounds the EM-like iterations; the paper iterates 5 times.
	MaxIter int
	// Tol stops early when no accuracy moves by more than this.
	Tol float64
	// InitAccuracy is the default provenance accuracy (paper: 0.8).
	InitAccuracy float64
	// InitialAccuracy optionally seeds per-provenance accuracies (by source
	// id in the snapshot); used for the "+" smart-initialisation variants.
	InitialAccuracy map[int]float64
	// MinSupport is the minimum number of observations a provenance needs
	// for its accuracy to be (re-)estimated. A provenance below the
	// threshold keeps its default accuracy over all iterations and is
	// excluded from fusion, reducing coverage (§5.1.2).
	MinSupport int
	// UseConfidence weights votes by extraction confidence when true.
	UseConfidence bool
	// Workers is the parallelism (0 = GOMAXPROCS).
	Workers int

	// FullAggregates forces Incremental to re-aggregate every M-step in
	// full instead of maintaining the per-source numerators/denominators by
	// per-item contribution deltas — the batch-equivalent oracle the delta
	// path is pinned against bit for bit, mirroring
	// engine.Options.FullAggregates. Ignored by Run.
	FullAggregates bool
}

// DefaultOptions mirrors the paper's single-layer settings.
func DefaultOptions() Options {
	return Options{
		Model:         Accu,
		N:             100,
		MaxIter:       5,
		Tol:           1e-9,
		InitAccuracy:  0.8,
		MinSupport:    3,
		UseConfidence: true,
	}
}

// validate is the option check Run and NewIncremental share.
func (opt *Options) validate() error {
	switch {
	case opt.N < 1:
		return errors.New("fusion: N must be >= 1")
	case opt.MaxIter < 1:
		return errors.New("fusion: MaxIter must be >= 1")
	case opt.InitAccuracy <= 0 || opt.InitAccuracy >= 1:
		return errors.New("fusion: InitAccuracy must be in (0,1)")
	}
	return nil
}

// Result holds the single-layer posteriors and parameter estimates.
type Result struct {
	// Accuracy is the estimated accuracy per provenance (snapshot source).
	Accuracy []float64
	// Updated marks provenances whose accuracy moved off the default
	// (i.e. they met MinSupport and participated in fusion).
	Updated []bool
	// ValueProb[d][k] is p(Vd = ItemValues[d][k] | X); RestMass[d] is the
	// leftover probability spread over unobserved domain values.
	ValueProb [][]float64
	RestMass  []float64
	// CoveredItem marks data items with at least one participating
	// provenance; uncovered items get no probability (Cov metric).
	CoveredItem []bool
	// Iterations is the number of EM iterations actually run; Converged
	// reports whether they reached a fixed point before MaxIter.
	Iterations int
	Converged  bool
}

// TripleProb returns p(Tdv=1|X) for candidate value v of item d, and whether
// the item was covered.
func (r *Result) TripleProb(s *triple.Snapshot, d, v int) (float64, bool) {
	if !r.CoveredItem[d] {
		return 0, false
	}
	for k, vv := range s.ItemValues[d] {
		if vv == v {
			return r.ValueProb[d][k], true
		}
	}
	return 0, true
}

// vote is one observation as the E step reads it: the provenance, the slot of
// the value it names in the item's sorted candidate list, and its weight.
type vote struct {
	w    int32
	slot int32
	conf float64
}

// voteOf is observation o of snapshot s as a vote.
func (opt *Options) voteOf(s *triple.Snapshot, o triple.Observation) vote {
	conf := o.Conf
	if !opt.UseConfidence {
		conf = 1
	}
	return vote{w: o.W, slot: int32(sort.SearchInts(s.ItemValues[o.D], int(o.V))), conf: conf}
}

// popularity is PopAccu's false-value distribution for one item: the share
// of the item's vote weight naming each of its k candidate values, summed in
// vote (that is, observation) order.
func popularity(votes []vote, k int) []float64 {
	row := make([]float64, k)
	total := 0.0
	for _, vt := range votes {
		row[vt.slot] += vt.conf
		total += vt.conf
	}
	if total != 0 {
		for i := range row {
			row[i] /= total
		}
	}
	return row
}

// fuseItem is the E step for data item d (Eq 2): the posterior over its k
// candidate values and the mass left to the unobserved rest of the N+1-value
// domain, from the votes of the participating provenances at their current
// accuracies. pop is read under PopAccu only. An item no participating
// provenance votes on is uncovered: a zero row and no rest mass.
func (opt *Options) fuseItem(d, k int, votes []vote, pop [][]float64, updated []bool, acc []float64) (row []float64, rest float64, covered bool) {
	scores := make([]float64, k)
	for _, vt := range votes {
		if !updated[vt.w] {
			continue
		}
		covered = true
		a := stats.ClampProb(acc[vt.w])
		var falseLogProb float64
		if opt.Model == PopAccu {
			falseLogProb = math.Log1p(-a) + math.Log(stats.ClampProb(pop[d][vt.slot]))
		} else {
			falseLogProb = math.Log1p(-a) - math.Log(float64(opt.N))
		}
		scores[vt.slot] += vt.conf * (math.Log(a) - falseLogProb)
	}
	if !covered {
		return scores, 0, false // no vote counted: still all zeros
	}
	row, rest = stats.SoftmaxWithRest(scores, max(opt.N+1-k, 0), 0)
	return row, rest, true
}

// accumulate adds (sign +1) a covered item's terms of Eq 4 — each vote's
// conf·p(value) to its provenance's numerator and conf to its denominator —
// or (sign −1) subtracts exactly what adding them added.
func accumulate(num, den []stats.Sum, votes []vote, row []float64, sign float64) {
	for _, vt := range votes {
		num[vt.w] = num[vt.w].Add(sign * vt.conf * row[vt.slot])
		den[vt.w] = den[vt.w].Add(sign * vt.conf)
	}
}

// reestimate is Eq 4's M step: every participating provenance with vote
// weight takes the accuracy its sums give. It returns the largest movement.
func reestimate(acc []float64, num, den []stats.Sum, updated []bool) (maxDelta float64) {
	for w := range acc {
		d := den[w].Float()
		if !updated[w] || d == 0 {
			continue
		}
		a := stats.ClampProb(num[w].Float() / d)
		maxDelta = max(maxDelta, math.Abs(a-acc[w]))
		acc[w] = a
	}
	return maxDelta
}

// Run executes the single-layer EM of §2.2 (the iterative algorithm of [8])
// on the snapshot, one core.Settle pass over every item per iteration.
// Snapshot sources are treated as provenances; the extractor dimension is
// ignored (callers encode the provenance choice in the snapshot's SourceKey).
func Run(s *triple.Snapshot, opt Options) (*Result, error) {
	if s == nil {
		return nil, errors.New("fusion: nil snapshot")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}

	nSrc := s.NumSources()
	nItem := len(s.Items)

	// Per-provenance support and participation.
	support := make([]int, nSrc)
	for _, o := range s.Obs {
		support[o.W]++
	}
	updated := make([]bool, nSrc)
	for w := range updated {
		updated[w] = support[w] >= opt.MinSupport
	}

	acc := make([]float64, nSrc)
	for w := range acc {
		acc[w] = opt.InitAccuracy
		if a, ok := opt.InitialAccuracy[w]; ok && updated[w] {
			acc[w] = stats.ClampProb(a)
		}
	}

	// Group observations per item once, in observation order, and derive
	// each item's value popularity from them (for POPACCU).
	votes := make([][]vote, nItem)
	for _, o := range s.Obs {
		votes[o.D] = append(votes[o.D], opt.voteOf(s, o))
	}
	var pop [][]float64
	if opt.Model == PopAccu {
		pop = make([][]float64, nItem)
		for d := range pop {
			pop[d] = popularity(votes[d], len(s.ItemValues[d]))
		}
	}

	res := &Result{
		Accuracy:    acc,
		Updated:     updated,
		ValueProb:   make([][]float64, nItem),
		RestMass:    make([]float64, nItem),
		CoveredItem: make([]bool, nItem),
	}

	num := make([]stats.Sum, nSrc)
	den := make([]stats.Sum, nSrc)
	// The scope is every item: no pass widens it, and a pass whose
	// accuracies settled converges.
	res.Iterations, res.Converged, _ = core.Settle(opt.MaxIter,
		func() int { return 0 }, func(int) {},
		func(int) bool {
			// E step: per-item posterior over values (Eq 2).
			parallel.ForEach(nItem, opt.Workers, func(d int) {
				res.ValueProb[d], res.RestMass[d], res.CoveredItem[d] =
					opt.fuseItem(d, len(s.ItemValues[d]), votes[d], pop, updated, acc)
			})

			// M step: provenance accuracies (Eq 4).
			clear(num)
			clear(den)
			for d := 0; d < nItem; d++ {
				if res.CoveredItem[d] {
					accumulate(num, den, votes[d], res.ValueProb[d], +1)
				}
			}
			return reestimate(acc, num, den, updated) < opt.Tol
		})
	return res, nil
}

// AggregateSourceAccuracy derives a per-group accuracy from a single-layer
// result by averaging the posterior probability of every triple extracted by
// provenances in the group ("SINGLELAYER considers all extracted triples
// when computing source accuracy", §5.2.2). groupOf maps a snapshot source
// id to a group label such as the webpage or website; it may return "" to
// skip a provenance.
func AggregateSourceAccuracy(s *triple.Snapshot, r *Result, groupOf func(w int) string) map[string]float64 {
	num := make(map[string]float64)
	den := make(map[string]float64)
	slotCache := make(map[[2]int]int)
	slot := func(d, v int) int {
		k, ok := slotCache[[2]int{d, v}]
		if ok {
			return k
		}
		k = -1
		for i, vv := range s.ItemValues[d] {
			if vv == v {
				k = i
				break
			}
		}
		slotCache[[2]int{d, v}] = k
		return k
	}
	for _, o := range s.Obs {
		g := groupOf(int(o.W))
		if g == "" || !r.CoveredItem[o.D] {
			continue
		}
		k := slot(int(o.D), int(o.V))
		if k < 0 {
			continue
		}
		num[g] += r.ValueProb[o.D][k]
		den[g]++
	}
	out := make(map[string]float64, len(num))
	for g, n := range num {
		out[g] = n / den[g]
	}
	return out
}
