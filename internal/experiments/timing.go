package experiments

import (
	"fmt"
	"time"

	"kbt/internal/core"
	"kbt/internal/granularity"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// Table7Strategy selects a granularity-preparation strategy of Table 7.
type Table7Strategy int

const (
	// Normal runs at the finest granularity with no preparation.
	Normal Table7Strategy = iota
	// SplitOnly splits oversized units but never merges (m=0).
	SplitOnly
	// SplitMerge applies the full SplitAndMerge (m, M).
	SplitMerge
)

func (s Table7Strategy) String() string {
	switch s {
	case SplitOnly:
		return "Split"
	case SplitMerge:
		return "Split&Merge"
	default:
		return "Normal"
	}
}

// Table7Column reports the per-stage wall time of one strategy; values are
// normalised so that one Normal-strategy iteration equals 1.0 (the paper
// reports relative times for the same reason: absolute times depend on the
// machine pool).
type Table7Column struct {
	Strategy Table7Strategy

	PrepSource, PrepExtractor, PrepTotal float64
	ExtCorr, TriplePr, SrcAccu, ExtQual  float64
	IterTotal                            float64 // one iteration
	Total                                float64 // prep + MaxIter iterations

	// Raw durations for reference.
	RawPrep, RawIter time.Duration
}

// Table7 measures the relative running time of the three strategies on one
// skewed corpus (the paper's Table 7). The corpus is generated once and each
// strategy re-prepares and re-runs inference on it.
//
// The paper's corpus contained enormous units at the finest granularity —
// 26 URLs with over 50K triples each (mostly extraction mistakes) and 43
// patterns extracting over 1M triples. The simulator reproduces that skew
// by appending aggregator pages whose triples all flow through a single
// extractor pattern, creating the parallel-stage stragglers that splitting
// exists to remove.
func Table7(cfg KVConfig, minSize, maxSize int) ([]Table7Column, error) {
	p := websim.DefaultParams().Scale(cfg.Scale)
	p.Seed = cfg.Seed
	p.MaxTriplesPerPage *= 4
	w, err := websim.Generate(p)
	if err != nil {
		return nil, err
	}

	// Aggregator skew: a handful of giant single-page sources fed by one
	// dominant pattern each, sized well beyond maxSize.
	giant := 12 * maxSize
	if giant > 200000 {
		giant = 200000
	}
	for a := 0; a < 2; a++ {
		site := fmt.Sprintf("aggregator%02d.example", a)
		page := site + "/dump"
		ext := fmt.Sprintf("ext%02d", a%p.NumExtractors)
		for i := 0; i < giant; i++ {
			w.Dataset.Add(triple.Record{
				Extractor: ext,
				Pattern:   ext + "_megapattern",
				Website:   site,
				Page:      page,
				Subject:   fmt.Sprintf("agg%d_entity%d", a, i),
				Predicate: "nationality",
				Object:    fmt.Sprintf("##scraped_%d_%d", a, i),
			})
		}
	}

	cols := make([]Table7Column, 0, 3)
	var normalIterUnit float64
	for _, strat := range []Table7Strategy{Normal, SplitOnly, SplitMerge} {
		col := Table7Column{Strategy: strat}

		var srcLabels, extLabels []string
		prepStart := time.Now()
		switch strat {
		case Normal:
			// no preparation
		case SplitOnly:
			t0 := time.Now()
			srcLabels, _, err = granularity.Sources(w.Dataset.Records, 0, maxSize, cfg.Seed)
			if err != nil {
				return nil, err
			}
			col.PrepSource = time.Since(t0).Seconds()
			t0 = time.Now()
			extLabels, _, err = granularity.Extractors(w.Dataset.Records, 0, maxSize, cfg.Seed)
			if err != nil {
				return nil, err
			}
			col.PrepExtractor = time.Since(t0).Seconds()
		case SplitMerge:
			t0 := time.Now()
			srcLabels, _, err = granularity.Sources(w.Dataset.Records, minSize, maxSize, cfg.Seed)
			if err != nil {
				return nil, err
			}
			col.PrepSource = time.Since(t0).Seconds()
			t0 = time.Now()
			extLabels, _, err = granularity.Extractors(w.Dataset.Records, minSize, maxSize, cfg.Seed)
			if err != nil {
				return nil, err
			}
			col.PrepExtractor = time.Since(t0).Seconds()
		}
		col.RawPrep = time.Since(prepStart)

		copt := triple.CompileOptions{
			SourceKey:    triple.SourceKeyFinest,
			ExtractorKey: triple.ExtractorKeyFinest,
		}
		if srcLabels != nil {
			copt.SourceLabels = srcLabels
			copt.ExtractorLabels = extLabels
		}
		snap := w.Dataset.Compile(copt)

		opt := core.DefaultOptions()
		opt.MinSourceSupport = cfg.MinSupport
		opt.MinExtractorSupport = cfg.MinSupport
		opt.Workers = cfg.Workers
		extCorr, triplePr, srcAccu, extQual, err := timeStages(snap, opt)
		if err != nil {
			return nil, err
		}
		iters := float64(opt.MaxIter)
		col.ExtCorr = extCorr.Seconds() / iters
		col.TriplePr = triplePr.Seconds() / iters
		col.SrcAccu = srcAccu.Seconds() / iters
		col.ExtQual = extQual.Seconds() / iters
		col.RawIter = time.Duration(float64(extCorr+triplePr+srcAccu+extQual) / iters)
		col.IterTotal = col.ExtCorr + col.TriplePr + col.SrcAccu + col.ExtQual
		col.PrepTotal = col.PrepSource + col.PrepExtractor
		col.Total = col.PrepTotal + col.IterTotal*iters

		if strat == Normal {
			normalIterUnit = col.IterTotal
		}
		cols = append(cols, col)
	}

	// Normalise everything to one Normal iteration = 1 unit.
	if normalIterUnit > 0 {
		for i := range cols {
			c := &cols[i]
			c.PrepSource /= normalIterUnit
			c.PrepExtractor /= normalIterUnit
			c.PrepTotal /= normalIterUnit
			c.ExtCorr /= normalIterUnit
			c.TriplePr /= normalIterUnit
			c.SrcAccu /= normalIterUnit
			c.ExtQual /= normalIterUnit
			c.IterTotal /= normalIterUnit
			c.Total /= normalIterUnit
		}
	}
	return cols, nil
}

// timeStages runs Algorithm 1 on snap for all MaxIter iterations — core.Run's
// call sequence without its convergence stop — and returns the wall time of
// each of the paper's stages from the EM's stage clock: Stage I with the vote
// preparation it reads, Stage II, Stage III, and Stage IV with the
// pre-iteration bootstrap (an extractor M-step). The Eq 26 prior is left out.
func timeStages(snap *triple.Snapshot, opt core.Options) (extCorr, triplePr, srcAccu, extQual time.Duration, err error) {
	em, err := core.NewEM(snap, opt)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	cProb := make([]float64, len(snap.Triples))
	valueProb := make([][]float64, len(snap.Items))
	restMass := make([]float64, len(snap.Items))
	covered := make([]bool, len(snap.Items))
	em.Bootstrap(cProb)
	for iter := 1; iter <= opt.MaxIter; iter++ {
		em.Iterate(cProb, valueProb, restMass, covered, core.Pass{Iter: iter, RefreshVotes: true})
	}
	t := em.StageTimes()
	return t.Votes + t.StageI, t.StageII, t.StageIII, t.StageIV, nil
}
