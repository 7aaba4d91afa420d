package experiments

import (
	"maps"
	"slices"

	"kbt/internal/core"
	"kbt/internal/fusion"
	"kbt/internal/metrics"
	"kbt/internal/stats"
	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// SynthEval bundles the three square losses of §5.1.1 on synthetic data.
type SynthEval struct {
	SqV, SqC, SqA float64
}

// multiSynthetic fits the multi-layer model at website/extractor granularity
// to a generated world and computes SqV/SqC/SqA against its ground truth.
func multiSynthetic(w *synthetic.World) (SynthEval, error) {
	var ev SynthEval
	s := w.Compile()
	opt := core.DefaultOptions()
	// The synthetic generative model matches per-source attempt semantics.
	opt.Scope = core.ScopeAttemptedSources
	opt.N = w.Params.DomainSize
	res, err := core.Run(s, opt)
	if err != nil {
		return ev, err
	}

	// SqV over candidate (d,v) pairs of items with known truth.
	var vItems []metrics.Labeled
	for d := range s.Items {
		subj, pred := s.ItemFields(d)
		truth, ok := w.TrueValueOf(subj, pred)
		if !ok {
			continue
		}
		for _, v := range s.ItemValues[d] {
			p, covered := res.TripleProb(d, v)
			if !covered {
				continue
			}
			vItems = append(vItems, metrics.Labeled{Pred: p, True: s.Value(v) == truth})
		}
	}
	ev.SqV = metrics.SquareLoss(vItems)

	// SqC over candidate (w,d,v) triples against provided-truth.
	var cItems []metrics.Labeled
	for ti, tr := range s.Triples {
		subj, pred := s.ItemFields(int(tr.D))
		site := s.Source(int(tr.W)).String()
		provided := w.ProvidedTruth(site, subj, pred, s.Value(int(tr.V)))
		cItems = append(cItems, metrics.Labeled{Pred: res.CProbAt(ti), True: provided})
	}
	ev.SqC = metrics.SquareLoss(cItems)

	// SqA over sources.
	var pred, truth []float64
	for wi := range s.NumSources() {
		site := s.Source(wi).String()
		a, ok := w.TrueAccuracy[site]
		if !ok {
			continue
		}
		pred = append(pred, res.AAt(wi))
		truth = append(truth, a)
	}
	ev.SqA, err = stats.SquareLoss(pred, truth)
	return ev, err
}

// singleSynthetic fits the single-layer model over (extractor, website,
// predicate, pattern) provenances with the paper's single-layer settings
// (n=100) and computes SqV/SqA against the world's ground truth. The
// single-layer model has no extraction-correctness layer, so SqC is set to
// the loss of always predicting 1 on extracted triples (every extraction is
// assumed provided) — matching how the paper's Figure 3 shows a single
// (flat, implicit) line for SINGLELAYER.
func singleSynthetic(w *synthetic.World) (SynthEval, error) {
	var ev SynthEval
	s := triple.TableOf(w.Dataset.Records).Compile(triple.ProvenanceKey, triple.ExtractorKeyName)
	opt := fusion.DefaultOptions()
	opt.MinSupport = 1
	res, err := fusion.Run(s, opt)
	if err != nil {
		return ev, err
	}

	var vItems []metrics.Labeled
	for d := range s.Items {
		subj, pred := s.ItemFields(d)
		truth, ok := w.TrueValueOf(subj, pred)
		if !ok {
			continue
		}
		if !res.CoveredItem[d] {
			continue
		}
		for k, v := range s.ItemValues[d] {
			vItems = append(vItems, metrics.Labeled{Pred: res.ValueProb[d][k], True: s.Value(v) == truth})
		}
	}
	ev.SqV = metrics.SquareLoss(vItems)

	// Implicit C=1 for every extracted triple.
	var cItems []metrics.Labeled
	seen := make(map[string]bool)
	for _, o := range s.Obs {
		subj, pred := s.ItemFields(int(o.D))
		site := triple.ProvenanceWebsite(s.Source(int(o.W)))
		key := site + "\x1f" + subj + "\x1f" + pred + "\x1f" + s.Value(int(o.V))
		if seen[key] {
			continue
		}
		seen[key] = true
		provided := w.ProvidedTruth(site, subj, pred, s.Value(int(o.V)))
		cItems = append(cItems, metrics.Labeled{Pred: 1, True: provided})
	}
	ev.SqC = metrics.SquareLoss(cItems)

	// SqA: "SINGLELAYER considers all extracted triples when computing
	// source accuracy" (§5.2.2) — average the posterior of every triple
	// extracted from the website.
	agg := fusion.AggregateSourceAccuracy(s, res, func(wi int) string {
		return triple.ProvenanceWebsite(s.Source(wi))
	})
	var pred, truth []float64
	for _, site := range slices.Sorted(maps.Keys(w.TrueAccuracy)) { // a fixed summation order
		est, ok := agg[site]
		if !ok {
			continue
		}
		pred = append(pred, est)
		truth = append(truth, w.TrueAccuracy[site])
	}
	ev.SqA, err = stats.SquareLoss(pred, truth)
	return ev, err
}

// Fig3Row is one x-position of Figure 3: losses at a given extractor count.
type Fig3Row struct {
	NumExtractors                   int
	SingleSqV, SingleSqC, SingleSqA float64
	MultiSqV, MultiSqC, MultiSqA    float64
}

// Fig3 reproduces Figure 3: SqV, SqC and SqA as the number of extractors
// grows from 1 to maxExtractors, averaged over runs repetitions.
func Fig3(maxExtractors, runs int, seed int64) ([]Fig3Row, error) {
	var rows []Fig3Row
	for ne := 1; ne <= maxExtractors; ne++ {
		var row Fig3Row
		row.NumExtractors = ne
		for r := 0; r < runs; r++ {
			p := synthetic.DefaultParams()
			p.NumExtractors = ne
			p.Seed = seed + int64(r)*1000 + int64(ne)
			w, err := synthetic.Generate(p)
			if err != nil {
				return nil, err
			}
			m, err := multiSynthetic(w)
			if err != nil {
				return nil, err
			}
			s, err := singleSynthetic(w)
			if err != nil {
				return nil, err
			}
			row.SingleSqV += s.SqV
			row.SingleSqC += s.SqC
			row.SingleSqA += s.SqA
			row.MultiSqV += m.SqV
			row.MultiSqC += m.SqC
			row.MultiSqA += m.SqA
		}
		f := float64(runs)
		row.SingleSqV /= f
		row.SingleSqC /= f
		row.SingleSqA /= f
		row.MultiSqV /= f
		row.MultiSqC /= f
		row.MultiSqA /= f
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4Param selects which knob Figure 4 sweeps.
type Fig4Param int

const (
	VaryRecall Fig4Param = iota
	VaryPrecision
	VaryAccuracy
	VaryCoverage // δ; the paper notes its plot resembles the recall sweep
)

func (p Fig4Param) String() string {
	switch p {
	case VaryRecall:
		return "R"
	case VaryPrecision:
		return "P"
	case VaryAccuracy:
		return "A"
	case VaryCoverage:
		return "delta"
	default:
		return "?"
	}
}

// Fig4Row is one x-position of Figure 4 for the multi-layer model.
type Fig4Row struct {
	Param Fig4Param
	Value float64
	SynthEval
}

// Fig4 reproduces Figure 4: multi-layer losses while sweeping one quality
// parameter over {0.1, ..., 0.9}, averaged over runs repetitions.
func Fig4(param Fig4Param, runs int, seed int64) ([]Fig4Row, error) {
	var rows []Fig4Row
	for v := 0.1; v < 0.95; v += 0.2 {
		var agg SynthEval
		for r := 0; r < runs; r++ {
			p := synthetic.DefaultParams()
			p.Seed = seed + int64(r)*1000 + int64(v*100)
			switch param {
			case VaryRecall:
				p.ExtractorRecall = v
			case VaryPrecision:
				p.ComponentPrecision = v
			case VaryAccuracy:
				p.SourceAccuracy = v
			case VaryCoverage:
				p.ExtractorCoverage = v
			}
			w, err := synthetic.Generate(p)
			if err != nil {
				return nil, err
			}
			m, err := multiSynthetic(w)
			if err != nil {
				return nil, err
			}
			agg.SqV += m.SqV
			agg.SqC += m.SqC
			agg.SqA += m.SqA
		}
		f := float64(runs)
		rows = append(rows, Fig4Row{
			Param: param, Value: v,
			SynthEval: SynthEval{SqV: agg.SqV / f, SqC: agg.SqC / f, SqA: agg.SqA / f},
		})
	}
	return rows, nil
}
