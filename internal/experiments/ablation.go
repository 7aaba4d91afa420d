package experiments

import (
	"kbt/internal/core"
	"kbt/internal/metrics"
	"kbt/internal/websim"
)

// Table6Row is one ablation of Table 6: a MULTILAYER+ variant with one
// inference component changed.
type Table6Row struct {
	Name  string
	SqV   float64
	WDev  float64
	AUCPR float64
	Cov   float64
}

// Table6 reproduces the inference-algorithm ablations of Table 6 on the
// simulated KV corpus: the MULTILAYER+ baseline; the MAP estimate p(Vd|Ĉd)
// instead of the uncertainty-weighted estimator (§3.3.3); a fixed prior α
// (§3.3.4); and thresholded extractions p(C|I(X>φ)) at φ=0 instead of
// confidence weighting (§3.5).
func Table6(w *websim.World, cfg KVConfig) ([]Table6Row, error) {
	s, err := compileFor(w, MultiLayer, cfg)
	if err != nil {
		return nil, err
	}
	gold := goldLabels(w, s)
	srcInit := goldInitSource(w, s)
	extInit := goldInitExtractor(w, s)

	baseOpt := func() core.Options {
		opt := core.DefaultOptions()
		opt.MinSourceSupport = cfg.MinSupport
		opt.MinExtractorSupport = cfg.MinSupport
		opt.Workers = cfg.Workers
		opt.InitialSourceAccuracy = srcInit
		opt.InitialExtractorPrecision = extInit
		return opt
	}

	variants := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"MultiLayer+", func(*core.Options) {}},
		{"p(Vd|C^d)", func(o *core.Options) { o.WeightedVote = false }},
		{"Not updating alpha", func(o *core.Options) { o.UpdatePrior = false }},
		{"p(C|I(X>phi))", func(o *core.Options) {
			o.UseConfidence = false
			o.BinarizeAt = 0
		}},
	}

	var rows []Table6Row
	for _, v := range variants {
		opt := baseOpt()
		v.mut(&opt)
		res, err := core.Run(s, opt)
		if err != nil {
			return nil, err
		}
		var labeled []metrics.Labeled
		covered := 0
		for _, g := range gold {
			p, ok := res.TripleProb(g.d, g.v)
			if !ok {
				continue
			}
			covered++
			labeled = append(labeled, metrics.Labeled{Pred: p, True: g.isTrue})
		}
		rows = append(rows, Table6Row{
			Name:  v.name,
			SqV:   metrics.SquareLoss(labeled),
			WDev:  metrics.WDev(labeled),
			AUCPR: metrics.AUCPR(labeled),
			Cov:   metrics.Coverage(covered, len(gold)),
		})
	}
	return rows, nil
}
