package experiments

import (
	"kbt/internal/core"
	"kbt/internal/kb"
	"kbt/internal/metrics"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// Table5 runs all six method variants of Table 5 on the simulated KV corpus
// and reports SqV, WDev, AUC-PR, and Cov for each.
func Table5(w *websim.World, cfg KVConfig) ([]KVRun, error) {
	var runs []KVRun
	for _, goldInit := range []bool{false, true} {
		for _, m := range []Method{SingleLayer, MultiLayer, MultiLayerSM} {
			r, err := RunKVMethod(w, m, goldInit, cfg)
			if err != nil {
				return nil, err
			}
			runs = append(runs, *r)
		}
	}
	return runs, nil
}

// Fig5Series is one curve of Figure 5: the size distribution of extracted
// triples per URL or per extraction pattern.
type Fig5Series struct {
	Name    string
	Buckets []metrics.SizeBucket
}

// Fig5 reproduces Figure 5 on the simulated KV corpus: the long-tail
// distribution of distinct extracted triples per URL and per extraction
// pattern.
func Fig5(w *websim.World) []Fig5Series {
	perURL := map[string]map[string]bool{}
	perPattern := map[string]map[string]bool{}
	for _, r := range w.Dataset.Records {
		tk := r.TripleKey()
		if perURL[r.Page] == nil {
			perURL[r.Page] = map[string]bool{}
		}
		perURL[r.Page][tk] = true
		pat := r.Extractor + "/" + r.Pattern
		if perPattern[pat] == nil {
			perPattern[pat] = map[string]bool{}
		}
		perPattern[pat][tk] = true
	}
	sizesOf := func(m map[string]map[string]bool) []int {
		out := make([]int, 0, len(m))
		for _, set := range m {
			out = append(out, len(set))
		}
		return out
	}
	return []Fig5Series{
		{Name: "#Triple/URL", Buckets: metrics.SizeDistribution(sizesOf(perURL))},
		{Name: "#Triple/Ext_pattern", Buckets: metrics.SizeDistribution(sizesOf(perPattern))},
	}
}

// Fig6Result holds Figure 6: the distribution of predicted extraction
// correctness for type-error triples versus KB-true triples under
// MULTILAYER+.
type Fig6Result struct {
	// TypeError and KBTrue are 20-bin histograms over [0,1] of p(C=1|X),
	// normalised to fractions.
	TypeError, KBTrue []metrics.Bin
	// Shares of each population below 0.1 and above 0.7, the summary
	// numbers quoted in §5.3.2.
	TypeErrLow, TypeErrHigh float64
	KBTrueLow, KBTrueHigh   float64
}

// Fig6 reproduces Figure 6 on the simulated KV corpus.
func Fig6(w *websim.World, cfg KVConfig) (*Fig6Result, error) {
	s, err := compileFor(w, MultiLayer, cfg)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions()
	opt.MinSourceSupport = cfg.MinSupport
	opt.MinExtractorSupport = cfg.MinSupport
	opt.Workers = cfg.Workers
	opt.InitialSourceAccuracy = goldInitSource(w, s)
	opt.InitialExtractorPrecision = goldInitExtractor(w, s)
	res, err := core.Run(s, opt)
	if err != nil {
		return nil, err
	}

	var typeErrPreds, kbTruePreds []float64
	for ti, tr := range s.Triples {
		subj, pred := s.ItemFields(int(tr.D))
		obj := s.Value(int(tr.V))
		if w.KB.TypeCheck(subj, pred, obj) != 0 {
			typeErrPreds = append(typeErrPreds, res.CProbAt(ti))
			continue
		}
		if w.KB.LCWA(subj, pred, obj) == kb.True {
			kbTruePreds = append(kbTruePreds, res.CProbAt(ti))
		}
	}
	out := &Fig6Result{
		TypeError: metrics.Histogram(typeErrPreds, 0, 1, 0.05),
		KBTrue:    metrics.Histogram(kbTruePreds, 0, 1, 0.05),
	}
	share := func(preds []float64, lo, hi float64) float64 {
		if len(preds) == 0 {
			return 0
		}
		n := 0
		for _, p := range preds {
			if p >= lo && p < hi {
				n++
			}
		}
		return float64(n) / float64(len(preds))
	}
	out.TypeErrLow = share(typeErrPreds, 0, 0.1)
	out.TypeErrHigh = share(typeErrPreds, 0.7, 1.01)
	out.KBTrueLow = share(kbTruePreds, 0, 0.1)
	out.KBTrueHigh = share(kbTruePreds, 0.7, 1.01)
	return out, nil
}

// Fig8Series is one method's calibration curve (Figure 8).
type Fig8Series struct {
	Name   string
	Points []metrics.CalibrationPoint
}

// Fig8 derives the calibration curves of the "+" methods from Table 5 runs.
func Fig8(runs []KVRun) []Fig8Series {
	var out []Fig8Series
	for _, r := range runs {
		if !r.GoldInit {
			continue
		}
		out = append(out, Fig8Series{
			Name:   r.Name(),
			Points: metrics.CalibrationCurve(r.Labeled),
		})
	}
	return out
}

// Fig9Series is one method's PR curve (Figure 9).
type Fig9Series struct {
	Name   string
	Points []metrics.PRPoint
}

// Fig9 derives the PR curves of the "+" methods from Table 5 runs.
func Fig9(runs []KVRun) []Fig9Series {
	var out []Fig9Series
	for _, r := range runs {
		if !r.GoldInit {
			continue
		}
		out = append(out, Fig9Series{
			Name:   r.Name(),
			Points: metrics.PRCurve(r.Labeled),
		})
	}
	return out
}

// goldTripleCount is exposed for tests.
func goldTripleCount(w *websim.World, s *triple.Snapshot) int {
	return len(goldLabels(w, s))
}
