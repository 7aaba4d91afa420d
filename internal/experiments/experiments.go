// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment is a function returning structured rows
// or series; cmd/experiments prints them and the repository's bench harness
// benchmarks them. The per-experiment index is cmd/experiments' -exp list.
// The KV experiments read the corpus they are given, which BuildKV
// generates, and leave it as they found it, so one corpus serves them all;
// Table 7 generates its own.
package experiments

import (
	"fmt"

	"kbt/internal/core"
	"kbt/internal/fusion"
	"kbt/internal/granularity"
	"kbt/internal/kb"
	"kbt/internal/metrics"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// Method names the systems compared in Table 5.
type Method int

const (
	SingleLayer Method = iota
	MultiLayer
	MultiLayerSM
)

func (m Method) String() string {
	switch m {
	case SingleLayer:
		return "SingleLayer"
	case MultiLayer:
		return "MultiLayer"
	case MultiLayerSM:
		return "MultiLayerSM"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// KVConfig shapes a Knowledge-Vault-style run.
type KVConfig struct {
	// Scale multiplies the corpus size (1 = the default laptop corpus).
	Scale float64
	// Seed drives corpus generation.
	Seed int64
	// MinSupport is the paper's m: units with fewer observations keep
	// default quality and reduce coverage.
	MinSupport int
	// MaxSize is the paper's M for split-and-merge.
	MaxSize int
	// Workers bounds inference parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultKVConfig mirrors §5.1.2 (m=5, M=10K).
func DefaultKVConfig() KVConfig {
	return KVConfig{Scale: 1, Seed: 1, MinSupport: 5, MaxSize: 10000}
}

// BuildKV generates the simulated KV corpus for a config.
func BuildKV(cfg KVConfig) (*websim.World, error) {
	p := websim.DefaultParams().Scale(cfg.Scale)
	p.Seed = cfg.Seed
	return websim.Generate(p)
}

// goldItems collects, per snapshot data item and candidate value, the gold
// label from the corpus KB (LCWA + type checking). Unlabelled (unknown)
// candidates are skipped, as the paper removes them from the evaluation set.
type goldTriple struct {
	d, v    int
	isTrue  bool
	typeErr bool
}

func goldLabels(w *websim.World, s *triple.Snapshot) []goldTriple {
	var out []goldTriple
	seen := make(map[[2]int]bool)
	for d := range s.Items {
		subj, pred := s.ItemFields(d)
		for _, v := range s.ItemValues[d] {
			k := [2]int{d, v}
			if seen[k] {
				continue
			}
			seen[k] = true
			isTrue, known, typeErr := w.KB.GoldLabel(subj, pred, s.Value(v))
			if !known {
				continue
			}
			out = append(out, goldTriple{d: d, v: v, isTrue: isTrue, typeErr: typeErr})
		}
	}
	return out
}

// KVRun is the outcome of one method on the KV corpus: predictions over the
// gold-labelled data triples plus the quality metrics of Table 5.
type KVRun struct {
	Method   Method
	GoldInit bool

	SqV   float64
	WDev  float64
	AUCPR float64
	Cov   float64

	// Labeled holds the (prediction, gold) pairs over covered triples, used
	// for the calibration (Fig 8) and PR (Fig 9) curves.
	Labeled []metrics.Labeled
}

// Name renders the method with the paper's "+" convention.
func (r KVRun) Name() string {
	if r.GoldInit {
		return r.Method.String() + "+"
	}
	return r.Method.String()
}

// compileFor builds the snapshot each method expects.
func compileFor(w *websim.World, m Method, cfg KVConfig) (*triple.Snapshot, error) {
	switch m {
	case SingleLayer:
		// A provenance is the 4-tuple (extractor, website, predicate,
		// pattern) (§5.1.2); the extractor dimension is unused.
		return triple.TableOf(w.Dataset.Records).Compile(triple.ProvenanceKey, triple.ExtractorKeyName), nil
	case MultiLayer:
		// Finest granularity for both sources and extractors.
		return triple.TableOf(w.Dataset.Records).Compile(triple.SourceKeyFinest, triple.ExtractorKeyFinest), nil
	case MultiLayerSM:
		t := triple.TableOf(w.Dataset.Records)
		src, _, err := granularity.TableSources(t, cfg.MinSupport, cfg.MaxSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ext, _, err := granularity.TableExtractors(t, cfg.MinSupport, cfg.MaxSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return t.Compile(triple.Grouping{Units: src}, triple.Grouping{Units: ext}), nil
	}
	return nil, fmt.Errorf("experiments: unknown method %v", m)
}

// goldInitSource estimates each source unit's accuracy from the gold labels
// of its candidate triples — the "+" initialisation of §5.1.2.
func goldInitSource(w *websim.World, s *triple.Snapshot) map[int]float64 {
	trueCnt := make([]float64, s.NumSources())
	known := make([]float64, s.NumSources())
	for _, tr := range s.Triples {
		subj, pred := s.ItemFields(int(tr.D))
		isTrue, k, typeErr := w.KB.GoldLabel(subj, pred, s.Value(int(tr.V)))
		if !k || typeErr {
			// Type violations are extraction mistakes (§5.3.1); counting
			// them against the source would blame pages for extractor
			// noise — the very conflation the model is built to avoid.
			continue
		}
		known[tr.W]++
		if isTrue {
			trueCnt[tr.W]++
		}
	}
	out := make(map[int]float64)
	for wI := range known {
		if known[wI] >= 3 {
			out[wI] = trueCnt[wI] / known[wI]
		}
	}
	return out
}

// goldInitExtractor estimates each extractor unit's precision from the
// type-check gold signal: a type-violating extraction is certainly an
// extraction mistake (§5.3.1), so 1 minus the unit's type-error rate is an
// externally-grounded precision estimate. Triple truth is deliberately NOT
// used here — a correctly extracted triple can still be false on the page,
// and seeding extraction precision with truth rates conflates the two error
// channels the multi-layer model exists to separate.
func goldInitExtractor(w *websim.World, s *triple.Snapshot) map[int]float64 {
	typeErr := make([]float64, s.NumExtractors())
	total := make([]float64, s.NumExtractors())
	for _, o := range s.Obs {
		subj, pred := s.ItemFields(int(o.D))
		total[o.E]++
		if w.KB.TypeCheck(subj, pred, s.Value(int(o.V))) != kb.NoViolation {
			typeErr[o.E]++
		}
	}
	out := make(map[int]float64)
	for e := range total {
		if total[e] >= 3 {
			out[e] = 1 - typeErr[e]/total[e]
		}
	}
	return out
}

// RunKVMethod executes one method (±gold initialisation) on the corpus and
// evaluates it on the gold standard.
func RunKVMethod(w *websim.World, m Method, goldInit bool, cfg KVConfig) (*KVRun, error) {
	s, err := compileFor(w, m, cfg)
	if err != nil {
		return nil, err
	}
	gold := goldLabels(w, s)
	run := &KVRun{Method: m, GoldInit: goldInit}

	switch m {
	case SingleLayer:
		opt := fusion.DefaultOptions()
		opt.MinSupport = cfg.MinSupport
		opt.Workers = cfg.Workers
		if goldInit {
			opt.InitialAccuracy = goldInitSource(w, s)
		}
		res, err := fusion.Run(s, opt)
		if err != nil {
			return nil, err
		}
		covered := 0
		for _, g := range gold {
			p, ok := res.TripleProb(s, g.d, g.v)
			if !ok {
				continue
			}
			covered++
			run.Labeled = append(run.Labeled, metrics.Labeled{Pred: p, True: g.isTrue})
		}
		run.Cov = metrics.Coverage(covered, len(gold))

	case MultiLayer, MultiLayerSM:
		opt := core.DefaultOptions()
		opt.MinSourceSupport = cfg.MinSupport
		opt.MinExtractorSupport = cfg.MinSupport
		opt.Workers = cfg.Workers
		if goldInit {
			opt.InitialSourceAccuracy = goldInitSource(w, s)
			opt.InitialExtractorPrecision = goldInitExtractor(w, s)
		}
		res, err := core.Run(s, opt)
		if err != nil {
			return nil, err
		}
		covered := 0
		for _, g := range gold {
			p, ok := res.TripleProb(g.d, g.v)
			if !ok {
				continue
			}
			covered++
			run.Labeled = append(run.Labeled, metrics.Labeled{Pred: p, True: g.isTrue})
		}
		run.Cov = metrics.Coverage(covered, len(gold))
	}

	run.SqV = metrics.SquareLoss(run.Labeled)
	run.WDev = metrics.WDev(run.Labeled)
	run.AUCPR = metrics.AUCPR(run.Labeled)
	return run, nil
}
