package experiments

import (
	"testing"

	"kbt/internal/websim"
)

// testCfg is the configuration shared by the integration tests — the
// default laptop corpus, where the paper's qualitative ordering holds.
func testCfg() KVConfig {
	return DefaultKVConfig()
}

func buildTestWorld(t *testing.T, cfg KVConfig) *websim.World {
	t.Helper()
	w, err := BuildKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMethodString(t *testing.T) {
	if SingleLayer.String() != "SingleLayer" ||
		MultiLayer.String() != "MultiLayer" ||
		MultiLayerSM.String() != "MultiLayerSM" {
		t.Error("method names")
	}
	if Method(99).String() == "" {
		t.Error("unknown method should still render")
	}
	r := KVRun{Method: MultiLayer, GoldInit: true}
	if r.Name() != "MultiLayer+" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestGoldLabelsNonEmpty(t *testing.T) {
	cfg := testCfg()
	w := buildTestWorld(t, cfg)
	s, err := compileFor(w, MultiLayer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := goldTripleCount(w, s)
	if n == 0 {
		t.Fatal("no gold labels on the test corpus")
	}
	// Gold init maps should be populated and all within [0,1].
	for wi, a := range goldInitSource(w, s) {
		if a < 0 || a > 1 {
			t.Fatalf("gold source init out of range: %d=%v", wi, a)
		}
	}
	ext := goldInitExtractor(w, s)
	if len(ext) == 0 {
		t.Error("no extractor gold inits")
	}
}

func TestRunKVMethodAllVariants(t *testing.T) {
	cfg := testCfg()
	w := buildTestWorld(t, cfg)
	for _, m := range []Method{SingleLayer, MultiLayer, MultiLayerSM} {
		for _, gi := range []bool{false, true} {
			r, err := RunKVMethod(w, m, gi, cfg)
			if err != nil {
				t.Fatalf("%v gold=%v: %v", m, gi, err)
			}
			if r.Cov <= 0 || r.Cov > 1 {
				t.Errorf("%s: Cov = %v", r.Name(), r.Cov)
			}
			if r.SqV < 0 || r.SqV > 1 {
				t.Errorf("%s: SqV = %v", r.Name(), r.SqV)
			}
			if r.AUCPR < 0 || r.AUCPR > 1 {
				t.Errorf("%s: AUC-PR = %v", r.Name(), r.AUCPR)
			}
			if len(r.Labeled) == 0 {
				t.Errorf("%s: no labelled predictions", r.Name())
			}
		}
	}
}

func TestTable5Shape(t *testing.T) {
	cfg := testCfg()
	w := buildTestWorld(t, cfg)
	runs, err := Table5On(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Fatalf("rows = %d, want 6", len(runs))
	}
	byName := map[string]KVRun{}
	for _, r := range runs {
		byName[r.Name()] = r
	}
	// The paper's headline shape: the full multi-layer method (with
	// split-and-merge) clearly beats the single-layer state of the art.
	if byName["MultiLayerSM"].SqV >= byName["SingleLayer"].SqV {
		t.Errorf("MultiLayerSM SqV %v should beat SingleLayer %v",
			byName["MultiLayerSM"].SqV, byName["SingleLayer"].SqV)
	}
	if byName["MultiLayerSM"].AUCPR <= byName["SingleLayer"].AUCPR {
		t.Errorf("MultiLayerSM AUC-PR %v should beat SingleLayer %v",
			byName["MultiLayerSM"].AUCPR, byName["SingleLayer"].AUCPR)
	}
	if byName["MultiLayerSM+"].SqV >= byName["SingleLayer+"].SqV {
		t.Errorf("MultiLayerSM+ SqV %v should beat SingleLayer+ %v",
			byName["MultiLayerSM+"].SqV, byName["SingleLayer+"].SqV)
	}
	// Gold initialisation must not derail any method.
	for _, m := range []string{"SingleLayer", "MultiLayer", "MultiLayerSM"} {
		if byName[m+"+"].SqV > byName[m].SqV+0.02 {
			t.Errorf("%s+: gold init should not hurt SqV much (%v vs %v)",
				m, byName[m+"+"].SqV, byName[m].SqV)
		}
	}
	// Split-and-merge improves coverage over plain MultiLayer (merging
	// rescues sub-threshold sources and extractor units).
	if byName["MultiLayerSM"].Cov < byName["MultiLayer"].Cov {
		t.Errorf("MultiLayerSM Cov %v should be >= MultiLayer %v",
			byName["MultiLayerSM"].Cov, byName["MultiLayer"].Cov)
	}
}

func TestFig8Fig9FromTable5(t *testing.T) {
	cfg := testCfg()
	w := buildTestWorld(t, cfg)
	runs, err := Table5On(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal := Fig8(runs)
	if len(cal) != 3 {
		t.Fatalf("Fig8 series = %d, want 3 (the + variants)", len(cal))
	}
	for _, s := range cal {
		if len(s.Points) == 0 {
			t.Errorf("series %s empty", s.Name)
		}
		for _, p := range s.Points {
			if p.Predicted < 0 || p.Predicted > 1 || p.Real < 0 || p.Real > 1 {
				t.Errorf("series %s: bad point %+v", s.Name, p)
			}
		}
	}
	pr := Fig9(runs)
	if len(pr) != 3 {
		t.Fatalf("Fig9 series = %d", len(pr))
	}
	for _, s := range pr {
		if len(s.Points) == 0 {
			t.Errorf("series %s empty", s.Name)
		}
	}
}

func TestFig3SmallRun(t *testing.T) {
	rows, err := Fig3(6, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, v := range []float64{r.SingleSqV, r.MultiSqV, r.MultiSqC, r.SingleSqA, r.MultiSqA} {
			if v < 0 || v > 1 {
				t.Errorf("loss out of range in %+v", r)
			}
		}
	}
	// Figure 3's robust findings: SqV drops quickly as extractors are
	// added and the multi-layer model matches or beats the single layer
	// once redundancy exists; multi-layer SqA stays stable (it does not
	// blow up as extractor noise grows).
	first, last := rows[0], rows[len(rows)-1]
	if last.MultiSqV >= first.MultiSqV {
		t.Errorf("MultiSqV should drop with more extractors: %v -> %v",
			first.MultiSqV, last.MultiSqV)
	}
	if last.MultiSqV > last.SingleSqV+0.005 {
		t.Errorf("MultiSqV %v should be <= SingleSqV %v at 6 extractors",
			last.MultiSqV, last.SingleSqV)
	}
	maxA, minA := 0.0, 1.0
	for _, r := range rows {
		if r.MultiSqA > maxA {
			maxA = r.MultiSqA
		}
		if r.MultiSqA < minA {
			minA = r.MultiSqA
		}
	}
	if maxA > 0.25 {
		t.Errorf("MultiSqA should stay bounded, max = %v", maxA)
	}
}

func TestFig4SmallRun(t *testing.T) {
	for _, param := range []Fig4Param{VaryRecall, VaryPrecision, VaryAccuracy, VaryCoverage} {
		rows, err := Fig4(param, 1, 11)
		if err != nil {
			t.Fatalf("%v: %v", param, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%v: no rows", param)
		}
		if param.String() == "?" {
			t.Error("param name")
		}
		for _, r := range rows {
			if r.SqV < 0 || r.SqC < 0 || r.SqA < 0 {
				t.Errorf("%v: negative loss %+v", param, r)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	series, err := Fig5(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		total := 0
		for _, b := range s.Buckets {
			total += b.Count
		}
		if total == 0 {
			t.Errorf("series %s empty", s.Name)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The model should assign low correctness to most type-error triples
	// and high correctness to many KB-true triples (§5.3.2's contrast).
	if res.TypeErrLow <= res.KBTrueLow {
		t.Errorf("type errors should skew low: errLow=%v kbLow=%v",
			res.TypeErrLow, res.KBTrueLow)
	}
	if res.KBTrueHigh <= res.TypeErrHigh {
		t.Errorf("KB-true should skew high: kbHigh=%v errHigh=%v",
			res.KBTrueHigh, res.TypeErrHigh)
	}
}

func TestTable6Shape(t *testing.T) {
	cfg := testCfg()
	w := buildTestWorld(t, cfg)
	rows, err := Table6On(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "MultiLayer+" {
		t.Errorf("first row should be the baseline, got %s", rows[0].Name)
	}
	for _, r := range rows {
		if r.Cov <= 0 || r.AUCPR < 0 || r.SqV < 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	// The MAP ablation should not beat the weighted estimator on AUC-PR
	// (§5.3.3 reports a significant drop).
	base, mapRow := rows[0], rows[1]
	if mapRow.AUCPR > base.AUCPR+0.02 {
		t.Errorf("MAP ablation AUC %v should not exceed baseline %v",
			mapRow.AUCPR, base.AUCPR)
	}
}

func TestTable7Shape(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 0.4
	cols, err := Table7(cfg, 5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("cols = %d", len(cols))
	}
	if cols[0].Strategy != Normal || cols[1].Strategy != SplitOnly || cols[2].Strategy != SplitMerge {
		t.Error("strategy order")
	}
	// Normal iteration is the unit.
	if cols[0].IterTotal < 0.99 || cols[0].IterTotal > 1.01 {
		t.Errorf("normal iteration = %v, want 1.0", cols[0].IterTotal)
	}
	if cols[0].PrepTotal != 0 {
		t.Errorf("normal prep = %v, want 0", cols[0].PrepTotal)
	}
	for _, c := range cols[1:] {
		if c.PrepTotal <= 0 {
			t.Errorf("%v prep = %v, want > 0", c.Strategy, c.PrepTotal)
		}
	}
	// Every stage of every strategy is timed.
	for _, c := range cols {
		for name, v := range map[string]float64{"ExtCorr": c.ExtCorr, "TriplePr": c.TriplePr, "SrcAccu": c.SrcAccu, "ExtQual": c.ExtQual} {
			if v <= 0 {
				t.Errorf("%v %s = %v, want > 0", c.Strategy, name, v)
			}
		}
	}
	for _, s := range []Table7Strategy{Normal, SplitOnly, SplitMerge} {
		if s.String() == "" {
			t.Error("strategy name")
		}
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := testCfg()
	w := buildTestWorld(t, cfg)
	res, err := Fig7On(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReportableSites == 0 {
		t.Fatal("no reportable sites")
	}
	// The simulated web skews accurate: the peak should sit in the upper
	// range and a solid share of sites should clear 0.8 (Figure 7).
	if res.PeakBin.Lo < 0.5 {
		t.Errorf("peak bin at %v, expected high-KBT peak", res.PeakBin.Lo)
	}
	if res.FracAbove08 < 0.2 {
		t.Errorf("share above 0.8 = %v, expected substantial", res.FracAbove08)
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 1.5 // more sites so the corners are populated
	w := buildTestWorld(t, cfg)
	res, err := Fig10On(w, cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no scatter points")
	}
	// Orthogonality: |correlation| should be modest.
	if res.Correlation > 0.6 || res.Correlation < -0.6 {
		t.Errorf("KBT and PageRank too correlated: %v", res.Correlation)
	}
	// The trustworthy-tail corner must be populated: high-KBT sites mostly
	// have unremarkable PageRank.
	if res.HighKBT == 0 {
		t.Fatal("no high-KBT sites")
	}
	if res.HighKBTLowPR == 0 {
		t.Error("no high-KBT/low-PR tail sites found")
	}
}

func TestFig10Sampling(t *testing.T) {
	cfg := testCfg()
	w := buildTestWorld(t, cfg)
	res, err := Fig10On(w, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) > 10 {
		t.Errorf("sampled points = %d, want <= 10", len(res.Points))
	}
}

func TestEval541Shape(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 1.5
	w := buildTestWorld(t, cfg)
	res, err := Eval541On(w, cfg, 100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesEvaluated == 0 {
		t.Fatal("no sites evaluated")
	}
	if res.Trustworthy > res.SitesEvaluated {
		t.Error("trustworthy > evaluated")
	}
	// Most high-KBT sites should genuinely be trustworthy (85/100 in the
	// paper); require a majority here.
	if float64(res.Trustworthy)/float64(res.SitesEvaluated) < 0.5 {
		t.Errorf("trustworthy fraction = %d/%d, expected a majority",
			res.Trustworthy, res.SitesEvaluated)
	}
	if res.TrustworthyWithHighPR > res.Trustworthy {
		t.Error("high-PR trustworthy sites exceed trustworthy count")
	}
}
