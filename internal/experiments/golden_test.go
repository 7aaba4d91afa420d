package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"kbt/internal/core"
	"kbt/internal/engine"
	"kbt/internal/websim"
)

// updateGolden rewrites testdata/quality_golden.json: the values at seed 1
// and, per metric, a tolerance from the spread over seeds 1–3. Only a change
// that says why its numbers move may run it.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quality_golden.json from seeds 1-3")

const goldenPath = "testdata/quality_golden.json"

// goldenSeeds are the corpus seeds the tolerances are measured over; the
// first is the one the golden values are recorded at.
var goldenSeeds = []int64{1, 2, 3}

// goldenMetric is one recorded number with its tolerance.
type goldenMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Tol   float64 `json:"tol"`
	// floor is the least tolerance writeGolden records: one for a count,
	// 1e-4 for a rate — a metric that happens not to vary over three seeds
	// still gets a nonzero envelope.
	floor float64
}

// qualityMetrics measures the quality envelope at one seed, in a fixed order:
// the absolute SqV, WDev, AUC-PR and Cov of Table 5's six rows and Table 6's
// four at testCfg(); Eval541's counts at TestEval541Shape's scale; and, on
// one websim stream fed through the incremental engine in batches, how far
// the warm KBT lands from a batch run on the same corpus.
func qualityMetrics(t *testing.T, seed int64) []goldenMetric {
	t.Helper()
	var out []goldenMetric
	add := func(name string, v float64) { out = append(out, goldenMetric{Name: name, Value: v, floor: 1e-4}) }
	count := func(name string, n int) { out = append(out, goldenMetric{Name: name, Value: float64(n), floor: 1}) }

	cfg := testCfg()
	cfg.Seed = seed
	w := buildTestWorld(t, cfg)
	runs, err := Table5(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		add("table5/"+r.Name()+"/SqV", r.SqV)
		add("table5/"+r.Name()+"/WDev", r.WDev)
		add("table5/"+r.Name()+"/AUCPR", r.AUCPR)
		add("table5/"+r.Name()+"/Cov", r.Cov)
	}
	rows, err := Table6(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		add("table6/"+r.Name+"/SqV", r.SqV)
		add("table6/"+r.Name+"/WDev", r.WDev)
		add("table6/"+r.Name+"/AUCPR", r.AUCPR)
		add("table6/"+r.Name+"/Cov", r.Cov)
	}

	ecfg := cfg
	ecfg.Scale = 1.5
	ev, err := Eval541(buildTestWorld(t, ecfg), ecfg, 100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	count("eval541/SitesEvaluated", ev.SitesEvaluated)
	count("eval541/Trustworthy", ev.Trustworthy)
	count("eval541/FailTripleCorrectness", ev.FailTripleCorrectness)
	count("eval541/FailExtractionCorrectness", ev.FailExtractionCorrectness)
	count("eval541/FailTopicRelevance", ev.FailTopicRelevance)
	count("eval541/FailNonTrivial", ev.FailNonTrivial)
	count("eval541/TrustworthyWithHighPR", ev.TrustworthyWithHighPR)

	maxD, meanD, far := warmBatchGap(t, seed)
	add("stream/max|KBTwarm-KBTbatch|", maxD)
	add("stream/mean|KBTwarm-KBTbatch|", meanD)
	count("stream/sources>0.1apart", far)
	return out
}

// warmBatchGap feeds a websim corpus to the incremental engine in ten
// batches, refreshing after each, and compares the final generation's KBT
// with core.Run on the same snapshot: the max and mean |KBT_warm − KBT_batch|
// over the sources the batch run reports, and how many are more than 0.1
// apart.
func warmBatchGap(t *testing.T, seed int64) (maxD, meanD float64, far int) {
	t.Helper()
	p := websim.DefaultParams().Scale(0.3)
	p.Seed = seed
	world, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := world.Dataset.Records
	opt := engine.DefaultOptions()
	opt.Core.MinSourceSupport = 3
	opt.Core.MinExtractorSupport = 3
	eng := engine.New(opt)
	const batches = 10
	var res *engine.Result
	for b := range batches {
		if err := eng.Ingest(recs[b*len(recs)/batches : (b+1)*len(recs)/batches]...); err != nil {
			t.Fatal(err)
		}
		if res, err = eng.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := core.Run(res.Snapshot, opt.Core)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for w := range res.Snapshot.NumSources() {
		want, ok := batch.KBT(w, MinKBTTriples)
		if !ok {
			continue
		}
		got, _ := res.Inference.KBT(w, MinKBTTriples)
		d := math.Abs(got - want)
		maxD = max(maxD, d)
		meanD += d
		n++
		if d > 0.1 {
			far++
		}
	}
	if n > 0 {
		meanD /= float64(n)
	}
	return maxD, meanD, far
}

// TestQualityGolden pins the paper's numbers, not just their order: every
// metric of qualityMetrics at seed 1 must sit within its recorded tolerance
// of testdata/quality_golden.json. Run with -v for the table.
func TestQualityGolden(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenMetric
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	got := qualityMetrics(t, goldenSeeds[0])
	if len(got) != len(golden) {
		t.Fatalf("measured %d metrics, the golden file has %d", len(got), len(golden))
	}
	t.Logf("%-44s %12s %12s %10s %10s", "metric", "golden", "got", "|Δ|", "tol")
	for i, g := range golden {
		m := got[i]
		if m.Name != g.Name {
			t.Fatalf("metric %d is %q, the golden file has %q", i, m.Name, g.Name)
		}
		d := math.Abs(m.Value - g.Value)
		mark := ""
		if !(d <= g.Tol) {
			mark = "  OUT"
			t.Errorf("%s = %.6g, golden %.6g ± %.3g", g.Name, m.Value, g.Value, g.Tol)
		}
		t.Logf("%-44s %12.6g %12.6g %10.3g %10.3g%s", g.Name, g.Value, m.Value, d, g.Tol, mark)
	}
}

// writeGolden records the seed-1 values, each with a tolerance of half its
// range over goldenSeeds, and at least its floor.
func writeGolden(t *testing.T) {
	t.Helper()
	var bySeed [][]goldenMetric
	for _, seed := range goldenSeeds {
		bySeed = append(bySeed, qualityMetrics(t, seed))
	}
	out := bySeed[0]
	for i := range out {
		lo, hi := out[i].Value, out[i].Value
		for _, ms := range bySeed[1:] {
			lo, hi = min(lo, ms[i].Value), max(hi, ms[i].Value)
		}
		out[i].Tol = max((hi-lo)/2, out[i].floor)
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d metrics)\n", goldenPath, len(out))
}
