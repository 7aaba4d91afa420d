package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"kbt/internal/stats"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// smallWorld builds a corpus with two reliable extractors and one noisy one
// over sources of varying accuracy, with multiple items per source.
func smallWorld() (*triple.Dataset, []string) {
	d := triple.NewDataset()
	items := []string{"i0", "i1", "i2", "i3", "i4", "i5"}
	truth := map[string]string{}
	for _, it := range items {
		truth[it] = "true-" + it
		d.MarkTrue(it, "p", truth[it])
	}
	provide := func(w string, goodItems, badItems []string) {
		for _, it := range goodItems {
			v := truth[it]
			d.MarkProvided(w, w+"/1", it, "p", v)
			for _, e := range []string{"E1", "E2"} {
				d.Add(triple.Record{Extractor: e, Pattern: "p", Website: w, Page: w + "/1",
					Subject: it, Predicate: "p", Object: v})
			}
		}
		for _, it := range badItems {
			v := "false-" + it
			d.MarkProvided(w, w+"/1", it, "p", v)
			for _, e := range []string{"E1", "E2"} {
				d.Add(triple.Record{Extractor: e, Pattern: "p", Website: w, Page: w + "/1",
					Subject: it, Predicate: "p", Object: v})
			}
		}
	}
	provide("good1", items, nil)
	provide("good2", items, nil)
	provide("good3", items[:5], items[5:])
	provide("bad1", items[:1], items[1:])
	// Noisy extractor E3 hallucinates wrong values on the good sources.
	for _, it := range items[:3] {
		d.Add(triple.Record{Extractor: "E3", Pattern: "p", Website: "good1", Page: "good1/1",
			Subject: it, Predicate: "p", Object: "halluc-" + it})
	}
	return d, items
}

func compileSmall(t *testing.T) *triple.Snapshot {
	t.Helper()
	d, _ := smallWorld()
	return d.Compile(triple.CompileOptions{
		SourceKey:    triple.SourceKeyWebsite,
		ExtractorKey: triple.ExtractorKeyName,
	})
}

func TestRunValidation(t *testing.T) {
	s := compileSmall(t)
	mk := func(mut func(*Options)) Options {
		o := DefaultOptions()
		mut(&o)
		return o
	}
	bad := []Options{
		mk(func(o *Options) { o.N = 0 }),
		mk(func(o *Options) { o.Gamma = 0 }),
		mk(func(o *Options) { o.Gamma = 1 }),
		mk(func(o *Options) { o.Alpha = 0 }),
		mk(func(o *Options) { o.MaxIter = 0 }),
		mk(func(o *Options) { o.InitAccuracy = 1 }),
		mk(func(o *Options) { o.InitRecall = 0 }),
		mk(func(o *Options) { o.InitQ = 1 }),
	}
	for i, o := range bad {
		if _, err := Run(s, o); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
	if _, err := Run(nil, DefaultOptions()); err == nil {
		t.Error("nil snapshot must error")
	}
}

func TestGoodSourcesOutrankBadSources(t *testing.T) {
	s := compileSmall(t)
	res, err := Run(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	aGood := res.AAt(s.SourceID("good1"))
	aBad := res.AAt(s.SourceID("bad1"))
	if aGood <= aBad {
		t.Fatalf("good source KBT %v should exceed bad source %v", aGood, aBad)
	}
	if aGood < 0.7 {
		t.Errorf("good source KBT = %v, want high", aGood)
	}
}

func TestHallucinationsBlamedOnExtractorNotSource(t *testing.T) {
	s := compileSmall(t)
	res, err := Run(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// E3 only produced unsupported values; its precision must drop below
	// the reliable extractors'.
	pE1 := res.PAt(s.ExtractorID("E1"))
	pE3 := res.PAt(s.ExtractorID("E3"))
	if pE3 >= pE1 {
		t.Fatalf("noisy extractor precision %v should be below %v", pE3, pE1)
	}
	// good1 (the hallucination target) must stay comparable to good2.
	a1 := res.AAt(s.SourceID("good1"))
	a2 := res.AAt(s.SourceID("good2"))
	if math.Abs(a1-a2) > 0.15 {
		t.Errorf("hallucinations should not tank good1: %v vs good2 %v", a1, a2)
	}
	// And the hallucinated triples must get low extraction correctness.
	d0 := s.ItemID("i0", "p")
	ti := s.TripleIndex(s.SourceID("good1"), d0, s.ValueID("halluc-i0"))
	if ti < 0 {
		t.Fatal("missing hallucinated candidate")
	}
	if res.CProbAt(ti) > 0.5 {
		t.Errorf("hallucinated triple p(C)=%v, want low", res.CProbAt(ti))
	}
}

func TestProbabilityMassPerItem(t *testing.T) {
	s := compileSmall(t)
	res, err := Run(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for d := range s.Items {
		if !res.CoveredItemAt(d) {
			continue
		}
		var total float64
		for _, p := range res.ValueRow(d) {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("item %d: bad probability %v", d, p)
			}
			total += p
		}
		total += res.RestMassAt(d)
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("item %d: mass %v", d, total)
		}
	}
	for ti := 0; ti < res.NumTriples(); ti++ {
		if c := res.CProbAt(ti); c < 0 || c > 1 || math.IsNaN(c) {
			t.Fatalf("triple %d: bad cprob %v", ti, c)
		}
	}
	for w := 0; w < res.NumSources(); w++ {
		a := res.AAt(w)
		if a <= 0 || a >= 1 {
			t.Fatalf("source %d accuracy %v not clamped", w, a)
		}
	}
}

func TestMinSupportExclusionAndKBTGate(t *testing.T) {
	d, _ := smallWorld()
	// A tiny source with one triple.
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "tiny", Page: "tiny/1",
		Subject: "solo", Predicate: "p", Object: "v"})
	s := d.Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	opt := DefaultOptions()
	opt.MinSourceSupport = 3
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	tiny := s.SourceID("tiny")
	if res.SourceIncluded[tiny] {
		t.Error("tiny source should be excluded")
	}
	if res.AAt(tiny) != opt.InitAccuracy {
		t.Error("excluded source accuracy must stay at default")
	}
	if _, ok := res.KBT(tiny, 5); ok {
		t.Error("excluded source must not be KBT-reportable")
	}
	solo := s.ItemID("solo", "p")
	if res.CoveredItemAt(solo) {
		t.Error("item provided only by excluded source must be uncovered")
	}
	// A healthy source is reportable.
	good := s.SourceID("good1")
	if _, ok := res.KBT(good, 5); !ok {
		t.Error("good1 should be KBT-reportable")
	}
	if _, ok := res.KBT(good, 1e9); ok {
		t.Error("threshold above expected triples must gate reporting")
	}
	if _, ok := res.KBT(-1, 0); ok {
		t.Error("out-of-range source id")
	}
}

func TestExtractorMinSupport(t *testing.T) {
	d, _ := smallWorld()
	d.Add(triple.Record{Extractor: "Eonce", Pattern: "p", Website: "good1", Page: "good1/1",
		Subject: "i0", Predicate: "p", Object: "weird"})
	s := d.Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	opt := DefaultOptions()
	opt.MinExtractorSupport = 2
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	eo := s.ExtractorID("Eonce")
	if res.ExtractorIncluded[eo] {
		t.Error("single-observation extractor should be excluded")
	}
	// The triple observed only by the excluded extractor is uncovered.
	ti := s.TripleIndex(s.SourceID("good1"), s.ItemID("i0", "p"), s.ValueID("weird"))
	if res.CoveredTripleAt(ti) {
		t.Error("triple seen only by excluded extractor must be uncovered")
	}
}

func TestWeightedVoteVsMAP(t *testing.T) {
	// An uncertain extraction (confidence-driven cProb near 0.5) influences
	// the weighted estimator but is an all-or-nothing vote under MAP;
	// the two must differ on ambiguous data (Table 6 row 1).
	s := compileSmall(t)
	optW := DefaultOptions()
	resW, err := Run(s, optW)
	if err != nil {
		t.Fatal(err)
	}
	optM := DefaultOptions()
	optM.WeightedVote = false
	resM, err := Run(s, optM)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for d := range s.Items {
		for k := range resW.ValueRow(d) {
			diff += math.Abs(resW.ValueRow(d)[k] - resM.ValueRow(d)[k])
		}
	}
	if diff == 0 {
		t.Error("weighted and MAP estimators should differ on noisy data")
	}
}

func TestConfidenceSoftEvidenceExample34(t *testing.T) {
	// Example 3.4: E1 extracts T from W3/W4 with confidence .85, E3 with .5.
	// Thresholding at .7 discards E3's extractions and leaves USA and Kenya
	// tied 2-2; soft evidence keeps USA ahead.
	d := triple.NewDataset()
	add := func(e, w, v string, conf float64) {
		d.Add(triple.Record{Extractor: e, Pattern: "p", Website: w, Page: w + "/1",
			Subject: "Obama", Predicate: "nationality", Object: v, Confidence: conf})
	}
	for _, w := range []string{"W1", "W2"} {
		add("E1", w, "USA", 1)
		add("E3", w, "USA", 1)
	}
	for _, w := range []string{"W3", "W4"} {
		add("E1", w, "USA", 0.85)
		add("E3", w, "USA", 0.5)
	}
	for _, w := range []string{"W5", "W6"} {
		add("E1", w, "Kenya", 1)
		add("E3", w, "Kenya", 1)
	}
	s := d.Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})

	soft := DefaultOptions()
	soft.FreezeSources = true
	soft.FreezeExtractors = true
	soft.Tol = 0
	resSoft, err := Run(s, soft)
	if err != nil {
		t.Fatal(err)
	}
	hard := soft
	hard.UseConfidence = false
	hard.BinarizeAt = 0.7
	resHard, err := Run(s, hard)
	if err != nil {
		t.Fatal(err)
	}
	di := s.ItemID("Obama", "nationality")
	vUSA, vKenya := s.ValueID("USA"), s.ValueID("Kenya")
	pU, _ := resSoft.TripleProb(di, vUSA)
	pK, _ := resSoft.TripleProb(di, vKenya)
	if pU <= pK {
		t.Errorf("soft evidence should prefer USA: %v vs %v", pU, pK)
	}
	hU, _ := resHard.TripleProb(di, vUSA)
	hK, _ := resHard.TripleProb(di, vKenya)
	// After thresholding, W3/W4 lose their strongest support; the USA lead
	// must shrink (the paper's example has them exactly tied).
	if (hU - hK) >= (pU - pK) {
		t.Errorf("thresholding should shrink USA's lead: soft %v hard %v", pU-pK, hU-hK)
	}
}

func TestScopeAllVsAttempted(t *testing.T) {
	// An extractor that never touched source w should count as absence
	// evidence under ScopeAllExtractors but not under ScopeAttemptedSources.
	d := triple.NewDataset()
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w1", Page: "w1/1",
		Subject: "s", Predicate: "p", Object: "v"})
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w1", Page: "w1/1",
		Subject: "s2", Predicate: "p", Object: "v2"})
	// E2 works only on w2.
	d.Add(triple.Record{Extractor: "E2", Pattern: "p", Website: "w2", Page: "w2/1",
		Subject: "s", Predicate: "p", Object: "v"})
	s := d.Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	base := DefaultOptions()
	base.FreezeSources = true
	base.FreezeExtractors = true
	base.MaxIter = 1
	attempted := base
	attempted.Scope = ScopeAttemptedSources
	all := base
	all.Scope = ScopeAllExtractors
	rAtt, err := Run(s, attempted)
	if err != nil {
		t.Fatal(err)
	}
	rAll, err := Run(s, all)
	if err != nil {
		t.Fatal(err)
	}
	ti := s.TripleIndex(s.SourceID("w1"), s.ItemID("s", "p"), s.ValueID("v"))
	// Under ScopeAll, E2's absence vote (negative) lowers the posterior.
	if !(rAll.CProbAt(ti) < rAtt.CProbAt(ti)) {
		t.Errorf("scope-all %v should be below scope-attempted %v",
			rAll.CProbAt(ti), rAtt.CProbAt(ti))
	}
}

// compileBlocks builds a corpus for Stage IV's block reduction: extractor
// "wide" reads every provided triple and hallucinates some more — well over
// three obsBlocks of observations — while "thin" reads every eighth item and
// fits one block. Confidences and source accuracies vary, so the terms are not
// exactly representable and a float reduction's order would show in the bits.
func compileBlocks(t *testing.T) *triple.Snapshot {
	t.Helper()
	const nItems = 3*obsBlock/2 + 500
	d := triple.NewDataset()
	add := func(e string, w, i int, obj string) {
		site := fmt.Sprintf("site%02d.com", w)
		d.Add(triple.Record{Extractor: e, Website: site, Page: site + "/x",
			Subject: fmt.Sprintf("S%05d", i), Predicate: fmt.Sprintf("p%d", i%5), Object: obj,
			Confidence: float64(i%17+3) / 20})
	}
	for i := 0; i < nItems; i++ {
		w1, w2, second := i%40, (i*7+3)%40+40, "T"
		if i%3 == 0 {
			second = "F" // the second tier of sites errs on a third of its items
		}
		add("wide", w1, i, "T")
		add("wide", w2, i, second)
		if i%9 == 0 {
			add("wide", w1, i, "H")
		}
		if i%8 == 0 {
			add("thin", w1, i, "T")
		}
	}
	s := d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	wide, thin := len(s.ObsOfExtractor[s.ExtractorID("wide")]), len(s.ObsOfExtractor[s.ExtractorID("thin")])
	if wide <= 3*obsBlock || thin > obsBlock {
		t.Fatalf("fixture has %d / %d observations, want more than three blocks of %d / at most one", wide, thin, obsBlock)
	}
	return s
}

// TestParallelMatchesSerial: every estimate is bit-identical at any worker
// count — also where one extractor's Stage IV sum spans several blocks that
// run concurrently, which holds because the partials are exact sums.
func TestParallelMatchesSerial(t *testing.T) {
	for name, s := range map[string]*triple.Snapshot{"small": compileSmall(t), "blocks": compileBlocks(t)} {
		opt1 := DefaultOptions()
		opt1.Workers = 1
		optN := DefaultOptions()
		optN.Workers = 8
		r1, err := Run(s, opt1)
		if err != nil {
			t.Fatal(err)
		}
		rN, err := Run(s, optN)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < r1.NumSources(); w++ {
			if r1.AAt(w) != rN.AAt(w) {
				t.Fatalf("%s: A[%d] differs across worker counts: %v vs %v", name, w, r1.AAt(w), rN.AAt(w))
			}
		}
		for e := 0; e < r1.NumExtractors(); e++ {
			if r1.PAt(e) != rN.PAt(e) || r1.RAt(e) != rN.RAt(e) || r1.QAt(e) != rN.QAt(e) {
				t.Fatalf("%s: P/R/Q[%d] differ across worker counts: %v/%v/%v vs %v/%v/%v", name, e,
					r1.PAt(e), r1.RAt(e), r1.QAt(e), rN.PAt(e), rN.RAt(e), rN.QAt(e))
			}
		}
		for ti := 0; ti < r1.NumTriples(); ti++ {
			if r1.CProbAt(ti) != rN.CProbAt(ti) {
				t.Fatalf("%s: CProb[%d] differs: %v vs %v", name, ti, r1.CProbAt(ti), rN.CProbAt(ti))
			}
		}
	}
}

// TestParallelMatchesSerialOneBlockPlainSum: an extractor whose observations fit one
// block gets exactly the straight serial sums of Eqs 29-33, bit for bit — the
// block reduction changes nothing for it.
func TestParallelMatchesSerialOneBlockPlainSum(t *testing.T) {
	s := compileBlocks(t)
	opt := DefaultOptions()
	opt.Workers = 8
	em, err := NewEM(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := em.st
	cProb := make([]float64, len(s.Triples))
	valueProb := make([][]float64, len(s.Items))
	em.Bootstrap(cProb)
	em.BeginIteration(true)
	em.EStepTriples(cProb, nil, 0)
	em.EStepItems(cProb, valueProb, make([]float64, len(s.Items)), make([]bool, len(s.Items)), nil, 0)

	e := s.ExtractorID("thin")
	var num, pDen, rDen stats.Sum
	for _, oi := range s.ObsOfExtractor[e] {
		num = num.Add(st.obsNumContrib(int(oi), int(st.tripleOfObs[oi]), e, st.conf[oi], cProb))
		pDen = pDen.Add(st.conf[oi])
	}
	cellC := make([]stats.Sum, st.numCells)
	for ti := range s.Triples {
		c := st.cellOfTriple[ti]
		cellC[c] = cellC[c].Add(cProb[ti])
	}
	for _, c := range st.cellsOfExtractor[e] {
		rDen = rDen.AddSum(cellC[c])
	}
	k := opt.Smoothing
	wantP := stats.ClampProb((num.Float() + k/2) / (pDen.Float() + k))
	wantR := stats.ClampProb((num.Float() + k/2) / (rDen.Float() + k))

	em.MStepExtractors(cProb, nil)
	if st.p[e] != wantP || st.r[e] != wantR {
		t.Fatalf("one-block extractor: P/R = %v/%v, straight serial sums give %v/%v", st.p[e], st.r[e], wantP, wantR)
	}
}

// finestWeb is the websim corpus of the end-to-end batch job (scale 6, world
// seed 1) compiled at the finest granularity, where nearly every cell has an
// attempt set of its own; built once per test binary.
var finestWeb = sync.OnceValues(func() (*triple.Snapshot, error) {
	p := websim.DefaultParams().Scale(6)
	p.Seed = 1
	w, err := websim.Generate(p)
	if err != nil {
		return nil, err
	}
	return w.Dataset.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyFinest, ExtractorKey: triple.ExtractorKeyFinest}), nil
})

// TestCorrectnessReductionMatchesSerial: Stage IV's whole-pass reduction of
// the correctness masses — per-worker partials per attempt set over
// contiguous triple ranges, merged after the join — equals a serial sum of
// every triple's covered-gated posterior into its set, bit for bit, at the
// default worker count (CI runs it at -cpu 1,2,4) and at four workers, and
// each extractor's recall denominator equals the straight sum over its
// attempted cells. The corpus has about as many sets as cells, the reduction's
// worst case, and once warm its per-worker buffers allocate nothing: a call
// allocates a small fraction of one buffer.
func TestCorrectnessReductionMatchesSerial(t *testing.T) {
	s, err := finestWeb()
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.IncrementalAggregates = true
	em, err := NewEM(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := em.st
	nSets := len(st.setC)
	if nSets*100 < st.numCells*99 || len(s.Triples) < 4*obsBlock {
		t.Fatalf("fixture: %d sets over %d cells and %d triples, want about one set a cell and four blocks", nSets, st.numCells, len(s.Triples))
	}
	rng := rand.New(rand.NewSource(1))
	cProb := make([]float64, len(s.Triples))
	for ti := range cProb {
		cProb[ti] = rng.Float64()
	}
	want := make([]stats.Sum, nSets)
	cellC := make([]stats.Sum, st.numCells)
	for ti, c := range st.cellOfTriple {
		if st.coveredTriple[ti] {
			want[st.setOfCell[c]] = want[st.setOfCell[c]].Add(cProb[ti])
			cellC[c] = cellC[c].Add(cProb[ti])
		}
	}
	em.MStepExtractors(cProb, nil)
	if !slices.Equal(st.setC, want) {
		t.Fatal("Stage IV's correctness masses differ from the serial per-triple sums")
	}
	for e, cells := range st.cellsOfExtractor {
		var rDen stats.Sum
		for _, c := range cells {
			rDen = rDen.AddSum(cellC[c])
		}
		if st.extIncluded[e] && st.agg.rDen[e] != rDen {
			t.Fatalf("extractor %d: recall denominator %v, the sum over its cells %v", e, st.agg.rDen[e].Float(), rDen.Float())
		}
	}

	st.opt.Workers = 4
	st.sumCorrectness(cProb) // grows the partial buffers
	if !slices.Equal(st.setC, want) {
		t.Fatal("at four workers, the correctness masses differ from the serial per-triple sums")
	}
	const calls = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range calls {
		st.sumCorrectness(cProb)
	}
	runtime.ReadMemStats(&m1)
	if perCall, buf := (m1.TotalAlloc-m0.TotalAlloc)/calls, uint64(nSets)*16; perCall > buf/64 {
		t.Fatalf("a warm reduction allocates %d bytes a call, against %d bytes a buffer", perCall, buf)
	}
}

// TestTakeMovedItems: the E-steps mark an item for the copy tracker when its
// value row is allocated — so a first pass lists every item, even one with no
// value at 0.5 — and otherwise only where a gate moves: a pass over unchanged
// parameters lists none, a triple whose stored p(C|X) sits on the other side
// of 0.5 lists its item through Stage I, and so does a value posterior through
// Stage II. A take lists ascending and clears what it lists.
func TestTakeMovedItems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := (&triple.Dataset{Records: driftRecords(rng, 12, 400)}).Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	em, err := NewEM(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nItem := len(s.Items)
	cProb, valueProb := make([]float64, len(s.Triples)), make([][]float64, nItem)
	restMass, covered := make([]float64, nItem), make([]bool, nItem)
	pass := func() []int {
		em.EStepTriples(cProb, nil, 2)
		em.EStepItems(cProb, valueProb, restMass, covered, nil, 2)
		return em.TakeMovedItems(nil)
	}
	em.Bootstrap(cProb)
	em.BeginIteration(true)
	if got := pass(); len(got) != nItem || !slices.IsSorted(got) {
		t.Fatalf("first pass listed %d items (ascending: %v), want all %d", len(got), slices.IsSorted(got), nItem)
	}
	if got := em.TakeMovedItems(nil); len(got) != 0 {
		t.Fatalf("a second take listed %d items", len(got))
	}
	low := slices.IndexFunc(valueProb, func(row []float64) bool { return !slices.ContainsFunc(row, func(p float64) bool { return p >= 0.5 }) })
	if low < 0 {
		t.Fatal("fixture: every item has a value at 0.5 or above")
	}
	if got := pass(); len(got) != 0 {
		t.Fatalf("a pass over unchanged parameters listed %v", got)
	}

	ti := s.TriplesOfItem[7][0]
	cProb[ti] = 1 - cProb[ti]
	if cProb[ti] == 0.5 {
		t.Fatal("fixture: p(C|X) at 0.5")
	}
	if got := pass(); !slices.Equal(got, []int{7}) {
		t.Fatalf("a stored p(C|X) on the wrong side of 0.5 listed %v, want [7]", got)
	}
	d := slices.IndexFunc(valueProb, func(row []float64) bool { return len(row) > 1 })
	valueProb[d][0] = 1 - valueProb[d][0]
	if valueProb[d][0] == 0.5 {
		t.Fatal("fixture: p(V) at 0.5")
	}
	if got := pass(); !slices.Equal(got, []int{d}) {
		t.Fatalf("a stored value posterior on the wrong side of 0.5 listed %v, want [%d]", got, d)
	}
}

func TestFreezeOptions(t *testing.T) {
	s := compileSmall(t)
	opt := DefaultOptions()
	opt.FreezeSources = true
	opt.FreezeExtractors = true
	opt.Tol = 0
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < res.NumSources(); w++ {
		a := res.AAt(w)
		if a != opt.InitAccuracy {
			t.Fatalf("frozen source accuracy moved: %v", a)
		}
	}
	for e := 0; e < res.NumExtractors(); e++ {
		if res.RAt(e) != opt.InitRecall || res.QAt(e) != opt.InitQ {
			t.Fatalf("frozen extractor params moved: R=%v Q=%v", res.RAt(e), res.QAt(e))
		}
	}
}

func TestConvergenceFlag(t *testing.T) {
	s := compileSmall(t)
	opt := DefaultOptions()
	opt.MaxIter = 100
	opt.Tol = 1e-12
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence within 100 iterations")
	}
	if res.Iterations >= 100 {
		t.Errorf("iterations = %d, expected early stop", res.Iterations)
	}
}

// TestIterateScheduleAndLists pins the one iteration Run and the engine both
// execute. Under UpdatePriorFromIter 3, a cold iteration 1 leaves every prior
// at Alpha and cannot converge however loose Tol is, while a cold iteration 2
// refines the priors and may; a warm iteration 1 refines them at once. Explicit
// lists that cover every index — items ascending, each item's triples behind
// it, as CompileScope lists them — give bit-for-bit what the nil lists give.
func TestIterateScheduleAndLists(t *testing.T) {
	s := compileSmall(t)
	opt := DefaultOptions()
	opt.UpdatePriorFromIter = 3
	opt.Tol = 1e9
	nItem := len(s.Items)
	type run struct {
		em          *EM
		cProb       []float64
		valueProb   [][]float64
		restMass    []float64
		coveredItem []bool
	}
	start := func() *run {
		em, err := NewEM(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{em, make([]float64, len(s.Triples)), make([][]float64, nItem), make([]float64, nItem), make([]bool, nItem)}
		em.Bootstrap(r.cProb)
		return r
	}
	iterate := func(r *run, p Pass) (float64, bool) {
		return r.em.Iterate(r.cProb, r.valueProb, r.restMass, r.coveredItem, p)
	}
	priorsAtAlpha := func(r *run) bool {
		return !slices.ContainsFunc(r.em.Prior(), func(a float64) bool { return a != opt.Alpha })
	}

	cold := start()
	if _, conv := iterate(cold, Pass{Iter: 1, RefreshVotes: true}); conv {
		t.Error("cold iteration 1 converged before the prior schedule engaged")
	}
	if !priorsAtAlpha(cold) {
		t.Error("cold iteration 1 moved a prior")
	}
	if _, conv := iterate(cold, Pass{Iter: 2, RefreshVotes: true}); !conv {
		t.Error("cold iteration 2 did not converge under Tol 1e9")
	}
	if priorsAtAlpha(cold) {
		t.Error("cold iteration 2 left every prior at Alpha")
	}

	warm := start()
	if _, conv := iterate(warm, Pass{Iter: 1, Warm: true, RefreshVotes: true}); !conv {
		t.Error("warm iteration 1 did not converge under Tol 1e9")
	}
	if priorsAtAlpha(warm) {
		t.Error("warm iteration 1 left every prior at Alpha")
	}

	opt.Tol = DefaultOptions().Tol
	items := make([]int, nItem)
	var tris []int
	for d := range items {
		items[d] = d
		tris = append(tris, ints(s.TriplesOfItem[d])...)
	}
	nilLists, explicit := start(), start()
	for iter := 1; iter <= 4; iter++ {
		d1, c1 := iterate(nilLists, Pass{Iter: iter, RefreshVotes: true})
		d2, c2 := iterate(explicit, Pass{Iter: iter, RefreshVotes: true, Items: items, Tris: tris})
		if d1 != d2 || c1 != c2 {
			t.Fatalf("iteration %d: nil lists give delta %v (converged %v), explicit lists %v (%v)", iter, d1, c1, d2, c2)
		}
		a, b := nilLists.em.st, explicit.em.st
		if !slices.Equal(a.a, b.a) || !slices.Equal(a.p, b.p) || !slices.Equal(a.r, b.r) || !slices.Equal(a.q, b.q) ||
			!slices.Equal(a.alpha, b.alpha) {
			t.Fatalf("iteration %d: parameters or priors differ between nil and explicit lists", iter)
		}
		if !slices.Equal(nilLists.cProb, explicit.cProb) || !slices.Equal(nilLists.restMass, explicit.restMass) ||
			!slices.Equal(nilLists.coveredItem, explicit.coveredItem) ||
			!slices.EqualFunc(nilLists.valueProb, explicit.valueProb, slices.Equal) {
			t.Fatalf("iteration %d: posteriors differ between nil and explicit lists", iter)
		}
	}
}

func TestExpectedTriplesAccounting(t *testing.T) {
	s := compileSmall(t)
	res, err := Run(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for w := 0; w < res.NumSources(); w++ {
		x := res.ExpectedTriplesAt(w)
		if x < 0 {
			t.Fatalf("negative expected triples %v", x)
		}
		total += x
	}
	var sumC float64
	for ti := 0; ti < res.NumTriples(); ti++ {
		sumC += res.CProbAt(ti)
	}
	if math.Abs(total-sumC) > 1e-9 {
		t.Errorf("expected triples %v != sum cprob %v", total, sumC)
	}
}

func TestQPRRoundTrip(t *testing.T) {
	if err := quick.Check(func(p0, r0, g0 float64) bool {
		p := 0.05 + 0.9*math.Mod(math.Abs(p0), 1)
		r := 0.05 + 0.9*math.Mod(math.Abs(r0), 1)
		g := 0.05 + 0.9*math.Mod(math.Abs(g0), 1)
		if math.IsNaN(p) || math.IsNaN(r) || math.IsNaN(g) {
			return true
		}
		q := QFromPR(p, r, g)
		if q >= 1-1e-9 || q <= 1e-9 {
			return true // clamped; inversion not exact
		}
		return math.Abs(PFromQR(q, r, g)-p) < 1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSourceVote(t *testing.T) {
	// Example 3.2: ln(10*0.6/0.4) = 2.7.
	if got := SourceVote(0.6, 10); math.Abs(got-2.708) > 0.01 {
		t.Errorf("SourceVote(0.6,10) = %v, want 2.708", got)
	}
	// Monotonic in accuracy.
	if SourceVote(0.9, 10) <= SourceVote(0.6, 10) {
		t.Error("SourceVote must increase with accuracy")
	}
}

func TestRedundancyImprovesConfidence(t *testing.T) {
	// Property: more independent sources providing the same value should not
	// reduce the inferred probability of that value.
	prev := 0.0
	for k := 2; k <= 8; k++ {
		d := triple.NewDataset()
		for i := 0; i < k; i++ {
			w := fmt.Sprintf("w%d", i)
			for _, e := range []string{"E1", "E2"} {
				d.Add(triple.Record{Extractor: e, Pattern: "p", Website: w, Page: w + "/1",
					Subject: "s", Predicate: "p", Object: "X"})
			}
		}
		// one dissenter
		d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "wd", Page: "wd/1",
			Subject: "s", Predicate: "p", Object: "Y"})
		s := d.Compile(triple.CompileOptions{
			SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
		res, err := Run(s, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p, _ := res.TripleProb(s.ItemID("s", "p"), s.ValueID("X"))
		if p < prev-1e-6 {
			t.Fatalf("k=%d: p(X)=%v dropped from %v", k, p, prev)
		}
		prev = p
	}
}
