package fusion

import (
	"fmt"
	"math"
	"testing"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// buildSnapshot makes a dataset where each source is one synthetic page and
// claims maps source -> value claimed for the single item (s,p).
func buildSnapshot(claims map[string]string) *triple.Snapshot {
	d := triple.NewDataset()
	for src, val := range claims {
		d.Add(triple.Record{
			Extractor: "E1", Pattern: "p", Website: src, Page: src + "/1",
			Subject: "s", Predicate: "p", Object: val,
		})
	}
	return d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
}

func optNoSupport() Options {
	o := DefaultOptions()
	o.MinSupport = 0
	return o
}

func TestMajorityWins(t *testing.T) {
	s := buildSnapshot(map[string]string{
		"w1": "USA", "w2": "USA", "w3": "USA", "w4": "Kenya",
	})
	res, err := Run(s, optNoSupport())
	if err != nil {
		t.Fatal(err)
	}
	d := s.ItemID("s", "p")
	pUSA, _ := res.TripleProb(s, d, s.ValueID("USA"))
	pKenya, _ := res.TripleProb(s, d, s.ValueID("Kenya"))
	if pUSA <= pKenya {
		t.Fatalf("majority value should win: p(USA)=%v p(Kenya)=%v", pUSA, pKenya)
	}
	if pUSA < 0.9 {
		t.Errorf("p(USA) = %v, want > 0.9 with n=100", pUSA)
	}
	// Accuracy of agreeing sources should exceed the dissenter's.
	aUSA := res.Accuracy[s.SourceID("w1")]
	aKenya := res.Accuracy[s.SourceID("w4")]
	if aUSA <= aKenya {
		t.Errorf("accuracies: agree=%v dissent=%v", aUSA, aKenya)
	}
}

func TestSingleIterationVoteCountMath(t *testing.T) {
	// With one voting source of accuracy A=0.8 and n=100, the vote count is
	// log(100*0.8/0.2) = log(400); with 100 unobserved false values the
	// posterior is exp(vc)/(exp(vc)+100).
	s := buildSnapshot(map[string]string{"w1": "X"})
	opt := optNoSupport()
	opt.MaxIter = 1
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	vc := math.Exp(math.Log(400.0))
	want := vc / (vc + 100)
	d := s.ItemID("s", "p")
	got, _ := res.TripleProb(s, d, s.ValueID("X"))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("posterior = %v, want %v", got, want)
	}
	// Rest mass accounts for the remaining 100 values.
	if math.Abs(res.RestMass[d]-(1-want)) > 1e-9 {
		t.Errorf("rest mass = %v, want %v", res.RestMass[d], 1-want)
	}
}

func TestPopAccuDownweightsPopularFalseValue(t *testing.T) {
	// Two values with equal votes: under ACCU they tie; under POPACCU the
	// more "popular" value gets a smaller boost per vote (a popular value is
	// more likely to be a popular false value). With equal counts the models
	// agree, so make the counts unequal: 3 for X, 1 for Y.
	claims := map[string]string{"w1": "X", "w2": "X", "w3": "X", "w4": "Y"}
	s := buildSnapshot(claims)
	d := s.ItemID("s", "p")

	// Compare a single E/M round: with one observation per source, repeated
	// EM legitimately collapses (accuracy tracks a single posterior), so the
	// model comparison is only meaningful on the first round.
	accuOpt := optNoSupport()
	accuOpt.MaxIter = 1
	accuRes, err := Run(s, accuOpt)
	if err != nil {
		t.Fatal(err)
	}
	popOpt := optNoSupport()
	popOpt.Model = PopAccu
	popOpt.MaxIter = 1
	popRes, err := Run(s, popOpt)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := accuRes.TripleProb(s, d, s.ValueID("X"))
	paY, _ := accuRes.TripleProb(s, d, s.ValueID("Y"))
	pp, _ := popRes.TripleProb(s, d, s.ValueID("X"))
	ppY, _ := popRes.TripleProb(s, d, s.ValueID("Y"))
	if pa <= paY || pp <= ppY {
		t.Fatalf("both models should prefer the majority: accu=%v/%v pop=%v/%v", pa, paY, pp, ppY)
	}
	if pa == pp {
		t.Errorf("POPACCU should differ from ACCU on skewed counts")
	}
	// POPACCU's votes are weaker than ACCU's uniform-false assumption when
	// observed values are popular (log pop ≫ -log n).
	if pp >= pa {
		t.Errorf("POPACCU should be more conservative here: accu=%v pop=%v", pa, pp)
	}
}

func TestMinSupportExclusionAndCoverage(t *testing.T) {
	d := triple.NewDataset()
	// w1 has 5 observations (meets support), w2 only 1 (excluded).
	for i := 0; i < 5; i++ {
		d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w1", Page: "w1/1",
			Subject: fmt.Sprintf("s%d", i), Predicate: "p", Object: "v"})
	}
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w2", Page: "w2/1",
		Subject: "lonely", Predicate: "p", Object: "v"})
	s := d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})

	opt := DefaultOptions()
	opt.MinSupport = 3
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Updated[s.SourceID("w1")] {
		t.Error("w1 should participate")
	}
	if res.Updated[s.SourceID("w2")] {
		t.Error("w2 should be excluded by MinSupport")
	}
	if res.Accuracy[s.SourceID("w2")] != opt.InitAccuracy {
		t.Error("excluded provenance accuracy must stay default")
	}
	lonely := s.ItemID("lonely", "p")
	if res.CoveredItem[lonely] {
		t.Error("item observed only by an excluded provenance must be uncovered")
	}
	if _, covered := res.TripleProb(s, lonely, s.ValueID("v")); covered {
		t.Error("TripleProb must report uncovered")
	}
	covered := 0
	for _, c := range res.CoveredItem {
		if c {
			covered++
		}
	}
	if covered != 5 {
		t.Errorf("covered items = %d, want 5", covered)
	}
}

func TestInitialAccuracySeedsPlusVariant(t *testing.T) {
	s := buildSnapshot(map[string]string{"w1": "X", "w2": "Y"})
	opt := optNoSupport()
	opt.MaxIter = 1
	opt.InitialAccuracy = map[int]float64{
		s.SourceID("w1"): 0.99,
		s.SourceID("w2"): 0.01,
	}
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := s.ItemID("s", "p")
	pX, _ := res.TripleProb(s, d, s.ValueID("X"))
	pY, _ := res.TripleProb(s, d, s.ValueID("Y"))
	if pX <= pY {
		t.Errorf("smart init should break the tie: pX=%v pY=%v", pX, pY)
	}
}

func TestConfidenceWeighting(t *testing.T) {
	d := triple.NewDataset()
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w1", Page: "w1/1",
		Subject: "s", Predicate: "p", Object: "X", Confidence: 1.0})
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w2", Page: "w2/1",
		Subject: "s", Predicate: "p", Object: "Y", Confidence: 0.1})
	s := d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	opt := optNoSupport()
	opt.MaxIter = 1
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	di := s.ItemID("s", "p")
	pX, _ := res.TripleProb(s, di, s.ValueID("X"))
	pY, _ := res.TripleProb(s, di, s.ValueID("Y"))
	if pX <= pY {
		t.Errorf("confident vote should dominate: pX=%v pY=%v", pX, pY)
	}
	// Without confidence weighting they tie.
	opt.UseConfidence = false
	res, err = Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	pX, _ = res.TripleProb(s, di, s.ValueID("X"))
	pY, _ = res.TripleProb(s, di, s.ValueID("Y"))
	if math.Abs(pX-pY) > 1e-12 {
		t.Errorf("unweighted votes should tie: pX=%v pY=%v", pX, pY)
	}
}

func TestProbabilitiesFormDistribution(t *testing.T) {
	s := buildSnapshot(map[string]string{
		"w1": "A", "w2": "B", "w3": "C", "w4": "A", "w5": "A", "w6": "B",
	})
	res, err := Run(s, optNoSupport())
	if err != nil {
		t.Fatal(err)
	}
	for d := range s.Items {
		var total float64
		for _, p := range res.ValueProb[d] {
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			total += p
		}
		total += res.RestMass[d]
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("item %d mass = %v", d, total)
		}
	}
}

func TestMoreAgreementMoreConfidence(t *testing.T) {
	// Property: adding agreeing sources must not decrease the winning
	// probability (monotonicity, cf. POPACCU monotonicity result).
	prev := 0.0
	for k := 1; k <= 6; k++ {
		claims := map[string]string{"wrong": "Z"}
		for i := 0; i < k; i++ {
			claims[fmt.Sprintf("w%d", i)] = "X"
		}
		s := buildSnapshot(claims)
		res, err := Run(s, optNoSupport())
		if err != nil {
			t.Fatal(err)
		}
		d := s.ItemID("s", "p")
		p, _ := res.TripleProb(s, d, s.ValueID("X"))
		if p < prev-1e-9 {
			t.Fatalf("k=%d: p(X)=%v dropped below %v", k, p, prev)
		}
		prev = p
	}
}

func TestRunValidation(t *testing.T) {
	s := buildSnapshot(map[string]string{"w1": "X"})
	bad := []Options{
		{N: 0, MaxIter: 5, InitAccuracy: 0.8},
		{N: 10, MaxIter: 0, InitAccuracy: 0.8},
		{N: 10, MaxIter: 5, InitAccuracy: 0},
		{N: 10, MaxIter: 5, InitAccuracy: 1},
	}
	for i, o := range bad {
		if _, err := Run(s, o); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
	if _, err := Run(nil, DefaultOptions()); err == nil {
		t.Error("nil snapshot should error")
	}
}

func TestAggregateSourceAccuracy(t *testing.T) {
	// Two provenances on the same page group; aggregation averages the
	// posterior probability of their extracted triples.
	d := triple.NewDataset()
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w1", Page: "pg",
		Subject: "s", Predicate: "p", Object: "X"})
	d.Add(triple.Record{Extractor: "E2", Pattern: "p", Website: "w1", Page: "pg",
		Subject: "s", Predicate: "p", Object: "X"})
	d.Add(triple.Record{Extractor: "E1", Pattern: "p", Website: "w2", Page: "pg2",
		Subject: "s", Predicate: "p", Object: "Y"})
	s := d.Compile(triple.CompileOptions{SourceKey: triple.ProvenanceKey, ExtractorKey: triple.ExtractorKeyName})
	res, err := Run(s, optNoSupport())
	if err != nil {
		t.Fatal(err)
	}
	groups := AggregateSourceAccuracy(s, res, func(w int) string {
		// Source labels are extractor\x1fwebsite\x1fpredicate\x1fpattern.
		label := s.Source(w).String()
		for i := 0; i < len(label); i++ {
			if label[i] == '\x1f' {
				rest := label[i+1:]
				for j := 0; j < len(rest); j++ {
					if rest[j] == '\x1f' {
						return rest[:j]
					}
				}
				return rest
			}
		}
		return label
	})
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups["w1"] <= groups["w2"] {
		t.Errorf("majority site should look more accurate: %v", groups)
	}
	for g, a := range groups {
		if a < 0 || a > 1 {
			t.Errorf("group %s accuracy out of range: %v", g, a)
		}
	}
}

func TestAccuraciesStayClamped(t *testing.T) {
	// Unanimous agreement drives accuracy high but must stay < 1.
	claims := map[string]string{}
	for i := 0; i < 8; i++ {
		claims[fmt.Sprintf("w%d", i)] = "X"
	}
	s := buildSnapshot(claims)
	opt := optNoSupport()
	opt.MaxIter = 50
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for w, a := range res.Accuracy {
		if a <= 0 || a >= 1 {
			t.Errorf("accuracy[%d] = %v not clamped", w, a)
		}
		if a < 1-10*stats.Eps && a < 0.99 {
			t.Errorf("unanimous source accuracy should approach 1, got %v", a)
		}
	}
}
