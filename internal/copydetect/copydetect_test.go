package copydetect

import (
	"fmt"
	"testing"

	"kbt/internal/core"
	"kbt/internal/stats"
	"kbt/internal/triple"
)

// copyWorld builds a corpus where "orig" has several distinctive wrong
// values, "copier" reproduces orig verbatim (including the mistakes), and
// several independent sources provide mostly-correct values.
func copyWorld(t *testing.T) (*triple.Snapshot, *core.Result) {
	t.Helper()
	d := triple.NewDataset()
	rng := stats.NewRNG(11)
	items := 24
	truth := func(i int) string { return fmt.Sprintf("true%02d", i) }

	add := func(site string, i int, v string) {
		d.Add(triple.Record{
			Extractor: "E1", Pattern: "p", Website: site, Page: site + "/1",
			Subject: fmt.Sprintf("s%02d", i), Predicate: "pred", Object: v,
		})
		d.Add(triple.Record{
			Extractor: "E2", Pattern: "p", Website: site, Page: site + "/1",
			Subject: fmt.Sprintf("s%02d", i), Predicate: "pred", Object: v,
		})
	}

	// Independent sources: right 85% of the time, errors are their own.
	for s := 0; s < 5; s++ {
		site := fmt.Sprintf("indep%d", s)
		for i := 0; i < items; i++ {
			v := truth(i)
			if rng.Bernoulli(0.15) {
				v = fmt.Sprintf("wrong_%s_%02d_%d", site, i, rng.Intn(5))
			}
			add(site, i, v)
		}
	}
	// The original: 70% accurate, with distinctive mistakes.
	origValues := make([]string, items)
	for i := 0; i < items; i++ {
		v := truth(i)
		if i%3 == 0 {
			v = fmt.Sprintf("origmistake%02d", i)
		}
		origValues[i] = v
		add("orig", i, v)
	}
	// The copier: verbatim copy of orig.
	for i := 0; i < items; i++ {
		add("copier", i, origValues[i])
	}

	s := d.Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	opt := core.DefaultOptions()
	opt.MinSourceSupport = 1
	res, err := core.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func evidenceFrom(s *triple.Snapshot, res *core.Result) Evidence {
	return Evidence{
		ValueProb: func(d, v int) float64 {
			p, _ := res.TripleProb(d, v)
			return p
		},
		Accuracy: func(w int) float64 { return res.AAt(w) },
		Provides: func(ti int) bool { return res.CProbAt(ti) >= 0.5 },
	}
}

func TestDetectFindsCopier(t *testing.T) {
	s, res := copyWorld(t)
	deps, err := Detect(s, evidenceFrom(s, res), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) == 0 {
		t.Fatal("no dependencies detected")
	}
	top := deps[0]
	na, nb := s.Source(top.A).String(), s.Source(top.B).String()
	if !((na == "orig" && nb == "copier") || (na == "copier" && nb == "orig")) {
		t.Fatalf("top pair = (%s, %s), want (orig, copier); deps=%v", na, nb, deps)
	}
	if top.Posterior < 0.9 {
		t.Errorf("copier posterior = %v, want high", top.Posterior)
	}
	if top.SharedFalse == 0 {
		t.Error("copier pair should share false values")
	}
	// Independent pairs must not be flagged as strongly.
	for _, dep := range deps[1:] {
		a, b := s.Source(dep.A).String(), s.Source(dep.B).String()
		if a != "orig" && a != "copier" && b != "orig" && b != "copier" {
			if dep.Posterior >= top.Posterior {
				t.Errorf("independent pair (%s,%s) scored %v >= copier %v",
					a, b, dep.Posterior, top.Posterior)
			}
		}
	}
}

func TestSharedTruthAloneIsWeakEvidence(t *testing.T) {
	// Sources that agree only on true values should not be flagged: truth
	// is the expected meeting point of independent accurate sources.
	d := triple.NewDataset()
	for s := 0; s < 3; s++ {
		site := fmt.Sprintf("good%d", s)
		for i := 0; i < 20; i++ {
			for _, e := range []string{"E1", "E2"} {
				d.Add(triple.Record{Extractor: e, Pattern: "p", Website: site, Page: site + "/1",
					Subject: fmt.Sprintf("s%02d", i), Predicate: "pred", Object: fmt.Sprintf("v%02d", i)})
			}
		}
	}
	s := d.Compile(triple.CompileOptions{
		SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	opt := core.DefaultOptions()
	opt.MinSourceSupport = 1
	res, err := core.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := Detect(s, evidenceFrom(s, res), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range deps {
		if dep.SharedFalse == 0 && dep.Posterior > 0.95 {
			t.Errorf("all-true pair flagged with %v: %+v", dep.Posterior, dep)
		}
	}
}

func TestPosteriorProperties(t *testing.T) {
	opt := DefaultOptions()
	// Shared false values are far stronger evidence than shared truths.
	pf := posterior(0, 5, 0, 0.8, 0.8, opt)
	pt := posterior(5, 0, 0, 0.8, 0.8, opt)
	if pf <= pt {
		t.Errorf("shared-false %v should exceed shared-true %v", pf, pt)
	}
	// Disagreements reduce the posterior.
	base := posterior(3, 3, 0, 0.8, 0.8, opt)
	withDiffer := posterior(3, 3, 6, 0.8, 0.8, opt)
	if withDiffer >= base {
		t.Errorf("disagreements should lower posterior: %v vs %v", withDiffer, base)
	}
	// More shared errors, more confidence.
	if posterior(0, 8, 0, 0.8, 0.8, opt) <= posterior(0, 2, 0, 0.8, 0.8, opt) {
		t.Error("posterior should grow with shared errors")
	}
	// Always a probability.
	for kt := 0; kt <= 10; kt += 5 {
		for kf := 0; kf <= 10; kf += 5 {
			p := posterior(kt, kf, 3, 0.7, 0.9, opt)
			if p < 0 || p > 1 {
				t.Fatalf("posterior out of range: %v", p)
			}
		}
	}
}

func TestDetectValidation(t *testing.T) {
	s, res := copyWorld(t)
	ev := evidenceFrom(s, res)
	if _, err := Detect(nil, ev, DefaultOptions()); err == nil {
		t.Error("nil snapshot should error")
	}
	if _, err := Detect(s, Evidence{}, DefaultOptions()); err == nil {
		t.Error("empty evidence should error")
	}
	for _, mut := range []func(*Options){
		func(o *Options) { o.CopyRate = 0 },
		func(o *Options) { o.CopyRate = 1 },
		func(o *Options) { o.Prior = 0 },
		func(o *Options) { o.N = 0 },
	} {
		opt := DefaultOptions()
		mut(&opt)
		if _, err := Detect(s, ev, opt); err == nil {
			t.Error("invalid option should error")
		}
		if _, err := NewTracker(opt, 4); err == nil {
			t.Error("invalid option should error in NewTracker as in Detect")
		}
	}
	if _, err := NewTracker(DefaultOptions(), 4); err != nil {
		t.Errorf("NewTracker refuses the default options: %v", err)
	}
}

func TestMinOverlapFilters(t *testing.T) {
	s, res := copyWorld(t)
	opt := DefaultOptions()
	opt.MinOverlap = 1000
	deps, err := Detect(s, evidenceFrom(s, res), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 0 {
		t.Errorf("impossible overlap should yield no pairs, got %d", len(deps))
	}
}
