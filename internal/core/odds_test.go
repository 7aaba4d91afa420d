package core

// This file pins the odds-space form of Eq 15 and Eqs 32-33 (posteriorOdds,
// stripFactor, looPosterior) to the logistic form it replaced, its saturation
// constant, and the exactness of the Stage IV strip-factor memo.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// TestOddsFormIsLogisticForm: o/(1+o) is σ(x + logit α), and the leave-one-out
// value is σ(x − c·(Pre−Abs) − Abs + logit α), to 1e-12 absolute — over random
// inputs and at the edges: the prior at its clamps, a vote sum of 0, ±40 and
// ±voteCap.
func TestOddsFormIsLogisticForm(t *testing.T) {
	const tol = 1e-12
	check := func(x, alpha, c, pre, ab float64) {
		t.Helper()
		o := posteriorOdds(alpha, x)
		if got, want := o/(1+o), stats.Sigmoid(x+stats.Logit(alpha)); !(math.Abs(got-want) <= tol) {
			t.Fatalf("x=%v α=%v: o/(1+o) = %v, σ(x + logit α) = %v", x, alpha, got, want)
		}
		got := looPosterior(o, stripFactor(c, pre-ab, ab))
		want := stats.Sigmoid(x - c*(pre-ab) - ab + stats.Logit(alpha))
		if !(math.Abs(got-want) <= tol) {
			t.Fatalf("x=%v α=%v c=%v Pre=%v Abs=%v: leave-one-out %v, logistic form %v", x, alpha, c, pre, ab, got, want)
		}
	}
	maxVote := stats.Logit(1 - stats.Eps) // the largest vote the clamps allow
	alphas := []float64{stats.Eps, 0.25, 0.5, 1 - stats.Eps}
	for _, x := range []float64{0, 40, -40, voteCap, -voteCap} {
		for _, alpha := range alphas {
			for _, c := range []float64{1, 0.5, 1e-3} {
				check(x, alpha, c, maxVote, -maxVote)
				check(x, alpha, c, -maxVote, maxVote)
				check(x, alpha, c, 1.4, -1.6)
			}
		}
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200000; i++ {
		x := (rng.Float64()*2 - 1) * 60
		if i%10 == 0 {
			x *= 10 // out to ±voteCap
		}
		alpha := stats.ClampProb(rng.Float64())
		if i%7 == 0 {
			alpha = alphas[i%len(alphas)]
		}
		check(x, alpha, rng.Float64(), (rng.Float64()*2-1)*maxVote, (rng.Float64()*2-1)*maxVote)
	}
}

// compileSaturated builds one (source, predicate) cell attempted by n
// extractors, with item i's triple extracted by the first i of them: under
// pinned votes its vote sum is i·Pre + (n−i)·Abs, ascending in i.
func compileSaturated(t *testing.T, n int) *triple.Snapshot {
	t.Helper()
	d := triple.NewDataset()
	for i := 1; i <= n; i++ {
		for e := 0; e < i; e++ {
			d.Add(triple.Record{Extractor: fmt.Sprintf("E%03d", e), Website: "w.com", Page: "w.com/x",
				Subject: fmt.Sprintf("S%03d", i), Predicate: "p", Object: "v", Confidence: float64(4-e%3) / 4})
		}
	}
	return d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
}

// TestVoteCapSaturation: with 80 extractors pinned at the probability clamps
// the vote sums span ±1100, far past where exp overflows. Stage I, the
// leave-one-out Stage IV and the prior update still produce probabilities —
// in [0,1], never NaN — and p(C|X) and each extractor's leave-one-out
// posterior ascend with the vote sum.
func TestVoteCapSaturation(t *testing.T) {
	const n = 80
	s := compileSaturated(t, n)
	opt := DefaultOptions()
	opt.DisableBootstrap = true
	opt.QFloor = 0
	opt.InitialExtractorRecall = map[int]float64{}
	opt.InitialExtractorQ = map[int]float64{}
	for e := range s.Extractors {
		opt.InitialExtractorRecall[e], opt.InitialExtractorQ[e] = 1, 0 // clamped to 1-Eps, Eps
	}
	em, err := NewEM(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := em.st
	isProb := func(what string, i int, p float64) {
		t.Helper()
		if !(p >= 0 && p <= 1) {
			t.Fatalf("%s[%d] = %v, not a probability", what, i, p)
		}
	}

	nItem, nTri := len(s.Items), len(s.Triples)
	cProb := make([]float64, nTri)
	valueProb, restMass, covered := make([][]float64, nItem), make([]float64, nItem), make([]bool, nItem)
	tripleOfItem := func(i int) int { return s.TriplesOfItem[s.ItemID(fmt.Sprintf("S%03d", i), "p")][0] }
	for iter := 0; iter < 3; iter++ {
		em.BeginIteration(iter == 0) // later votes are the estimated ones
		em.EStepTriples(cProb, nil, 0)
		if iter == 0 {
			if lo, hi := st.cellAbs[0]+st.voteDelta[0], st.cellAbs[0]+float64(n)*st.voteDelta[0]; lo > -1000 || hi < 1000 {
				t.Fatalf("vote sums span [%v, %v], want past ±1000", lo, hi)
			}
		}
		for i := 1; i <= n; i++ {
			ti := tripleOfItem(i)
			isProb("cProb", ti, cProb[ti])
			if o := st.cOdds[ti]; !(o > 0) || math.IsInf(o, 0) {
				t.Fatalf("iteration %d: odds[%d] = %v", iter, ti, o)
			}
			if iter == 0 && i > 1 && cProb[ti] < cProb[tripleOfItem(i-1)] {
				t.Fatalf("p(C|X) not monotone in the vote sum at item %d", i)
			}
		}
		if iter == 0 && (cProb[tripleOfItem(1)] > 1e-250 || cProb[tripleOfItem(n)] != 1) {
			t.Fatalf("saturated ends are %v and %v, want 0 (to 1e-250) and 1", cProb[tripleOfItem(1)], cProb[tripleOfItem(n)])
		}
		// Leave-one-out: extractor e extracts items e+1..n, its own vote
		// stripped from each.
		for e, obs := range s.ObsOfExtractor {
			prev := -1.0
			for _, oi := range obs {
				c := st.conf[oi]
				v := st.obsNumContrib(oi, st.tripleOfObs[oi], e, c, cProb)
				isProb("leave-one-out", oi, v/c)
				if iter == 0 && v/c < prev {
					t.Fatalf("extractor %d: leave-one-out posterior not monotone at observation %d", e, oi)
				}
				prev = v / c
			}
		}
		em.EStepItems(cProb, valueProb, restMass, covered, nil, 0)
		em.MStepSources(cProb, valueProb, nil)
		em.MStepExtractors(cProb, nil)
		em.UpdatePrior(valueProb, nil, 0)
		for e := range s.Extractors {
			isProb("P", e, st.p[e])
			isProb("R", e, st.r[e])
			isProb("Q", e, st.q[e])
		}
		for ti, a := range st.alpha {
			if !(a >= stats.Eps && a <= 1-stats.Eps) {
				t.Fatalf("prior[%d] = %v outside the clamps", ti, a)
			}
		}
	}
}

// compileConfidences builds two multi-block extractors over the same sites:
// "quant" reports the confidences 1, 0.9, 0.8 interleaved, "distinct" a
// different one on every observation (so its memo slots collide and evict).
func compileConfidences(t *testing.T) *triple.Snapshot {
	t.Helper()
	const nItems = 2*obsBlock + 300
	d := triple.NewDataset()
	add := func(e string, w, i int, obj string, conf float64) {
		site := fmt.Sprintf("site%02d.com", w)
		d.Add(triple.Record{Extractor: e, Website: site, Page: site + "/x",
			Subject: fmt.Sprintf("S%05d", i), Predicate: fmt.Sprintf("p%d", i%5), Object: obj, Confidence: conf})
	}
	for i := 0; i < nItems; i++ {
		obj := "T"
		if i%4 == 0 {
			obj = "F"
		}
		add("quant", i%30, i, "T", []float64{1, 0.9, 0.8}[i%3])
		add("quant", i%30+30, i, obj, []float64{1, 0.9, 0.8}[(i+1)%3])
		add("distinct", i%30, i, "T", float64(i+1)/float64(nItems+1))
		if i%6 == 0 {
			add("distinct", i%30+30, i, "H", float64(i+2)/float64(2*nItems))
		}
	}
	s := d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	for _, e := range []string{"quant", "distinct"} {
		if n := len(s.ObsOfExtractor[s.ExtractorID(e)]); n <= 2*obsBlock {
			t.Fatalf("extractor %s has %d observations, want more than two blocks of %d", e, n, obsBlock)
		}
	}
	return s
}

// TestStripMemoMatchesPerObservation: the memoised block loop of Stage IV
// leaves, bit for bit, the contributions the per-observation obsNumContrib
// computes and their block-ordered totals — for an extractor whose three
// confidences always hit the memo and for one whose confidences never repeat —
// at 1, 2 and 4 workers.
func TestStripMemoMatchesPerObservation(t *testing.T) {
	s := compileConfidences(t)
	for _, workers := range []int{1, 2, 4} {
		opt := DefaultOptions()
		opt.Workers = workers
		opt.IncrementalAggregates = true
		em, err := NewEM(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		st, ag := em.st, em.st.agg
		cProb := make([]float64, len(s.Triples))
		valueProb := make([][]float64, len(s.Items))
		em.Bootstrap(cProb)
		for iter := 0; iter < 2; iter++ {
			em.BeginIteration(true)
			em.EStepTriples(cProb, nil, 0)
			em.EStepItems(cProb, valueProb, make([]float64, len(s.Items)), make([]bool, len(s.Items)), nil, 0)
			em.MStepSources(cProb, valueProb, nil)
			em.MStepExtractors(cProb, nil) // the block loop; the votes and odds it read stand until the next iteration
			for e, obs := range s.ObsOfExtractor {
				var total float64
				for lo := 0; lo < len(obs); lo += obsBlock {
					var part float64
					for _, oi := range obs[lo:min(lo+obsBlock, len(obs))] {
						want := st.obsNumContrib(oi, st.tripleOfObs[oi], e, st.conf[oi], cProb)
						if math.Float64bits(ag.obsNumC[oi]) != math.Float64bits(want) {
							t.Fatalf("workers=%d iteration %d: obsNumC[%d] = %v, obsNumContrib gives %v",
								workers, iter, oi, ag.obsNumC[oi], want)
						}
						part += want
					}
					if lo == 0 {
						total = part
					} else {
						total += part
					}
				}
				if math.Float64bits(ag.eNum[e]) != math.Float64bits(total) {
					t.Fatalf("workers=%d iteration %d: eNum[%d] = %v, block-ordered per-observation sum %v",
						workers, iter, e, ag.eNum[e], total)
				}
			}
		}
	}
}
