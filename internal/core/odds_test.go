package core

// This file pins the odds-space form of Eq 15 and Eqs 32-33 (posteriorOdds,
// stripFactor, looPosterior) to the logistic form it replaced, its saturation
// constant, and the exactness of the Stage I vote memo and the Stage IV
// strip-factor memo.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// obsNumContrib is an observation's precision/recall numerator contribution
// (Eqs 29-33) with the strip factor computed directly: the per-observation
// reference both memoised Stage IV loops must reproduce bit for bit.
func (st *state) obsNumContrib(oi, ti, e int, c float64, cProb []float64) float64 {
	if !st.opt.LeaveOneOut {
		return c * cProb[ti]
	}
	return c * looPosterior(st.cOdds[ti], stripFactor(c, st.pre[e]-st.ab[e], st.ab[e]))
}

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
			abs := st.setAbs[st.setOfCell[0]]
			if lo, hi := abs+st.voteDelta[0], abs+float64(n)*st.voteDelta[0]; lo > -1000 || hi < 1000 {
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
	// Sixteen small extractors after them, so the last one's id (17) shares
	// the strip memo's slots with "distinct" (1) at any confidence.
	for e := 0; e < 16; e++ {
		for i := e; i < nItems; i += 400 {
			add(fmt.Sprintf("few%02d", e), i%30, i, "T", 0.9)
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

// TestStripMemoMatchesPerObservation: Stage IV's memoised loop leaves, bit for
// bit, the contributions the per-observation obsNumContrib computes — for an
// extractor whose three confidences always hit the memo and for one whose
// confidences never repeat. Over every index, at 1, 2 and 4 workers, it also
// leaves their exact totals; so does it over a partial pass's list after an
// extension, the list's observations grouped by extractor.
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
				var total stats.Sum
				for _, oi := range obs {
					want := st.obsNumContrib(oi, st.tripleOfObs[oi], e, st.conf[oi], cProb)
					if math.Float64bits(ag.obsNumC[oi]) != math.Float64bits(want) {
						t.Fatalf("workers=%d iteration %d: obsNumC[%d] = %v, obsNumContrib gives %v",
							workers, iter, oi, ag.obsNumC[oi], want)
					}
					total = total.Add(want)
				}
				if ag.eNum[e] != total {
					t.Fatalf("workers=%d iteration %d: eNum[%d] = %v, per-observation sum %v",
						workers, iter, e, ag.eNum[e].Float(), total.Float())
				}
			}
		}

		// A list pass reads the indexes an extension builds, so extend by
		// one new item first, as a warm engine refresh does — read at one
		// confidence by three extractors, two of which share memo slots, so
		// the memo must tell them apart by extractor. Then a moved prior
		// changes the odds of a third of the triples, which one partial pass
		// re-estimates under the votes the caches were computed with.
		if st.s.ExtractorID("distinct") != 1 || st.s.ExtractorID("few15") != 17 {
			t.Fatal("fixture: extractor ids moved")
		}
		s2 := s.Extend([]triple.Record{
			{Extractor: "quant", Website: "site00.com", Page: "site00.com/x", Subject: "Snew", Predicate: "p0", Object: "T", Confidence: 0.9},
			{Extractor: "distinct", Website: "site30.com", Page: "site30.com/x", Subject: "Snew", Predicate: "p0", Object: "T", Confidence: 0.9},
			{Extractor: "few15", Website: "site30.com", Page: "site30.com/x", Subject: "Snew", Predicate: "p0", Object: "T", Confidence: 0.9},
		})
		if em, err = NewEMFrom(em, s2, opt); err != nil {
			t.Fatal(err)
		}
		for len(cProb) < len(s2.Triples) {
			cProb = append(cProb, opt.Alpha)
		}
		for len(valueProb) < len(s2.Items) {
			valueProb = append(valueProb, nil)
		}
		var items, tis []int
		for d := range s2.Items {
			if d%3 == 0 || d == len(s2.Items)-1 {
				items = append(items, d)
				tis = append(tis, s2.TriplesOfItem[d]...)
			}
		}
		em.UpdatePrior(valueProb, nil, 0)
		em.BeginIteration(false)
		em.EStepTriples(cProb, tis, 0)
		em.EStepItems(cProb, valueProb, make([]float64, len(s2.Items)), make([]bool, len(s2.Items)), items, 0)
		em.MStepSources(cProb, valueProb, tis)
		wantC, wantNum := slices.Clone(ag.obsNumC), slices.Clone(ag.eNum)
		moved := 0
		for _, ti := range tis {
			for _, oi := range s2.ByTriple[ti] {
				e, c := s2.Obs[oi].E, st.conf[oi]
				if c <= 0 {
					continue
				}
				if v := st.obsNumContrib(oi, ti, e, c, cProb); v != wantC[oi] {
					wantNum[e] = wantNum[e].Sub(wantC[oi]).Add(v)
					wantC[oi] = v
					moved++
				}
			}
		}
		if moved == 0 {
			t.Fatalf("workers=%d: the partial pass moved no contribution", workers)
		}
		list0, _ := em.AggStepCounts()
		em.MStepExtractors(cProb, tis)
		if list1, _ := em.AggStepCounts(); list1 != list0+1 {
			t.Fatalf("workers=%d: the partial pass's Stage IV did not honour its list", workers)
		}
		for oi := range wantC {
			if math.Float64bits(ag.obsNumC[oi]) != math.Float64bits(wantC[oi]) {
				t.Fatalf("workers=%d list: obsNumC[%d] = %v, obsNumContrib gives %v", workers, oi, ag.obsNumC[oi], wantC[oi])
			}
		}
		for e := range wantNum {
			if ag.eNum[e] != wantNum[e] {
				t.Fatalf("workers=%d list: eNum[%d] = %v, per-observation deltas give %v", workers, e, ag.eNum[e].Float(), wantNum[e].Float())
			}
		}
	}
}

// collidingSums returns two vote sums that share a voteMemo slot.
func collidingSums() (x, y float64) {
	x = 1.5
	for y = x + 0.125; voteSlot(math.Float64bits(y)) != voteSlot(math.Float64bits(x)); y += 0.125 {
	}
	return x, y
}

// TestVoteMemoMatchesExp: Stage I's memoised exponentials leave every
// triple's odds and p(C|X) bit-equal to the direct posteriorOdds, at 1, 2 and
// 4 workers, over a full and a partial pass: on random corpora at their
// estimated votes, and with planted vote sums — +0.0 and −0.0, ±voteCap and
// past it, and two sums sharing a memo slot — spread over the attempt sets,
// of which the corpora have several, so that every block meets them
// interleaved.
func TestVoteMemoMatchesExp(t *testing.T) {
	x, y := collidingSums()
	negZero := math.Copysign(0, -1)
	planted := []float64{0, negZero, voteCap, -voteCap, 2 * voteCap, -2 * voteCap, 1e300, -1e300, x, y, -3.25}
	var m voteMemo
	for round := 0; round < 2; round++ {
		for _, v := range append(planted, x, y, 0, negZero) {
			if got, want := m.exp(v), voteExp(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("memo of %v (bits %#x) = %v, voteExp %v", v, math.Float64bits(v), got, want)
			}
		}
	}

	copt := triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// 400 sites, two predicates: about six records a cell, so that
			// cells differ in which of the four extractors attempt them.
			s := (&triple.Dataset{Records: driftRecords(rng, 400, 5000)}).Compile(copt)
			if len(s.Triples) <= 2*tripleBlock {
				t.Fatalf("%d triples, want more than two blocks of %d", len(s.Triples), tripleBlock)
			}
			opt := DefaultOptions()
			opt.Workers = workers
			em, err := NewEM(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			st := em.st
			if len(st.setAbs) < 8 {
				t.Fatalf("%d attempt sets, want several to plant masses in", len(st.setAbs))
			}
			cProb := make([]float64, len(s.Triples))
			check := func(tag string, tis []int) {
				t.Helper()
				if tis == nil {
					tis = make([]int, len(s.Triples))
					for ti := range tis {
						tis[ti] = ti
					}
				}
				for _, ti := range tis {
					vcc := st.setAbs[st.setOfCell[st.cellOfTriple[ti]]]
					for _, oi := range s.ByTriple[ti] {
						vcc += st.conf[oi] * st.voteDelta[st.obsE[oi]]
					}
					o := posteriorOdds(st.alpha[ti], vcc)
					if math.Float64bits(st.cOdds[ti]) != math.Float64bits(o) || math.Float64bits(cProb[ti]) != math.Float64bits(o/(1+o)) {
						t.Fatalf("workers %d seed %d, %s: triple %d (vote sum %v) has odds %v and p %v, posteriorOdds gives %v",
							workers, seed, tag, ti, vcc, st.cOdds[ti], cProb[ti], o)
					}
				}
			}
			var subset []int
			for ti := range s.Triples {
				if rng.Intn(3) == 0 {
					subset = append(subset, ti)
				}
			}

			em.Bootstrap(cProb)
			em.BeginIteration(true)
			em.EStepTriples(cProb, nil, workers)
			check("estimated votes", nil)
			valueProb := make([][]float64, len(s.Items))
			em.EStepItems(cProb, valueProb, make([]float64, len(s.Items)), make([]bool, len(s.Items)), nil, workers)
			em.MStepSources(cProb, valueProb, nil)
			em.MStepExtractors(cProb, nil)
			em.BeginIteration(true)
			em.EStepTriples(cProb, subset, workers)
			check("estimated votes, partial", subset)

			// A vote delta of −0.0 adds nothing to any sum, −0.0 included, so
			// every triple's vote sum is exactly its attempt set's planted
			// mass.
			for e := range st.voteDelta {
				st.voteDelta[e] = negZero
			}
			for set := range st.setAbs {
				st.setAbs[set] = planted[rng.Intn(len(planted))]
			}
			em.EStepTriples(cProb, nil, workers)
			check("planted", nil)
			em.EStepTriples(cProb, subset, workers)
			check("planted, partial", subset)
		}
	}
}
