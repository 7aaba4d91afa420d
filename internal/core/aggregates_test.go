package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// everyThirdItem returns every third item of s and their candidate triples,
// ascending: a partial pass, as a warm engine refresh runs.
func everyThirdItem(s *triple.Snapshot) (items, tis []int) {
	for d := range s.Items {
		if d%3 == 0 {
			items = append(items, d)
			tis = append(tis, s.TriplesOfItem[d]...)
		}
	}
	slices.Sort(tis)
	return items, tis
}

// TestMStepShuffledDirtyListMatchesFull: the M-steps over a list of the
// triples a pass re-estimated leave, bit for bit, the parameters, cached
// terms and sums the M-steps over every index (a nil list) leave over the same
// posteriors — whatever the list's order, for a list of every triple (which,
// naming at least half the triples, is visited as every index), under both
// absence scopes, and with the votes frozen (each observation replaces
// its cached term), refreshed (every extractor's terms recomputed whole under
// LeaveOneOut) or republished for one extractor only (that one whole, the
// other by replacement). The sums are exact, so neither the order of the
// replacements nor visiting a unit whole can move a bit. Right after an
// inclusion flip the caches are invalid, so a list is not honoured: the call
// visits every index, as a nil list does.
func TestMStepShuffledDirtyListMatchesFull(t *testing.T) {
	s := compileBlocks(t)
	thin := s.ExtractorID("thin")
	every := make([]int, len(s.Triples))
	for ti := range every {
		every[ti] = ti
	}
	type pass struct {
		name       string
		items, tis []int
	}
	var passes []pass
	items, tis := everyThirdItem(s)
	passes = append(passes, pass{"every third item", items, tis})
	// A Stage I pass over the triples on the cells thin attempts that thin
	// did not extract: thin's recall denominator moves while none of its
	// observations is visited, so it is derived from an empty task.
	type cell struct{ w, p int }
	attempted := map[cell]bool{}
	for _, oi := range s.ObsOfExtractor[thin] {
		o := s.Obs[oi]
		attempted[cell{o.W, s.PredOfItem[o.D]}] = true
	}
	var beside []int
	for ti, tr := range s.Triples {
		extracted := false
		for _, oi := range s.ByTriple[ti] {
			extracted = extracted || s.Obs[oi].E == thin
		}
		if attempted[cell{tr.W, s.PredOfItem[tr.D]}] && !extracted {
			beside = append(beside, ti)
		}
	}
	if len(beside) == 0 {
		t.Fatal("fixture: thin's cells hold no triple of another extractor's alone")
	}
	passes = append(passes, pass{"triples beside thin's", []int{}, beside})

	for _, scope := range []AbsenceScope{ScopeAttemptedSources, ScopeAllExtractors} {
		for _, votes := range []string{"frozen", "refreshed", "one republished"} {
			for _, ps := range passes {
				tag := fmt.Sprintf("scope=%d votes %s, %s", scope, votes, ps.name)
				opt := DefaultOptions()
				opt.Scope = scope
				opt.IncrementalAggregates = true
				// At Alpha 0.5 about 70 % of the triples pass p(C|X) ≥ 0.5
				// after one iteration and so carry Stage III terms, a third
				// of the pass's moving; at the default 0.25 none does.
				opt.Alpha = 0.5
				run := func(list []int) *EM {
					em, err := NewEM(s, opt)
					if err != nil {
						t.Fatal(err)
					}
					if votes == "one republished" {
						em.EnableStaleness(1)
					}
					nItem := len(s.Items)
					cProb := make([]float64, len(s.Triples))
					valueProb, restMass, covered := make([][]float64, nItem), make([]float64, nItem), make([]bool, nItem)
					em.Bootstrap(cProb)
					em.Iterate(cProb, valueProb, restMass, covered, Pass{Iter: 1, RefreshVotes: true})
					// Move every prior, then re-estimate the pass's items
					// under them.
					em.UpdatePrior(valueProb, nil, 0)
					st := em.st
					if votes == "one republished" {
						// A Tol between the two extractors' R/Q movements
						// since their votes were published republishes
						// exactly one.
						led := st.ledger
						mv0 := math.Abs(st.r[0]-led.rAt[0]) + math.Abs(st.q[0]-led.qAt[0])
						mv1 := math.Abs(st.r[1]-led.rAt[1]) + math.Abs(st.q[1]-led.qAt[1])
						if mv0 == mv1 {
							t.Fatalf("%s: fixture: both extractors moved %v", tag, mv0)
						}
						st.opt.Tol = (mv0 + mv1) / 2
					}
					em.BeginIteration(votes == "refreshed")
					em.EStepTriples(cProb, ps.tis, 0)
					em.EStepItems(cProb, valueProb, restMass, covered, ps.items, 0)
					shifted := 0
					for e := range st.pre {
						if st.pre[e] != st.agg.preAt[e] || st.ab[e] != st.agg.abAt[e] {
							shifted++
						}
					}
					if want := map[string]int{"frozen": 0, "refreshed": 2, "one republished": 1}[votes]; shifted != want {
						t.Fatalf("%s: %d extractors' votes shifted, want %d", tag, shifted, want)
					}
					list0, whole0 := em.AggStepCounts()
					em.MStepSources(cProb, valueProb, list)
					em.MStepExtractors(cProb, list)
					list1, whole1 := em.AggStepCounts()
					if honoured := list != nil && 2*len(list) < len(s.Triples); honoured && list1-list0 != 2 || !honoured && whole1-whole0 != 2 {
						t.Fatalf("%s: the M-steps honoured %d lists and visited every index %d times", tag, list1-list0, whole1-whole0)
					}
					return em
				}
				shuffled := slices.Clone(ps.tis)
				rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				want := run(nil)
				for _, l := range []struct {
					name string
					tis  []int
				}{{"ascending", ps.tis}, {"shuffled", shuffled}, {"every triple", every}} {
					sameMStep(t, tag+", "+l.name+" list", run(l.tis), want)
				}
			}
		}
	}

	// An inclusion flip: thin starts one observation short of support, and
	// an extension adds it.
	opt := DefaultOptions()
	opt.IncrementalAggregates = true
	opt.Alpha = 0.5
	opt.MinExtractorSupport = len(s.ObsOfExtractor[thin]) + 1
	rec := triple.Record{Extractor: "thin", Website: "site00.com", Page: "site00.com/x",
		Subject: "Snew", Predicate: "p0", Object: "T", Confidence: 0.9}
	run := func(list bool) *EM {
		em, err := NewEM(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		nItem := len(s.Items)
		cProb := make([]float64, len(s.Triples))
		valueProb, restMass, covered := make([][]float64, nItem), make([]float64, nItem), make([]bool, nItem)
		em.Bootstrap(cProb)
		em.Iterate(cProb, valueProb, restMass, covered, Pass{Iter: 1, RefreshVotes: true})
		if em.st.extIncluded[thin] {
			t.Fatal("fixture: thin is included before the extension")
		}
		s2 := s.Extend([]triple.Record{rec})
		if em, err = NewEMFrom(em, s2, opt); err != nil {
			t.Fatal(err)
		}
		if !em.InclusionFlipped() {
			t.Fatal("fixture: the extension flipped no inclusion")
		}
		for len(cProb) < len(s2.Triples) {
			cProb = append(cProb, opt.Alpha)
		}
		for len(valueProb) < len(s2.Items) {
			valueProb, restMass, covered = append(valueProb, nil), append(restMass, 0), append(covered, false)
		}
		em.BeginIteration(true)
		em.EStepTriples(cProb, nil, 0)
		em.EStepItems(cProb, valueProb, restMass, covered, nil, 0)
		var l []int
		if list {
			_, l = everyThirdItem(s2)
		}
		list0, whole0 := em.AggStepCounts()
		em.MStepSources(cProb, valueProb, l)
		em.MStepExtractors(cProb, l)
		if list1, whole1 := em.AggStepCounts(); list1 != list0 || whole1-whole0 != 2 {
			t.Fatalf("inclusion flip: the M-steps honoured %d lists and visited every index %d times", list1-list0, whole1-whole0)
		}
		return em
	}
	sameMStep(t, "inclusion flip, every third item's list", run(true), run(false))
}

// sameMStep fails unless got's parameters, cached terms and sums equal want's
// bit for bit.
func sameMStep(t *testing.T, tag string, got, want *EM) {
	t.Helper()
	g, w := got.st, want.st
	for _, v := range []struct {
		name      string
		got, want []float64
	}{
		{"A", g.a, w.a}, {"P", g.p, w.p}, {"R", g.r, w.r}, {"Q", g.q, w.q},
		{"aNumC", g.agg.aNumC, w.agg.aNumC}, {"aDenC", g.agg.aDenC, w.agg.aDenC},
		{"cCov", g.agg.cCov, w.agg.cCov}, {"obsNumC", g.agg.obsNumC, w.agg.obsNumC},
	} {
		for i := range v.want {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, nil list %v", tag, v.name, i, v.got[i], v.want[i])
			}
		}
	}
	for _, v := range []struct {
		name      string
		got, want []stats.Sum
	}{
		{"aNum", g.agg.aNum, w.agg.aNum}, {"aDen", g.agg.aDen, w.agg.aDen},
		{"eNum", g.agg.eNum, w.agg.eNum}, {"rDen", g.agg.rDen, w.agg.rDen},
		{"correctness mass by cell", cellMasses(g), cellMasses(w)},
	} {
		if !slices.Equal(v.got, v.want) {
			t.Fatalf("%s: %s differs from the nil list's", tag, v.name)
		}
	}
}

// TestNarrowMStepAllocatesNothing: once warm, Stages III and IV over a list of
// a few dozen triples of a corpus of more than 10k allocate nothing — grouping
// a list by unit costs O(list), not O(units), and runs in line.
func TestNarrowMStepAllocatesNothing(t *testing.T) {
	s := compileBlocks(t)
	if len(s.Triples) < 10000 {
		t.Fatalf("fixture has %d triples, want at least 10k", len(s.Triples))
	}
	opt := DefaultOptions()
	opt.IncrementalAggregates = true
	opt.Alpha = 0.5 // so that Stage III has terms to replace
	em, err := NewEM(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	nItem := len(s.Items)
	cProb := make([]float64, len(s.Triples))
	valueProb, restMass, covered := make([][]float64, nItem), make([]float64, nItem), make([]bool, nItem)
	em.Bootstrap(cProb)
	em.Iterate(cProb, valueProb, restMass, covered, Pass{Iter: 1, RefreshVotes: true})
	em.UpdatePrior(valueProb, nil, 0)
	var items, tis []int
	for d := 0; d < 16; d++ {
		items = append(items, d*97)
		tis = append(tis, s.TriplesOfItem[d*97]...)
	}
	if len(tis) < 24 || len(tis) > 96 {
		t.Fatalf("fixture: the list has %d triples, want a few dozen", len(tis))
	}
	em.BeginIteration(false)
	em.EStepTriples(cProb, tis, 0)
	em.EStepItems(cProb, valueProb, restMass, covered, items, 0)
	mstep := func() {
		em.MStepSources(cProb, valueProb, tis)
		em.MStepExtractors(cProb, tis)
	}
	mstep() // grows the scratch once
	list0, _ := em.AggStepCounts()
	if allocs := testing.AllocsPerRun(20, mstep); allocs != 0 {
		t.Fatalf("a narrow M-step allocates %v times per call", allocs)
	}
	if list1, _ := em.AggStepCounts(); list1 == list0 {
		t.Fatal("the narrow M-steps did not honour their list")
	}
}

// cellMasses returns the correctness mass of each cell's attempt set, cell by
// cell: two states that interned their sets in different orders compare equal
// when every cell sees the same mass.
func cellMasses(st *state) []stats.Sum {
	out := make([]stats.Sum, st.numCells)
	for c, set := range st.setOfCell {
		out[c] = st.setC[set]
	}
	return out
}

// TestAttemptSetGrowth: an extension under which an existing (source,
// predicate) cell gains a second attempting extractor, then a third, moves the
// cell from set to set. At each step, under both absence scopes and with and
// without a staleness ledger, the kept absence masses equal their recompute
// bit for bit, before and after the votes are prepared, and the M-steps over
// the list of the cell's items leave the recall denominators, P, R and Q of
// the M-steps over every index.
func TestAttemptSetGrowth(t *testing.T) {
	d := triple.NewDataset()
	add := func(e string, w int, subj, obj string, p int) {
		site := fmt.Sprintf("site%02d.com", w)
		d.Add(triple.Record{Extractor: e, Website: site, Page: site + "/x",
			Subject: subj, Predicate: fmt.Sprintf("p%d", p), Object: obj, Confidence: 0.9})
	}
	value := func(i int) string {
		if i%4 == 0 {
			return "F"
		}
		return "T"
	}
	for i := 0; i < 300; i++ {
		subj := fmt.Sprintf("S%03d", i)
		add("E1", i%10, subj, value(i), i%3)
		if i%10 != 0 && i%2 == 0 { // E2 and E3 never attempt site00.com
			add("E2", i%10, subj, value(i), i%3)
		}
		if i%10 != 0 && i%3 == 0 {
			add("E3", i%10, subj, "T", i%3)
		}
	}
	s0 := d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	// The cell (site00.com, p0) holds S000, S030, ..., attempted by E1 alone.
	steps := [][]triple.Record{
		{{Extractor: "E2", Website: "site00.com", Page: "site00.com/x", Subject: "S000", Predicate: "p0", Object: value(0), Confidence: 0.8},
			{Extractor: "E2", Website: "site00.com", Page: "site00.com/x", Subject: "Snew", Predicate: "p0", Object: "T", Confidence: 0.8}},
		{{Extractor: "E3", Website: "site00.com", Page: "site00.com/x", Subject: "S030", Predicate: "p0", Object: value(30), Confidence: 0.7}},
	}

	sameMasses := func(tag string, em *EM) {
		t.Helper()
		gotTotal, gotCells := em.AbsenceMasses()
		wantTotal, wantCells := em.RecomputeAbsenceMasses()
		if math.Float64bits(gotTotal) != math.Float64bits(wantTotal) || len(gotCells) != len(wantCells) {
			t.Fatalf("%s: absence masses (%v, %d cells), recomputed (%v, %d cells)", tag, gotTotal, len(gotCells), wantTotal, len(wantCells))
		}
		for c := range wantCells {
			if math.Float64bits(gotCells[c]) != math.Float64bits(wantCells[c]) {
				t.Fatalf("%s: cell %d's absence mass is %v, recomputed %v", tag, c, gotCells[c], wantCells[c])
			}
		}
	}

	for _, scope := range []AbsenceScope{ScopeAttemptedSources, ScopeAllExtractors} {
		for _, ledger := range []bool{true, false} {
			opt := DefaultOptions()
			opt.Scope = scope
			opt.IncrementalAggregates = true
			opt.MinSourceSupport, opt.MinExtractorSupport = 1, 1
			opt.Alpha = 0.5
			type run struct {
				em              *EM
				cProb, restMass []float64
				valueProb       [][]float64
				covered         []bool
			}
			var runs [2]*run // a list M-step, and one over every index
			for k := range runs {
				em, err := NewEM(s0, opt)
				if err != nil {
					t.Fatal(err)
				}
				if ledger {
					em.EnableStaleness(4)
				}
				nItem := len(s0.Items)
				r := &run{em: em, cProb: make([]float64, len(s0.Triples)), restMass: make([]float64, nItem),
					valueProb: make([][]float64, nItem), covered: make([]bool, nItem)}
				em.Bootstrap(r.cProb)
				for iter := 1; iter <= 2; iter++ {
					em.Iterate(r.cProb, r.valueProb, r.restMass, r.covered, Pass{Iter: iter, RefreshVotes: true})
				}
				runs[k] = r
			}
			s := s0
			for step, recs := range steps {
				tag := fmt.Sprintf("scope=%d ledger=%v step %d", scope, ledger, step+1)
				s = s.Extend(recs)
				c := -1
				var items, tis []int
				for _, r := range runs {
					em, err := NewEMFrom(r.em, s, opt)
					if err != nil {
						t.Fatal(err)
					}
					if em.InclusionFlipped() {
						t.Fatalf("%s: fixture: the extension flipped an inclusion", tag)
					}
					st := em.st
					c = st.cellID[int64(s.SourceID("site00.com"))<<32|int64(s.PredOfItem[s.ItemID("S000", "p0")])]
					if scope == ScopeAttemptedSources {
						if n := len(st.setMembers[st.setOfCell[c]]); n != step+2 {
							t.Fatalf("%s: the cell's attempt set has %d extractors, want %d", tag, n, step+2)
						}
					}
					for len(r.cProb) < len(s.Triples) {
						r.cProb = append(r.cProb, opt.Alpha)
					}
					for len(r.valueProb) < len(s.Items) {
						r.valueProb, r.restMass, r.covered = append(r.valueProb, nil), append(r.restMass, 0), append(r.covered, false)
					}
					sameMasses(tag+", extended", em)
					em.BeginIteration(false)
					sameMasses(tag+", votes prepared", em)
					if items == nil {
						for _, ti := range cellTriples(st, c) {
							items = append(items, s.Triples[ti].D)
						}
						slices.Sort(items)
						items = slices.Compact(items)
						for _, d := range items {
							tis = append(tis, s.TriplesOfItem[d]...)
						}
					}
					em.EStepTriples(r.cProb, tis, 0)
					em.EStepItems(r.cProb, r.valueProb, r.restMass, r.covered, items, 0)
				}
				list0, _ := runs[0].em.AggStepCounts()
				for k, r := range runs {
					var list []int
					if k == 0 {
						list = tis
					}
					r.em.MStepSources(r.cProb, r.valueProb, list)
					r.em.MStepExtractors(r.cProb, list)
				}
				if list1, _ := runs[0].em.AggStepCounts(); list1-list0 != 2 {
					t.Fatalf("%s: the M-steps honoured %d lists, want 2", tag, list1-list0)
				}
				sameMStep(t, tag, runs[0].em, runs[1].em)
			}
		}
	}
}

// cellTriples lists the candidate triples of cell c by a scan of every
// triple: the test's own index, independent of the ledger's.
func cellTriples(st *state, c int) (tis []int) {
	for ti, cc := range st.cellOfTriple {
		if cc == c {
			tis = append(tis, ti)
		}
	}
	return tis
}
