package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kbt/internal/triple"
)

// TestScopeGatherAscendingAndExact fuzzes CompileScope over the shapes a
// settling scope takes — narrow marks only (few: the sorted gather; many: the
// dense scan), some hash shards of items (triple.ShardOf) marked whole beside
// them, every item marked outright by MarkAllFull or item by item. The
// gathered item list must be strictly ascending and equal the marked set, the
// triple list exactly those items' TriplesOfItem in order; a scope of every
// item must be the nil pass; and a drifted source confined to a wholly marked
// shard that MarkStale did not record keeps its drift — a partial pass
// re-anchors exactly the units it was widened for.
func TestScopeGatherAscendingAndExact(t *testing.T) {
	// Every item has a leaf site of its own — a source whose whole reach is
	// that item — beside a hub that reaches everywhere.
	const nItems = 400
	ds := triple.NewDataset()
	for i := 0; i < nItems; i++ {
		for _, site := range []string{"hub.com", fmt.Sprintf("leaf%03d.com", i)} {
			ds.Add(triple.Record{Extractor: "E", Website: site, Page: site + "/x",
				Subject: fmt.Sprintf("S%03d", i), Predicate: "p", Object: fmt.Sprintf("v%d", i%3)})
		}
	}
	s := ds.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	leafOf := func(d int) int { return int(s.Triples[s.TriplesOfItem[d][1]].W) }

	sc := NewScopeSet()
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nShards := []int{1, 3, 8, 32}[trial%4]
		em, err := NewEM(s, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		em.EnableStaleness()
		led := em.st.ledger
		itemsOf := make([][]int, nShards)
		for d := range s.Items {
			si := s.ItemShard(d, nShards)
			itemsOf[si] = append(itemsOf[si], d)
		}

		sc.Reset(nItems)
		marked := make([]bool, nItems)
		all := false
		mark := func(d int) {
			sc.Mark(d)
			marked[d] = true
		}
		saturate := func(si int) {
			for _, d := range itemsOf[si] {
				mark(d)
			}
		}
		saturated := -1
		switch shape := trial % 5; shape {
		case 0, 1: // narrow marks only: a handful, or a large share
			n := rng.Intn(12) + 1
			if shape == 1 {
				n = nItems/8 + rng.Intn(nItems/2)
			}
			for i := 0; i < n; i++ {
				mark(rng.Intn(nItems))
			}
		case 2: // some shards saturated, narrow marks beside them
			for i := rng.Intn(8); i >= 0; i-- {
				mark(rng.Intn(nItems))
			}
			for i := rng.Intn(max(nShards/2, 1)); i >= 0; i-- {
				saturate(rng.Intn(nShards))
			}
		case 3: // one shard saturated, and a leaf in it drifted
			saturated = rng.Intn(nShards)
			for len(itemsOf[saturated]) == 0 {
				saturated = (saturated + 1) % nShards
			}
			saturate(saturated)
			for i := rng.Intn(6); i > 0; i-- {
				mark(rng.Intn(nItems))
			}
		case 4: // every item, outright or by saturating every shard
			if rng.Intn(2) == 0 {
				sc.MarkAllFull()
				all = true
			}
			for si := range itemsOf {
				saturate(si)
			}
		}
		var wantItems, wantTris []int
		for d := range s.Items {
			if marked[d] {
				wantItems = append(wantItems, d)
				wantTris = append(wantTris, ints(s.TriplesOfItem[d])...)
			}
		}
		// A drifted leaf source inside and one outside the saturated shard.
		in, out := -1, -1
		if saturated >= 0 {
			in = leafOf(itemsOf[saturated][0])
			for d := range s.Items {
				if !marked[d] {
					out = leafOf(d)
					break
				}
			}
			led.srcDrift[in] = 1
			if out >= 0 {
				led.srcDrift[out] = 1
			}
		}

		items, tris := em.CompileScope(sc)
		tag := fmt.Sprintf("trial %d (%d shards)", trial, nShards)
		if all || len(wantItems) == nItems {
			if !sc.AllFull() || items != nil || tris != nil {
				t.Fatalf("%s: a scope of every item must compile to the nil pass; AllFull=%v, %d items", tag, sc.AllFull(), len(items))
			}
		} else {
			if sc.AllFull() || items == nil || tris == nil {
				t.Fatalf("%s: partial scope compiled to AllFull=%v or a nil list, which the kernels read as every index", tag, sc.AllFull())
			}
			for k := 1; k < len(items); k++ {
				if items[k] <= items[k-1] {
					t.Fatalf("%s: gathered items not strictly ascending at %d: %d after %d", tag, k, items[k], items[k-1])
				}
			}
			if !slices.Equal(items, wantItems) {
				t.Fatalf("%s: gathered %d items, brute force has %d", tag, len(items), len(wantItems))
			}
			if !slices.Equal(tris, wantTris) {
				t.Fatalf("%s: gathered triples are not the items' TriplesOfItem in order", tag)
			}
		}
		if saturated >= 0 && !sc.AllFull() {
			em.SettleScopes(sc)
			if led.srcDrift[in] != 1 {
				t.Fatalf("%s: source confined to the saturated shard was settled without being recorded", tag)
			}
			if out >= 0 && led.srcDrift[out] != 1 {
				t.Fatalf("%s: source outside the scope was settled", tag)
			}
		}
	}
}

// TestBroadSourceStalesWholeCorpus: a drifted source on a quarter or more of
// the triples marks every item, even items it has no triple on — the same
// rule as a broad extractor — and the pass over that scope is the nil pass,
// after which every unit's drift is reset.
func TestBroadSourceStalesWholeCorpus(t *testing.T) {
	const nItems = 64
	ds := triple.NewDataset()
	for i := 0; i < nItems; i++ {
		sites := []string{fmt.Sprintf("leaf%02d.com", i)}
		if i%8 != 0 {
			sites = append(sites, "broad.com")
		}
		for _, site := range sites {
			ds.Add(triple.Record{Extractor: "E", Website: site, Page: site + "/x",
				Subject: fmt.Sprintf("S%02d", i), Predicate: "p", Object: fmt.Sprintf("v%d", i%3)})
		}
	}
	s := ds.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	opt := DefaultOptions()
	em, err := NewEM(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	em.EnableStaleness()
	st, led := em.st, em.st.ledger
	broad := s.SourceID("broad.com")
	if broad < 0 || !st.broadSource(broad) || !st.srcIncluded[broad] {
		t.Fatalf("broad.com (id %d) must be an included source on a quarter of the triples", broad)
	}
	if len(s.TriplesOfSource[broad]) >= nItems {
		t.Fatal("broad.com reaches every item; the test needs one it misses")
	}

	// The broad source crosses Tol; a leaf and the extractor carry sub-Tol
	// residue, which a pass over every item re-anchors too.
	led.srcDrift[broad] = opt.Tol
	leaf := s.SourceID("leaf00.com")
	led.srcDrift[leaf] = opt.Tol / 2
	led.extDrift[0] = opt.Tol / 2

	sc := NewScopeSet()
	sc.Reset(len(s.Items))
	if added := em.MarkStale(opt.Tol, sc); added == 0 || !sc.AllFull() {
		t.Fatalf("MarkStale added %d marks, AllFull=%v; want the whole corpus", added, sc.AllFull())
	}
	if items, tris := em.CompileScope(sc); items != nil || tris != nil {
		t.Fatalf("scope compiled to %d items, %d triples; want the nil pass", len(items), len(tris))
	}
	em.SettleScopes(sc)
	for w, d := range led.srcDrift {
		if d != 0 {
			t.Fatalf("source %d kept drift %g after a pass over every item", w, d)
		}
	}
	for e, d := range led.extDrift {
		if d != 0 {
			t.Fatalf("extractor %d kept drift %g after a pass over every item", e, d)
		}
	}
}

// TestCompileScopeEveryItemMarked: narrow marks on every item compile to the
// scope of every item — AllFull, the nil pass — and the pass over it
// re-anchors every unit.
func TestCompileScopeEveryItemMarked(t *testing.T) {
	ds := triple.NewDataset()
	for i, site := range []string{"a.com", "b.com"} {
		ds.Add(triple.Record{Extractor: "E", Website: site, Page: site + "/x",
			Subject: fmt.Sprintf("S%d", i), Predicate: "p", Object: "v"})
	}
	s := ds.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	em, err := NewEM(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	em.EnableStaleness()
	led := em.st.ledger
	if len(s.Items) != 2 {
		t.Fatalf("fixture: %d items, want 2", len(s.Items))
	}
	led.srcDrift[0], led.extDrift[0] = 1, 1

	sc := NewScopeSet()
	sc.Reset(len(s.Items))
	for d := range s.Items {
		sc.Mark(d)
	}
	if items, tris := em.CompileScope(sc); !sc.AllFull() || items != nil || tris != nil {
		t.Fatalf("marks on every item compiled to AllFull=%v, %d items, %d triples; want the nil pass", sc.AllFull(), len(items), len(tris))
	}
	em.SettleScopes(sc)
	if led.srcDrift[0] != 0 || led.extDrift[0] != 0 {
		t.Fatalf("drift (%g, %g) kept after a pass over every item", led.srcDrift[0], led.extDrift[0])
	}
}

// driftRecords draws n random records over nSites websites, four extractors,
// 50 subjects of two predicates and three objects, some with a confidence.
func driftRecords(rng *rand.Rand, nSites, n int) []triple.Record {
	recs := make([]triple.Record, n)
	for i := range recs {
		site := fmt.Sprintf("s%02d.com", rng.Intn(nSites))
		recs[i] = triple.Record{Extractor: fmt.Sprintf("E%d", rng.Intn(4)), Website: site, Page: site + "/x",
			Subject: fmt.Sprintf("S%02d", rng.Intn(50)), Predicate: fmt.Sprintf("p%d", rng.Intn(2)),
			Object: fmt.Sprintf("v%d", rng.Intn(3)), Confidence: float64(rng.Intn(3)) * 0.4}
	}
	return recs
}

// TestSourceDriftChargedWhereAIsWritten: deriveA, the one M-step writer of A,
// charges each source's movement as it writes it. Over EM iterations with no
// settle between them — full and partial passes, M-steps over every index and
// over lists, at Workers 1, 2 and 4 — srcDrift must equal, bit for bit, the sum over
// iterations of |A after − A before| kept here; a source NewEMFrom adds starts
// at 0, and SetSourceVoteWeights' charge adds on top. The charge moves no
// estimate: Run, which never enables a ledger, lands on the identical A.
func TestSourceDriftChargedWhereAIsWritten(t *testing.T) {
	copt := triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			tag := fmt.Sprintf("workers %d, seed %d", workers, seed)
			rng := rand.New(rand.NewSource(seed))
			opt := DefaultOptions()
			opt.Workers = workers
			opt.IncrementalAggregates = true
			opt.MaxIter = 4
			opt.Tol = 1e-15
			snap := (&triple.Dataset{Records: driftRecords(rng, 12, 300)}).Compile(copt)
			ref, err := Run(snap, opt)
			if err != nil {
				t.Fatal(err)
			}
			em, err := NewEM(snap, opt)
			if err != nil {
				t.Fatal(err)
			}
			em.EnableStaleness()

			want := make([]float64, snap.NumSources())
			var cProb, restMass []float64
			var valueProb [][]float64
			var covered []bool
			alloc := func() {
				cProb, restMass = make([]float64, len(snap.Triples)), make([]float64, len(snap.Items))
				valueProb, covered = make([][]float64, len(snap.Items)), make([]bool, len(snap.Items))
			}
			iterate := func(items []int, refreshVotes, prior bool) {
				before := slices.Clone(em.A())
				var tris []int
				if items != nil {
					tris = []int{}
					for _, d := range items {
						tris = append(tris, ints(snap.TriplesOfItem[d])...)
					}
				}
				em.BeginIteration(refreshVotes)
				em.EStepTriples(cProb, tris, workers)
				em.EStepItems(cProb, valueProb, restMass, covered, items, workers)
				em.MStepSources(cProb, valueProb, tris)
				em.MStepExtractors(cProb, tris)
				if prior {
					em.UpdatePrior(valueProb, tris, workers)
				}
				for w, a := range em.A() {
					want[w] += math.Abs(a - before[w])
				}
			}
			check := func(what string) {
				t.Helper()
				got := em.st.ledger.srcDrift
				if len(got) != len(want) {
					t.Fatalf("%s, %s: ledger holds %d sources, want %d", tag, what, len(got), len(want))
				}
				for w := range want {
					if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
						t.Fatalf("%s, %s: source %d drift %v, want %v", tag, what, w, got[w], want[w])
					}
				}
			}

			// Cold, in Run's own sequence of calls.
			alloc()
			em.Bootstrap(cProb)
			for iter := 1; iter <= opt.MaxIter; iter++ {
				iterate(nil, true, opt.UpdatePrior && iter+1 >= opt.UpdatePriorFromIter)
			}
			check("cold")
			if ref.Iterations != opt.MaxIter {
				t.Fatalf("%s: Run converged in %d iterations; the comparison needs %d", tag, ref.Iterations, opt.MaxIter)
			}
			for w, a := range em.A() {
				if math.Float64bits(ref.AAt(w)) != math.Float64bits(a) {
					t.Fatalf("%s: source %d: Run estimates %v, the charged EM %v", tag, w, ref.AAt(w), a)
				}
			}

			// Warm: the first step extends, which builds the indexes M-steps
			// over a list read, as every warm engine refresh does.
			for step := 0; step < 30; step++ {
				var what string
				op := rng.Intn(4)
				if step == 0 {
					op = 3
				}
				switch op {
				case 0:
					what = "partial pass"
					items := []int{}
					for d := range snap.Items {
						if rng.Intn(5) == 0 {
							items = append(items, d)
						}
					}
					iterate(items, rng.Intn(2) == 0, true)
				case 1:
					what = "full pass"
					iterate(nil, rng.Intn(2) == 0, true)
				case 2:
					what = "vote weights"
					old := slices.Clone(em.SourceVoteWeights())
					weights := make([]float64, rng.Intn(snap.NumSources()+1))
					for w := range weights {
						weights[w] = 1 - 0.7*rng.Float64()*float64(rng.Intn(2))
					}
					em.SetSourceVoteWeights(weights)
					for w := range want {
						ow, nw := 1.0, 1.0
						if old != nil {
							ow = old[w]
						}
						if w < len(weights) {
							nw = weights[w]
						}
						want[w] += math.Abs(nw - ow)
					}
				case 3:
					what = "extension"
					snap = snap.Extend(driftRecords(rng, 16, 40))
					if em, err = NewEMFrom(em, snap, opt); err != nil {
						t.Fatal(err)
					}
					want = grow(want, snap.NumSources(), 0)
					check(what)
					alloc()
					iterate(nil, true, true)
				}
				check(fmt.Sprintf("step %d, %s", step, what))
			}
		}
	}
}

// TestSettleSchedule drives Settle with scripted steps and pins its schedule:
// a first pass whose scope reaches past the footprint is an escalation; a
// settled pass whose successor scope adds items takes another pass; a final
// pass that did not settle marks no successor scope; the iterations never
// exceed maxIter; and only a settled pass with nothing stale converges. The
// scripted cases name each rule, and random scripts check the bounds and the
// call order of every schedule.
func TestSettleSchedule(t *testing.T) {
	// run plays a script: widen returns stale[k] on its k-th call (0 past
	// the end), pass settles[iter-1] (false past the end). The log reads
	// "w" per widen, "eN"/"pN" per enter/pass of iteration N.
	run := func(maxIter int, stale []int, settles []bool) (log []string, iters int, conv bool, esc int) {
		widens := 0
		widen := func() int {
			log = append(log, "w")
			widens++
			if widens <= len(stale) {
				return stale[widens-1]
			}
			return 0
		}
		enter := func(iter int) { log = append(log, fmt.Sprintf("e%d", iter)) }
		pass := func(iter int) bool {
			log = append(log, fmt.Sprintf("p%d", iter))
			return iter <= len(settles) && settles[iter-1]
		}
		iters, conv, esc = Settle(maxIter, widen, enter, pass)
		return log, iters, conv, esc
	}
	for _, c := range []struct {
		name    string
		maxIter int
		stale   []int
		settles []bool
		log     string
		iters   int
		conv    bool
		esc     int
	}{
		{"first pass beyond the footprint escalates", 5, []int{3, 0}, []bool{true},
			"w e1 p1 w", 1, true, 1},
		{"settled step whose widen adds items passes again", 5, []int{0, 2, 0}, []bool{true, true},
			"w e1 p1 w e2 p2 w", 2, true, 1},
		{"unsettled final pass calls no widen", 2, []int{0, 0}, []bool{false, false},
			"w e1 p1 w e2 p2", 2, false, 0},
		{"settled final pass with stale items stops unconverged", 1, []int{0, 4}, []bool{true},
			"w e1 p1 w", 1, false, 0},
		{"unsettled pass with nothing stale continues", 3, []int{0, 0, 0}, []bool{false, true},
			"w e1 p1 w e2 p2 w", 2, true, 0},
	} {
		log, iters, conv, esc := run(c.maxIter, c.stale, c.settles)
		if got := strings.Join(log, " "); got != c.log || iters != c.iters || conv != c.conv || esc != c.esc {
			t.Errorf("%s: log %q, %d iterations, converged %v, %d escalations; want %q, %d, %v, %d",
				c.name, got, iters, conv, esc, c.log, c.iters, c.conv, c.esc)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		maxIter := rng.Intn(6) + 1
		stale := make([]int, maxIter+1)
		settles := make([]bool, maxIter)
		for i := range stale {
			stale[i] = rng.Intn(3) * rng.Intn(2)
		}
		for i := range settles {
			settles[i] = rng.Intn(2) == 0
		}
		log, iters, conv, esc := run(maxIter, stale, settles)
		tag := fmt.Sprintf("trial %d (maxIter %d, stale %v, settles %v): log %q", trial, maxIter, stale, settles, log)
		if iters < 1 || iters > maxIter {
			t.Fatalf("%s: %d iterations", tag, iters)
		}
		// The log is w, then per iteration "eN pN" and a widen unless the
		// final pass did not settle.
		want, widens := []string{"w"}, 1
		for it := 1; it <= iters; it++ {
			want = append(want, fmt.Sprintf("e%d", it), fmt.Sprintf("p%d", it))
			if it < iters || settles[it-1] || it < maxIter {
				want = append(want, "w")
				widens++
			}
		}
		if !slices.Equal(log, want) {
			t.Fatalf("%s: want %q", tag, want)
		}
		wantEsc := 0
		for k := 0; k < iters; k++ {
			if stale[k] > 0 {
				wantEsc++
			}
		}
		if esc != wantEsc {
			t.Fatalf("%s: %d escalations, want %d", tag, esc, wantEsc)
		}
		if last := settles[iters-1] && stale[widens-1] == 0; conv != last {
			t.Fatalf("%s: converged %v, last pass settled %v with %d stale", tag, conv, settles[iters-1], stale[widens-1])
		}
	}
}
