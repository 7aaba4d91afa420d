package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"kbt/internal/copydetect"
	"kbt/internal/fusion"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// resultEvidence adapts a published generation to the detector's evidence
// interface — the same adaptation Refresh feeds the tracker, but built from
// the immutable Result instead of the working arrays.
func resultEvidence(r *Result) copydetect.Evidence {
	g := r.Inference
	return copydetect.Evidence{
		ValueProb: func(d, v int) float64 {
			vs := r.Snapshot.ItemValues[d]
			if k := sort.SearchInts(vs, v); k < len(vs) && vs[k] == v {
				return g.ValueRow(d)[k]
			}
			return 0
		},
		Accuracy: func(w int) float64 { return g.AAt(w) },
		Provides: func(ti int) bool { return g.CProbAt(ti) >= 0.5 },
	}
}

// TestFuzzCopyFusionMatchOracle drives randomized ingest schedules through an
// engine with streaming copy detection and fusion enabled, against the
// FullRecompile oracle (batch Detect + full-aggregation fusion). After every
// refresh:
//
//   - the streaming dependence list must be deep-equal to a fresh batch
//     Detect over the generation the engine just published (the tracker's
//     exactness claim: identical integer counts, posteriors, and order),
//   - the fusion views of the two engines must agree bit for bit, and
//   - a NoOp refresh must carry the copy and fusion layers unchanged.
func TestFuzzCopyFusionMatchOracle(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))

		opt := DefaultOptions()
		opt.Shards = []int{1, 3, 8}[trial%3]
		opt.Core.MaxIter = rng.Intn(5) + 3
		opt.Core.MinSourceSupport = rng.Intn(2) + 1
		if trial%4 < 2 {
			opt.Core.Tol = 1e-4
		}
		opt.CopyDetect = true
		opt.Copy = copydetect.DefaultOptions()
		opt.Copy.MinOverlap = rng.Intn(3) + 1
		if trial%2 == 0 {
			opt.Copy.Threshold = 0 // compare the full scored surface
		}
		opt.Fusion = true
		opt.Fuse = fusion.DefaultOptions()
		opt.Fuse.MinSupport = rng.Intn(3) + 1
		opt.Fuse.MaxIter = rng.Intn(4) + 2
		if trial%3 == 1 {
			opt.Fuse.Model = fusion.PopAccu
		}

		fast := New(opt)
		oracleOpt := opt
		oracleOpt.FullRecompile = true
		oracle := New(oracleOpt)

		recs := randomStream(rng, rng.Intn(180)+60)
		start := 0
		step := 0
		for start < len(recs) {
			var batch []triple.Record
			switch rng.Intn(6) {
			case 0:
				// Resume / no-op refresh.
			case 1:
				if start > 0 {
					k := min(rng.Intn(3)+1, start)
					batch = recs[start-k : start]
				}
			case 2, 3:
				n := min(rng.Intn(8)+1, len(recs)-start)
				batch = recs[start : start+n]
				start += n
			default:
				n := rng.Intn(len(recs)-start) + 1
				batch = recs[start : start+n]
				start += n
			}
			if err := fast.Ingest(batch...); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Ingest(batch...); err != nil {
				t.Fatal(err)
			}
			if fast.Len() == 0 {
				continue
			}
			prevGen := fast.Last()
			got, err := fast.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("trial %d step %d (shards=%d minov=%d thr=%g fuse=%d)",
				trial, step, opt.Shards, opt.Copy.MinOverlap, opt.Copy.Threshold, opt.Fuse.Model)
			step++

			if got.NoOp {
				// The evidence did not move: the copy and fusion layers must
				// be carried, not recomputed.
				if prevGen == nil || !reflect.DeepEqual(got.CopyDeps, prevGen.CopyDeps) ||
					got.Fusion != prevGen.Fusion || got.FusionSnap != prevGen.FusionSnap {
					t.Fatalf("%s: NoOp refresh did not carry the copy/fusion layers", tag)
				}
				if got.FusedItems != 0 || got.FusionIterations != 0 {
					t.Fatalf("%s: NoOp refresh reports fusion work (%d items, %d iters)",
						tag, got.FusedItems, got.FusionIterations)
				}
			}

			// Streaming copy detection is pinned to the batch detector over
			// the engine's own published generation.
			wantDeps, err := copydetect.Detect(got.Snapshot, resultEvidence(got), opt.Copy)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.CopyDeps, wantDeps) {
				t.Fatalf("%s: streaming deps diverge from batch Detect\n got  %+v\n want %+v",
					tag, got.CopyDeps, wantDeps)
			}
			if got.CopyPairs != len(got.CopyDeps) {
				t.Fatalf("%s: CopyPairs %d != len(CopyDeps) %d", tag, got.CopyPairs, len(got.CopyDeps))
			}

			// Fusion across engines: identical partial-pass structure, only
			// the M-step aggregation differs — and its sums are exact.
			gf, wf := got.Fusion, want.Fusion
			if gf == nil || wf == nil {
				t.Fatalf("%s: missing fusion result (fast %v, oracle %v)", tag, gf == nil, wf == nil)
			}
			if !reflect.DeepEqual(gf.Updated, wf.Updated) || !reflect.DeepEqual(gf.CoveredItem, wf.CoveredItem) {
				t.Fatalf("%s: fusion participation/coverage diverges", tag)
			}
			if gf.Iterations != wf.Iterations {
				t.Fatalf("%s: fusion iterations = %d, oracle %d", tag, gf.Iterations, wf.Iterations)
			}
			if !sameBits(gf.Accuracy, wf.Accuracy) {
				t.Fatalf("%s: fusion accuracy diverges: max |Δ| = %g", tag, maxAbsDiff(gf.Accuracy, wf.Accuracy))
			}
			if !sameBits(gf.RestMass, wf.RestMass) {
				t.Fatalf("%s: fusion rest mass diverges: max |Δ| = %g", tag, maxAbsDiff(gf.RestMass, wf.RestMass))
			}
			for di := range gf.ValueProb {
				if !sameBits(gf.ValueProb[di], wf.ValueProb[di]) {
					t.Fatalf("%s: fusion posterior of item %d diverges: max |Δ| = %g", tag, di,
						maxAbsDiff(gf.ValueProb[di], wf.ValueProb[di]))
				}
			}
			if !got.NoOp {
				assertSnapshotsBitIdentical(t, tag+" (fusion)", got.FusionSnap, want.FusionSnap)
			}
		}
	}
}

// copierStream builds a deterministic corpus with five mostly-independent
// sites, an "orig" site with distinctive mistakes on every third item, and a
// "copier" site echoing orig verbatim — mistakes included.
func copierStream() []triple.Record {
	const nItems = 40
	var recs []triple.Record
	value := func(site, i int) string {
		switch {
		case site < 5 && (i+site)%7 == 0:
			return fmt.Sprintf("err%d", site) // independent sites err rarely, each their own way
		case site >= 5 && i%3 == 0:
			return "wrong" // orig's distinctive mistake, echoed by the copier
		default:
			return fmt.Sprintf("true%d", i)
		}
	}
	for site := 0; site < 7; site++ {
		website := fmt.Sprintf("site%d.com", site)
		if site == 5 {
			website = "orig.com"
		} else if site == 6 {
			website = "copier.com"
		}
		for i := 0; i < nItems; i++ {
			recs = append(recs, triple.Record{
				Extractor: "E", Website: website, Page: website + "/x",
				Subject: fmt.Sprintf("S%d", i), Predicate: "p",
				Object: value(site, i), Confidence: 0.9,
			})
		}
	}
	return recs
}

// TestCopyDiscountConverges exercises the vote-discount feedback loop on the
// planted copier corpus: the copier must be detected and discounted, the
// discounted copier must lose Stage II weight while independents keep theirs,
// the feedback must reach a NoOp fixed point within a bounded number of
// refreshes, and the incremental engine must track the FullRecompile oracle
// through the whole loop.
func TestCopyDiscountConverges(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 4
	opt.Core.MinSourceSupport = 1
	opt.CopyDetect = true
	opt.CopyDiscount = true
	opt.Fusion = true

	fast := New(opt)
	oracleOpt := opt
	oracleOpt.FullRecompile = true
	oracle := New(oracleOpt)

	recs := copierStream()
	// Two ingest batches, then resume refreshes until the discount feedback
	// settles into a NoOp.
	half := len(recs) / 2
	batches := [][]triple.Record{recs[:half], recs[half:]}
	var got, want *Result
	for bi, batch := range batches {
		if err := fast.Ingest(batch...); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Ingest(batch...); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = fast.Refresh(); err != nil {
			t.Fatal(err)
		}
		if want, err = oracle.Refresh(); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(aOf(got.Inference), aOf(want.Inference)); d != 0 {
			t.Fatalf("batch %d: accuracies diverge from oracle by %g", bi, d)
		}
		assertKeptVotes(t, fmt.Sprintf("batch %d", bi), fast)
	}
	settled := false
	for i := 0; i < 30; i++ {
		var err error
		if got, err = fast.Refresh(); err != nil {
			t.Fatal(err)
		}
		if want, err = oracle.Refresh(); err != nil {
			t.Fatal(err)
		}
		// Every refresh here ends by installing discounts: vote weights move.
		assertKeptVotes(t, fmt.Sprintf("feedback refresh %d", i), fast)
		if got.NoOp {
			settled = true
			break
		}
	}
	if !settled {
		t.Fatal("discount feedback did not reach a NoOp fixed point in 30 refreshes")
	}
	if d := maxAbsDiff(aOf(got.Inference), aOf(want.Inference)); d != 0 {
		t.Fatalf("settled accuracies diverge from oracle by %g", d)
	}

	origID := got.Snapshot.SourceID("orig.com")
	copierID := got.Snapshot.SourceID("copier.com")
	found := false
	for _, dep := range got.CopyDeps {
		a, b := dep.A, dep.B
		if (a == origID && b == copierID) || (a == copierID && b == origID) {
			found = true
			if dep.Posterior < 0.9 {
				t.Fatalf("orig/copier dependence posterior %g, want ≥ 0.9", dep.Posterior)
			}
		}
	}
	if !found {
		t.Fatalf("planted orig/copier pair not in dependence list: %+v", got.CopyDeps)
	}

	weights := fast.em.SourceVoteWeights()
	if weights == nil {
		t.Fatal("discount left no vote weights on the EM state")
	}
	if weights[copierID] >= 1 == (weights[origID] >= 1) {
		t.Fatalf("exactly one of orig/copier should be discounted: orig %g, copier %g",
			weights[origID], weights[copierID])
	}
	for w, wt := range weights {
		if w != copierID && w != origID && wt != 1 {
			t.Fatalf("independent source %d discounted to %g", w, wt)
		}
	}
}

// TestCopyFusionJoinedOnError fails a refresh after begin has started the
// fusion pass on its goroutine. The error return must still wait for the pass
// — it reads the run that the return then clears, which is what the race
// detector checks here — and the engine must stay usable: the retry offers the
// fusion store the records it already holds, which must add no observation.
func TestCopyFusionJoinedOnError(t *testing.T) {
	opt := DefaultOptions()
	opt.Fusion = true
	opt.Core.N = 0 // refused where buildState builds the EM state
	e := New(opt)
	recs := copierStream()
	if err := e.Ingest(recs...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Refresh(); err == nil {
			t.Fatal("Refresh accepted Core.N = 0")
		}
		if e.fus == nil || e.fus.Snapshot() == nil {
			t.Fatal("Refresh returned before its fusion pass had run")
		}
		if n := len(e.fus.Snapshot().Obs); n != len(recs) {
			t.Fatalf("fusion store holds %d observations after refresh %d, want %d", n, i+1, len(recs))
		}
		if e.run.tab != nil {
			t.Fatal("Refresh returned without clearing its run")
		}
	}
}

// TestCopyFusionSettlesAtEngineTol: with Fuse left zero, the fusion store
// takes the engine's iteration cap and tolerance, so on a web stream at the
// serve settings (MaxIter 30, Tol 1e-4) its warm refreshes settle and re-fuse
// only part of the corpus — at the paper's 5 iterations and 1e-9 every one
// re-fuses every item. Each refresh's fusion result is bit-equal to a
// standalone fusion.Incremental fed the same batches at the derived options.
func TestCopyFusionSettlesAtEngineTol(t *testing.T) {
	p := websim.DefaultParams().Scale(0.3)
	p.Seed = 9
	world, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := world.Dataset.Records

	opt := DefaultOptions()
	opt.Core.MaxIter = 30
	opt.Core.Tol = 1e-4
	opt.Fusion = true
	e := New(opt)
	fopt := fusion.DefaultOptions()
	fopt.MaxIter, fopt.Tol = opt.Core.MaxIter, opt.Core.Tol
	ref, err := fusion.NewIncremental(fopt, triple.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const batch = 100
	partial := 0
	for start := 0; start < len(recs); start += batch {
		end := min(start+batch, len(recs))
		if err := e.Ingest(recs[start:end]...); err != nil {
			t.Fatal(err)
		}
		got, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Refresh(recs[:end], recs[start:end])
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("batch at %d", start)
		gf := got.Fusion
		if gf.Iterations != want.Iterations || got.FusedItems != ref.FusedLast() {
			t.Fatalf("%s: %d iterations over %d items, standalone %d over %d",
				tag, gf.Iterations, got.FusedItems, want.Iterations, ref.FusedLast())
		}
		if !reflect.DeepEqual(gf.Updated, want.Updated) || !reflect.DeepEqual(gf.CoveredItem, want.CoveredItem) {
			t.Fatalf("%s: fusion participation/coverage diverges from the standalone store", tag)
		}
		if !sameBits(gf.Accuracy, want.Accuracy) || !sameBits(gf.RestMass, want.RestMass) ||
			len(gf.ValueProb) != len(want.ValueProb) {
			t.Fatalf("%s: fusion parameters diverge from the standalone store", tag)
		}
		for di := range gf.ValueProb {
			if !sameBits(gf.ValueProb[di], want.ValueProb[di]) {
				t.Fatalf("%s: fused posterior of item %d diverges from the standalone store", tag, di)
			}
		}
		if start > 0 && got.FusedItems < len(got.FusionSnap.ItemValues) {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no warm refresh re-fused fewer items than the fusion snapshot holds")
	}
	t.Logf("%d of %d warm refreshes partial", partial, (len(recs)-1)/batch)
}

// TestNoOpWaitsForFusion: with nothing pending each layer resumes only while
// its last result is unconverged, and NoOp waits for both. The corpus is
// ingested whole, then refreshed until NoOp under two caps: the multi-layer
// estimate converges within its 30 iterations while fusion, capped at 2,
// takes many resumes; and the reverse. Every generation's fusion result must
// equal a standalone store's refreshed the same way — Refresh(recs, recs),
// then Refresh(recs, nil) while its last result is unconverged. A converged
// layer must be carried while the other resumes, and the first NoOp must
// have both layers converged.
func TestNoOpWaitsForFusion(t *testing.T) {
	p := websim.DefaultParams().Scale(0.3)
	p.Seed = 9
	world, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := world.Dataset.Records
	for _, caps := range [][2]int{{30, 2}, {2, 30}} {
		opt := DefaultOptions()
		opt.Core.MaxIter = caps[0]
		opt.Core.Tol = 1e-4
		opt.Fusion = true
		opt.Fuse = fusion.DefaultOptions()
		opt.Fuse.MaxIter, opt.Fuse.Tol = caps[1], 1e-4
		e := New(opt)
		if err := e.Ingest(recs...); err != nil {
			t.Fatal(err)
		}
		ref, err := fusion.NewIncremental(opt.Fuse, triple.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Refresh(recs, recs)
		if err != nil {
			t.Fatal(err)
		}
		carried := 0
		var prev *Result
		for k := 0; ; k++ {
			tag := fmt.Sprintf("caps %v, refresh %d", caps, k)
			if k == 100 {
				t.Fatalf("%s: no NoOp", tag)
			}
			if k > 0 && !want.Converged {
				if want, err = ref.Refresh(recs, nil); err != nil {
					t.Fatal(err)
				}
			}
			got, err := e.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Fusion, want) {
				t.Fatalf("%s: fusion result diverges from the standalone store's (%d against %d iterations)",
					tag, got.Fusion.Iterations, want.Iterations)
			}
			if got.NoOp {
				if !got.Inference.Converged || !got.Fusion.Converged {
					t.Fatalf("%s: NoOp with the estimate converged %v and fusion converged %v",
						tag, got.Inference.Converged, got.Fusion.Converged)
				}
				if carried == 0 {
					t.Fatalf("%s: no layer was carried while the other resumed; the fixture no longer exercises the resume rule", tag)
				}
				break
			}
			switch {
			case prev == nil:
			case prev.Inference.Converged:
				// Only fusion resumed: none of the multi-layer phases ran.
				if got.Inference.Iterations != 0 || got.Snapshot != prev.Snapshot || got.FirstPassShards != 0 ||
					got.FusedItems == 0 || got.Times.Settle != 0 || got.Times.Fuse == 0 {
					t.Fatalf("%s: a fusion-only resume reports %d iterations, %d first-pass shards, %d fused items, times %+v",
						tag, got.Inference.Iterations, got.FirstPassShards, got.FusedItems, got.Times)
				}
				carried++
			case prev.Fusion.Converged:
				// Only the estimate resumed: fusion is carried as it was.
				if got.Fusion != prev.Fusion || got.FusedItems != 0 || got.FusionIterations != 0 || got.Times.Fuse != 0 {
					t.Fatalf("%s: the converged fusion layer was not carried (%d items, %d iterations re-fused)",
						tag, got.FusedItems, got.FusionIterations)
				}
				carried++
			}
			prev = got
		}
	}
}

// TestCappedRefreshCounts: the engine counts, cumulatively, the refreshes
// whose estimate and whose fusion pass ran and stopped at MaxIter unconverged,
// as each published generation says (a refresh that ran fusion reports its
// iterations; one that carried a layer converged in it). On the websim seed-9
// stream in batches of 100 at MaxIter 30, Tol 1e-4, with fusion on, the warm
// estimate stops at the cap again and again; on a stream of settled shape, one
// where every item is agreed by every site and extractor, nothing does.
func TestCappedRefreshCounts(t *testing.T) {
	p := websim.DefaultParams().Scale(0.3)
	p.Seed = 9
	world, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		recs       []triple.Record
		wantCapped bool
	}{
		{"websim seed 9", world.Dataset.Records, true},
		{"settled", localDataset(400), false},
	} {
		opt := DefaultOptions()
		opt.Core.MaxIter = 30
		opt.Core.Tol = 1e-4
		opt.Fusion = true
		e := New(opt)
		var core, fused int
		for lo := 0; lo < len(tc.recs); lo += 100 {
			if err := e.Ingest(tc.recs[lo:min(lo+100, len(tc.recs))]...); err != nil {
				t.Fatal(err)
			}
			res, err := e.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Inference.Converged {
				core++
			}
			if res.FusionIterations > 0 && !res.Fusion.Converged {
				fused++
			}
			if gotCore, gotFused := e.CappedRefreshes(); gotCore != core || gotFused != fused {
				t.Fatalf("%s, records %d+: CappedRefreshes = %d, %d; the generations say %d, %d",
					tc.name, lo, gotCore, gotFused, core, fused)
			}
		}
		if tc.wantCapped && core == 0 {
			t.Errorf("%s: no refresh stopped at the cap; the fixture no longer exercises the count", tc.name)
		}
		if !tc.wantCapped && core+fused > 0 {
			t.Errorf("%s: %d estimates and %d fusion passes stopped at the cap, want none", tc.name, core, fused)
		}
		t.Logf("%s: %d refreshes, %d capped estimates, %d capped fusion passes", tc.name, (len(tc.recs)+99)/100, core, fused)
	}
}

// TestRefreshColdMatchesNewEngine: RefreshCold on a warm engine with every
// layer on publishes exactly the generation a new engine given the same
// records publishes on its first Refresh — snapshot tables, posteriors and
// parameters, copy dependencies, fused posteriors and every counter — and the
// warm refreshes after it match that engine's bit for bit. While it runs, no
// record turns pending and readers see only the generation before it or the
// one it publishes.
func TestRefreshColdMatchesNewEngine(t *testing.T) {
	p := websim.DefaultParams().Scale(0.3)
	p.Seed = 9
	world, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := world.Dataset.Records

	opt := DefaultOptions()
	opt.Core.MaxIter = 30
	opt.Core.Tol = 1e-4
	opt.CopyDetect = true
	opt.CopyDiscount = true
	opt.Fusion = true
	const batch, coldAfter = 100, 20
	if len(recs) < (coldAfter+3)*batch {
		t.Fatalf("corpus of %d records is too small for the schedule", len(recs))
	}

	live := New(opt)
	for i := 0; i < coldAfter; i++ {
		if err := live.Ingest(recs[i*batch : (i+1)*batch]...); err != nil {
			t.Fatal(err)
		}
		if _, err := live.Refresh(); err != nil {
			t.Fatal(err)
		}
	}

	before := live.Last()
	var wg sync.WaitGroup
	done := make(chan struct{})
	maxPending := 0
	var seen []*Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			maxPending = max(maxPending, live.Pending())
			if g := live.Last(); len(seen) == 0 || seen[len(seen)-1] != g {
				seen = append(seen, g)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	got, err := live.RefreshCold()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if maxPending > 0 {
		t.Fatalf("Pending read %d during RefreshCold", maxPending)
	}
	for _, g := range seen {
		if g != before && g != got {
			t.Fatal("a reader saw a generation other than the one before RefreshCold or the one it published")
		}
	}

	fresh := New(opt)
	if err := fresh.Ingest(recs[:coldAfter*batch]...); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	assertSameGeneration(t, "RefreshCold", got, want)

	for i := coldAfter; i < coldAfter+3; i++ {
		b := recs[i*batch : (i+1)*batch]
		if err := live.Ingest(b...); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Ingest(b...); err != nil {
			t.Fatal(err)
		}
		got, err := live.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		assertSameGeneration(t, fmt.Sprintf("warm refresh %d after RefreshCold", i-coldAfter+1), got, want)
	}
}

// assertSameGeneration requires two generations to be equal in all but their
// wall clock: the snapshot tables, posteriors and parameters to the bit, and
// every other field deep-equal. (A snapshot's intern layers and tail claim
// differ between an extended lineage and a fresh build of the same records,
// so its tables are compared one by one.)
func assertSameGeneration(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	assertSnapshotsBitIdentical(t, tag, got.Snapshot, want.Snapshot)
	assertSnapshotsBitIdentical(t, tag+" (fusion)", got.FusionSnap, want.FusionSnap)
	gi, wi := got.Inference, want.Inference
	assertResultsBitIdentical(t, tag, gi, wi)
	if !reflect.DeepEqual(gi.SourceIncluded, wi.SourceIncluded) || !reflect.DeepEqual(gi.ExtractorIncluded, wi.ExtractorIncluded) {
		t.Fatalf("%s: unit inclusion diverges", tag)
	}
	gf, wf := got.Fusion, want.Fusion
	if !sameBits(gf.Accuracy, wf.Accuracy) || !sameBits(gf.RestMass, wf.RestMass) || len(gf.ValueProb) != len(wf.ValueProb) {
		t.Fatalf("%s: fusion parameters diverge", tag)
	}
	for d := range wf.ValueProb {
		if !sameBits(gf.ValueProb[d], wf.ValueProb[d]) {
			t.Fatalf("%s: fused posterior of item %d diverges", tag, d)
		}
	}
	g, w := *got, *want
	for _, r := range []*Result{&g, &w} {
		r.Snapshot, r.FusionSnap, r.Inference, r.Times = nil, nil, nil, Times{}
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: generations differ\n got  %+v\n want %+v", tag, g, w)
	}
}
