package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kbt/internal/copydetect"
	"kbt/internal/fusion"
	"kbt/internal/triple"
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
//   - the fusion views of the two engines must agree to 1e-9 with identical
//     discrete decisions, and
//   - a NoOp refresh must carry the copy and fusion layers unchanged.
func TestFuzzCopyFusionMatchOracle(t *testing.T) {
	const tol = 1e-9
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
		opt.Fuse.ReaggregateEvery = rng.Intn(5) + 2
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
			tag := fmt.Sprintf("trial %d step %d (shards=%d minov=%d thr=%g fuse=%d/%d)",
				trial, step, opt.Shards, opt.Copy.MinOverlap, opt.Copy.Threshold,
				opt.Fuse.Model, opt.Fuse.ReaggregateEvery)
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
			// the M-step aggregation differs.
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
			if d := maxAbsDiff(gf.Accuracy, wf.Accuracy); d > tol {
				t.Fatalf("%s: fusion accuracy diverges: max |Δ| = %g", tag, d)
			}
			if d := maxAbsDiff(gf.RestMass, wf.RestMass); d > tol {
				t.Fatalf("%s: fusion rest mass diverges: max |Δ| = %g", tag, d)
			}
			for di := range gf.ValueProb {
				if d := maxAbsDiff(gf.ValueProb[di], wf.ValueProb[di]); d > tol {
					t.Fatalf("%s: fusion posterior of item %d diverges: max |Δ| = %g", tag, di, d)
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
	const tol = 1e-9
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
		if d := maxAbsDiff(aOf(got.Inference), aOf(want.Inference)); d > tol {
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
	if d := maxAbsDiff(aOf(got.Inference), aOf(want.Inference)); d > tol {
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
		if e.run.records != nil {
			t.Fatal("Refresh returned without clearing its run")
		}
	}
}
