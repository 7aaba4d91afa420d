package engine

import (
	"fmt"
	"math"
	"testing"

	"kbt/internal/core"
	"kbt/internal/synthetic"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// corpus returns a mid-size simulated web crawl for equivalence checks.
func corpus(t testing.TB) []triple.Record {
	t.Helper()
	p := websim.DefaultParams().Scale(0.3)
	p.Seed = 11
	world, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return world.Dataset.Records
}

// cprobs and restMasses materialize a result's per-triple and per-item
// posteriors through the accessor API, for slice-wise comparisons.
func cprobs(r *core.Result) []float64 {
	out := make([]float64, r.NumTriples())
	for ti := range out {
		out[ti] = r.CProbAt(ti)
	}
	return out
}

func restMasses(r *core.Result) []float64 {
	out := make([]float64, r.NumItems())
	for d := range out {
		out[d] = r.RestMassAt(d)
	}
	return out
}

// vecSlice and the aOf/pOf/rOf/qOf/expOf helpers materialize the per-unit
// parameter vectors through the accessor API, mirroring cprobs.
func vecSlice(n int, at func(int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = at(i)
	}
	return out
}

func aOf(r *core.Result) []float64   { return vecSlice(r.NumSources(), r.AAt) }
func pOf(r *core.Result) []float64   { return vecSlice(r.NumExtractors(), r.PAt) }
func rOf(r *core.Result) []float64   { return vecSlice(r.NumExtractors(), r.RAt) }
func qOf(r *core.Result) []float64   { return vecSlice(r.NumExtractors(), r.QAt) }
func expOf(r *core.Result) []float64 { return vecSlice(r.NumSources(), r.ExpectedTriplesAt) }

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestColdRefreshMatchesCoreRun: a cold engine refresh must reproduce the
// monolithic core.Run posteriors exactly, for any shard count.
func TestColdRefreshMatchesCoreRun(t *testing.T) {
	recs := corpus(t)
	ds := triple.NewDataset()
	for _, r := range recs {
		ds.Add(r)
	}
	snap := ds.Compile(triple.CompileOptions{
		SourceKey:    triple.SourceKeyWebsite,
		ExtractorKey: triple.ExtractorKeyName,
	})
	copt := core.DefaultOptions()
	copt.MinSourceSupport = 3
	copt.MinExtractorSupport = 3
	want, err := core.Run(snap, copt)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Shards = shards
			opt.Core = copt
			eng := New(opt)
			eng.Ingest(recs...)
			res, err := eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			got := res.Inference
			if res.Warm {
				t.Error("first refresh reported warm")
			}
			if res.FirstPassShards != shards || res.TotalShards != shards {
				t.Errorf("cold refresh shards = %d/%d, want %d/%d",
					res.FirstPassShards, res.TotalShards, shards, shards)
			}
			if d := maxAbsDiff(aOf(got), aOf(want)); d != 0 {
				t.Errorf("source accuracy diverges: max |Δ| = %g", d)
			}
			if d := maxAbsDiff(pOf(got), pOf(want)); d != 0 {
				t.Errorf("extractor precision diverges: max |Δ| = %g", d)
			}
			if d := maxAbsDiff(rOf(got), rOf(want)); d != 0 {
				t.Errorf("extractor recall diverges: max |Δ| = %g", d)
			}
			if d := maxAbsDiff(cprobs(got), cprobs(want)); d != 0 {
				t.Errorf("extraction correctness diverges: max |Δ| = %g", d)
			}
			for di := 0; di < want.NumItems(); di++ {
				if d := maxAbsDiff(got.ValueRow(di), want.ValueRow(di)); d != 0 {
					t.Errorf("value posterior of item %d diverges: max |Δ| = %g", di, d)
				}
			}
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Errorf("iterations/converged = %d/%v, want %d/%v",
					got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
		})
	}
}

// noisyConsensus builds a corpus with an unambiguous optimum: every item has
// a clear majority value (four accurate sites against one bad one) plus a
// hallucinating extractor, so EM has a single well-separated fixed point and
// cold and warm trajectories must meet there. Each item gets its own
// predicate, which also confines each item to its own absence-vote cell.
func noisyConsensus(nItems int) []triple.Record {
	var recs []triple.Record
	add := func(e, w, subj, pred, obj string, conf float64) {
		recs = append(recs, triple.Record{
			Extractor: e, Website: w, Page: w + "/x",
			Subject: subj, Predicate: pred, Object: obj, Confidence: conf,
		})
	}
	goodSites := []string{"g1.com", "g2.com", "g3.com", "g4.com"}
	for i := 0; i < nItems; i++ {
		subj := fmt.Sprintf("S%03d", i)
		pred := fmt.Sprintf("pred%03d", i)
		truth := "V" + subj
		for _, w := range goodSites {
			add("E1", w, subj, pred, truth, 1)
			add("E2", w, subj, pred, truth, 0.9)
		}
		add("E1", "bad.com", subj, pred, "Wrong"+subj, 1)
		add("E2", "bad.com", subj, pred, "Wrong"+subj, 0.9)
		// E3 reads the good sites correctly but hallucinates an extra
		// value on g1.com for every third item.
		for _, w := range goodSites {
			add("E3", w, subj, pred, truth, 0.8)
		}
		if i%3 == 0 {
			add("E3", "g1.com", subj, pred, "Halluc"+subj, 0.8)
		}
	}
	return recs
}

// TestIncrementalRefreshConvergesToColdRun: ingesting in two batches with a
// warm Refresh in between must converge to the same fixed point as one cold
// run over everything.
func TestIncrementalRefreshConvergesToColdRun(t *testing.T) {
	recs := noisyConsensus(48)
	cut := len(recs) - len(recs)/10

	copt := core.DefaultOptions()
	copt.MaxIter = 80
	copt.Tol = 1e-12

	opt := DefaultOptions()
	opt.Shards = 8
	opt.Core = copt

	cold := New(opt)
	cold.Ingest(recs...)
	wantRes, err := cold.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Inference
	if !want.Converged {
		t.Fatalf("cold run did not converge in %d iterations", copt.MaxIter)
	}

	inc := New(opt)
	inc.Ingest(recs[:cut]...)
	if _, err := inc.Refresh(); err != nil {
		t.Fatal(err)
	}
	inc.Ingest(recs[cut:]...)
	gotRes, err := inc.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	got := gotRes.Inference
	if !gotRes.Warm {
		t.Error("second refresh was not warm")
	}
	if !got.Converged {
		t.Fatalf("incremental refresh did not converge in %d iterations", copt.MaxIter)
	}

	if d := maxAbsDiff(aOf(got), aOf(want)); d > 1e-6 {
		t.Errorf("incremental source accuracy diverges: max |Δ| = %g", d)
	}
	if d := maxAbsDiff(pOf(got), pOf(want)); d > 1e-6 {
		t.Errorf("incremental precision diverges: max |Δ| = %g", d)
	}
	if d := maxAbsDiff(cprobs(got), cprobs(want)); d > 1e-6 {
		t.Errorf("incremental extraction correctness diverges: max |Δ| = %g", d)
	}
	for di := 0; di < want.NumItems(); di++ {
		if d := maxAbsDiff(got.ValueRow(di), want.ValueRow(di)); d > 1e-6 {
			t.Errorf("incremental value posterior of item %d diverges: max |Δ| = %g", di, d)
		}
	}
}

// localDataset builds a corpus where every item has its own predicate, so
// each (source, predicate) absence cell contains exactly one item and an
// ingest touching one item dirties only that item's shard.
func localDataset(nItems int) []triple.Record {
	var recs []triple.Record
	for i := 0; i < nItems; i++ {
		subj := fmt.Sprintf("S%03d", i)
		pred := fmt.Sprintf("pred%03d", i)
		for _, w := range []string{"a.com", "b.com", "c.com"} {
			for _, e := range []string{"E1", "E2"} {
				recs = append(recs, triple.Record{
					Extractor: e, Website: w, Page: w + "/x",
					Subject: subj, Predicate: pred, Object: "v" + subj,
				})
			}
		}
	}
	return recs
}

// TestWarmRefreshTouchesOnlyDirtyShards: a small ingest confined to one
// absence cell must re-estimate a strict subset of shards on its first pass.
func TestWarmRefreshTouchesOnlyDirtyShards(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 8
	opt.Core.MinSourceSupport = 1
	opt.Core.MinExtractorSupport = 1

	eng := New(opt)
	eng.Ingest(localDataset(64)...)
	if _, err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}

	// One new extraction for an existing item: a conflicting value from an
	// existing extractor on an existing site.
	eng.Ingest(triple.Record{
		Extractor: "E2", Website: "c.com", Page: "c.com/x",
		Subject: "S007", Predicate: "pred007", Object: "wrong",
	})
	res, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Fatal("second refresh was not warm")
	}
	if res.FirstPassShards >= res.TotalShards {
		t.Errorf("first pass touched %d/%d shards, want a strict subset",
			res.FirstPassShards, res.TotalShards)
	}
	if res.FirstPassShards < 1 {
		t.Error("first pass touched no shard despite a pending record")
	}

	// The new candidate triple must be covered by the result.
	d := res.Snapshot.ItemID("S007", "pred007")
	v := res.Snapshot.ValueID("wrong")
	if d < 0 || v < 0 {
		t.Fatal("ingested triple missing from snapshot")
	}
	if p, ok := res.Inference.TripleProb(d, v); !ok || p < 0 || p > 1 {
		t.Errorf("ingested triple posterior = %v (covered=%v)", p, ok)
	}
}

// blockItems returns the records of items [from, to) of a corpus for Stage
// IV's block reduction: each item has its own predicate and is claimed by a
// hub site and one of forty leaf sites, which errs on a third of its items;
// extractor "wide" reads every claim with a varying confidence, "thin" every
// eighth item's. wideNoise adds a hallucinated value by "wide" to every item.
func blockItems(from, to int, wideNoise bool) []triple.Record {
	var recs []triple.Record
	add := func(e, site string, i int, obj string) {
		recs = append(recs, triple.Record{Extractor: e, Website: site, Page: site + "/x",
			Subject: fmt.Sprintf("S%05d", i), Predicate: fmt.Sprintf("pred%05d", i), Object: obj,
			Confidence: float64(i%17+3) / 20})
	}
	for i := from; i < to; i++ {
		leaf, second := fmt.Sprintf("leaf%02d.com", i%40), "T"
		if i%3 == 0 {
			second = "F"
		}
		add("wide", "hub.com", i, "T")
		add("wide", leaf, i, second)
		if i%8 == 0 {
			add("thin", "hub.com", i, "T")
		}
		if wideNoise {
			add("wide", leaf, i, "H")
		}
	}
	return recs
}

// TestWarmRefreshParallelMatchesSerial: a warm sequence publishes bit-equal
// generations, after equally many iterations, escalations and list/whole
// M-steps, at any worker count — with an extractor whose Stage IV sum spans
// more than three of core's 4096-observation blocks, through partial passes
// (contiguous blocks of the gathered list, a vote-shifted extractor visited
// whole by an M-step over a list) and an escalation to a full pass (the nil
// lists).
func TestWarmRefreshParallelMatchesSerial(t *testing.T) {
	const base = 6500
	steps := [][]triple.Record{
		blockItems(0, base, false),
		blockItems(base, base+3, false),
		blockItems(base+3, base+400, true), // moves "wide" far beyond Tol
		blockItems(base+400, base+402, false),
	}
	run := func(workers int) []*Result {
		opt := DefaultOptions()
		opt.Core.Workers = workers
		opt.Core.MaxIter = 30
		opt.Core.Tol = 1e-4
		eng := New(opt)
		var out []*Result
		for _, recs := range steps {
			if err := eng.Ingest(recs...); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	serial, wide := run(1), run(4)

	snap := serial[0].Snapshot
	if n := len(snap.ObsOfExtractor[snap.ExtractorID("wide")]); n <= 3*4096 {
		t.Fatalf("fixture: the wide extractor has %d observations, want more than three blocks", n)
	}
	var partial, fullPass, deltaSteps int
	for i, want := range serial {
		got := wide[i]
		tag := fmt.Sprintf("refresh %d", i)
		assertResultsBitIdentical(t, tag, got.Inference, want.Inference)
		if d := maxAbsDiff(expOf(got.Inference), expOf(want.Inference)); d != 0 {
			t.Fatalf("%s: ExpectedTriples differ across worker counts by %g", tag, d)
		}
		if got.Escalations != want.Escalations || got.AggDeltaSteps != want.AggDeltaSteps ||
			got.AggFullSteps != want.AggFullSteps || got.FirstPassShards != want.FirstPassShards ||
			got.TouchedShards != want.TouchedShards {
			t.Fatalf("%s: escalations/delta/full/first-pass/touched = %d/%d/%d/%d/%d at 4 workers, %d/%d/%d/%d/%d at 1", tag,
				got.Escalations, got.AggDeltaSteps, got.AggFullSteps, got.FirstPassShards, got.TouchedShards,
				want.Escalations, want.AggDeltaSteps, want.AggFullSteps, want.FirstPassShards, want.TouchedShards)
		}
		if want.Warm && want.FirstPassShards < want.TotalShards {
			partial++
		}
		if want.Warm && want.Escalations > 0 && want.TouchedShards == want.TotalShards {
			fullPass++
		}
		deltaSteps += want.AggDeltaSteps
	}
	if partial == 0 || fullPass == 0 || deltaSteps == 0 {
		t.Fatalf("the sequence ran %d partial first passes, %d escalations to every shard and %d M-steps over a list; want each at least once",
			partial, fullPass, deltaSteps)
	}
}

// TestRefreshWithoutPendingIsStable: once converged, refreshing without new
// data must be warm, touch no shard, and keep the estimates bit-identical.
func TestRefreshWithoutPendingIsStable(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 4
	opt.Core.MaxIter = 100
	eng := New(opt)
	eng.Ingest(localDataset(16)...)
	first, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Inference.Converged {
		t.Fatalf("first refresh did not converge in %d iterations", opt.Core.MaxIter)
	}
	second, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !second.Warm {
		t.Error("second refresh not warm")
	}
	if !second.NoOp {
		t.Error("no-op refresh did not report NoOp")
	}
	if second.Extended {
		t.Error("no-op refresh reported Extended despite doing no snapshot work")
	}
	if first.NoOp {
		t.Error("refresh with pending records reported NoOp")
	}
	if second.FirstPassShards != 0 {
		t.Errorf("no-op refresh touched %d shards", second.FirstPassShards)
	}
	if d := maxAbsDiff(aOf(first.Inference), aOf(second.Inference)); d > 1e-12 {
		t.Errorf("no-op refresh moved source accuracies by %g", d)
	}
	if d := maxAbsDiff(cprobs(first.Inference), cprobs(second.Inference)); d > 1e-12 {
		t.Errorf("no-op refresh moved correctness posteriors by %g", d)
	}
}

// TestRefreshClockNests: a refresh's EM stage times lie inside its settle
// phase — the stages run one after another within it, on the same monotonic
// clock — on a cold and a warm refresh, and a NoOp refresh reports no time.
func TestRefreshClockNests(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 4
	opt.Core.MaxIter = 100
	opt.Fusion = true
	eng := New(opt)
	recs := localDataset(32)
	for _, batch := range [][]triple.Record{recs[:len(recs)/2], recs[len(recs)/2:], nil} {
		eng.Ingest(batch...)
		res, err := eng.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Times
		if res.NoOp {
			if tm != (Times{}) {
				t.Errorf("a NoOp refresh reports times %+v", tm)
			}
			continue
		}
		st := tm.Stages
		stages := st.Votes + st.StageI + st.StageII + st.StageIII + st.StageIV + st.Prior
		if tm.Settle <= 0 || st.StageI <= 0 || stages > tm.Settle {
			t.Errorf("warm=%v: stages %v (%+v) do not nest in settle %v", res.Warm, stages, st, tm.Settle)
		}
		if tm.Build <= 0 || tm.Publish <= 0 || tm.Fuse <= 0 {
			t.Errorf("warm=%v: a phase reports no time: %+v", res.Warm, tm)
		}
	}
}

// TestRefreshWithoutPendingResumesUnconvergedEM: when the previous refresh
// stopped at MaxIter, a no-ingest Refresh must run full passes and make
// progress rather than measuring a zero delta against its own cached
// posteriors and claiming convergence.
func TestRefreshWithoutPendingResumesUnconvergedEM(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 4
	opt.Core.MaxIter = 2 // guaranteed unconverged
	eng := New(opt)
	eng.Ingest(noisyConsensus(12)...)
	first, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if first.Inference.Converged {
		t.Fatal("expected an unconverged first refresh")
	}
	second, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !second.Warm {
		t.Error("resume refresh not warm")
	}
	if second.FirstPassShards != second.TotalShards {
		t.Errorf("resume refresh ran %d/%d shards, want a full pass",
			second.FirstPassShards, second.TotalShards)
	}
	if d := maxAbsDiff(aOf(first.Inference), aOf(second.Inference)); d == 0 {
		t.Error("resume refresh made no progress on source accuracies")
	}
}

// TestConcurrentIngestDuringRefresh: a live feed must be able to keep
// ingesting while refreshes run, with no record lost or double-consumed.
func TestConcurrentIngestDuringRefresh(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 4
	eng := New(opt)
	eng.Ingest(noisyConsensus(24)...)

	const extra = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < extra; i++ {
			eng.Ingest(triple.Record{
				Extractor: "E1", Website: "g1.com", Page: "g1.com/x",
				Subject: fmt.Sprintf("Live%03d", i), Predicate: fmt.Sprintf("livepred%03d", i),
				Object: "v",
			})
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	res, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Errorf("Pending = %d after final refresh, want 0", eng.Pending())
	}
	if got := len(res.Snapshot.Items); got != 24+extra {
		t.Errorf("final snapshot has %d items, want %d", got, 24+extra)
	}
}

// TestRefreshEmpty: refreshing an empty engine is an error.
func TestRefreshEmpty(t *testing.T) {
	if _, err := New(DefaultOptions()).Refresh(); err == nil {
		t.Fatal("expected error for empty engine")
	}
}

// TestExtendRefreshMatchesFullRecompile: across a sequence of incremental
// refreshes, the warm Extend path with full M-step aggregation must produce
// bit-identical snapshots and posteriors to the FullRecompile oracle — the
// structural equivalence of Snapshot.Extend and core.NewEMFrom carried
// through the entire inference stack — and so must the default path, whose
// incremental M-step aggregates are exact sums.
func TestExtendRefreshMatchesFullRecompile(t *testing.T) {
	recs := corpus(t)
	cuts := []int{len(recs) / 2, len(recs) * 3 / 4, len(recs) - 7, len(recs)}

	opt := DefaultOptions()
	opt.Shards = 8
	opt.Core.MinSourceSupport = 3
	opt.Core.MinExtractorSupport = 3

	fullAggOpt := opt
	fullAggOpt.FullAggregates = true
	fullAgg := New(fullAggOpt)
	fast := New(opt)
	oracleOpt := opt
	oracleOpt.FullRecompile = true
	oracle := New(oracleOpt)

	start := 0
	for step, cut := range cuts {
		for _, eng := range []*Engine{fullAgg, fast, oracle} {
			if err := eng.Ingest(recs[start:cut]...); err != nil {
				t.Fatal(err)
			}
		}
		start = cut

		exact, err := fullAgg.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		approx, err := fast.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if exact.Extended != (step > 0) || approx.Extended != (step > 0) {
			t.Errorf("step %d: Extended = %v/%v, want %v", step, exact.Extended, approx.Extended, step > 0)
		}
		if want.Extended {
			t.Errorf("step %d: FullRecompile refresh reported Extended", step)
		}
		if step > 0 && approx.AggDeltaSteps+approx.AggFullSteps == 0 {
			t.Errorf("step %d: default path reported no aggregate M-steps", step)
		}
		if exact.AggDeltaSteps != 0 || want.AggDeltaSteps != 0 {
			t.Errorf("step %d: full-aggregation modes reported delta steps (%d/%d)",
				step, exact.AggDeltaSteps, want.AggDeltaSteps)
		}
		for _, cmp := range []struct {
			name string
			got  *Result
		}{
			{"extend+full-aggregates", exact},
			{"extend+incremental-aggregates", approx},
		} {
			got := cmp.got
			if g, w := got.Snapshot.Stats(), want.Snapshot.Stats(); g != w {
				t.Fatalf("step %d: %s snapshot stats diverge:\n got  %s\n want %s", step, cmp.name, g, w)
			}
			if d := maxAbsDiff(aOf(got.Inference), aOf(want.Inference)); d != 0 {
				t.Errorf("step %d: %s source accuracy: max |Δ| = %g", step, cmp.name, d)
			}
			if d := maxAbsDiff(pOf(got.Inference), pOf(want.Inference)); d != 0 {
				t.Errorf("step %d: %s precision: max |Δ| = %g", step, cmp.name, d)
			}
			if d := maxAbsDiff(rOf(got.Inference), rOf(want.Inference)); d != 0 {
				t.Errorf("step %d: %s recall: max |Δ| = %g", step, cmp.name, d)
			}
			if d := maxAbsDiff(qOf(got.Inference), qOf(want.Inference)); d != 0 {
				t.Errorf("step %d: %s Q: max |Δ| = %g", step, cmp.name, d)
			}
			if d := maxAbsDiff(cprobs(got.Inference), cprobs(want.Inference)); d != 0 {
				t.Errorf("step %d: %s correctness posterior: max |Δ| = %g", step, cmp.name, d)
			}
			for di := 0; di < want.Inference.NumItems(); di++ {
				if d := maxAbsDiff(got.Inference.ValueRow(di), want.Inference.ValueRow(di)); d != 0 {
					t.Errorf("step %d: %s value posterior of item %d: max |Δ| = %g", step, cmp.name, di, d)
				}
			}
		}
		if exact.Inference.Iterations != want.Inference.Iterations {
			t.Errorf("step %d: iterations = %d, want %d", step, exact.Inference.Iterations, want.Inference.Iterations)
		}
	}
}

// TestIterationsAccounting pins the Result.Iterations semantics: the number
// of EM iterations actually executed — k when convergence is detected at
// iteration k, including when k lands exactly on MaxIter (previously the
// post-convergence increment reported k+1 for early stops and let the
// MaxIter clamp hide the same overshoot on final-iteration convergence), and
// MaxIter when the loop exhausts. core.Run and a cold engine Refresh must
// report the identical count in every regime.
func TestIterationsAccounting(t *testing.T) {
	recs := noisyConsensus(16)
	ds := triple.NewDataset()
	for _, r := range recs {
		ds.Add(r)
	}
	snap := ds.Compile(triple.CompileOptions{
		SourceKey:    triple.SourceKeyWebsite,
		ExtractorKey: triple.ExtractorKeyName,
	})

	copt := core.DefaultOptions()
	copt.MaxIter = 100
	ref, err := core.Run(snap, copt)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatalf("fixture did not converge in %d iterations", copt.MaxIter)
	}
	k := ref.Iterations
	if k < 2 || k >= copt.MaxIter {
		t.Fatalf("fixture converges at %d iterations; need 2 <= k < %d for the table below", k, copt.MaxIter)
	}

	cases := []struct {
		name          string
		maxIter       int
		wantIter      int
		wantConverged bool
	}{
		{"converges below the cap", k + 3, k, true},
		{"convergence lands on the final iteration", k, k, true},
		{"exhausts the cap unconverged", k - 1, k - 1, false},
		{"single-iteration cap", 1, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := copt
			opt.MaxIter = tc.maxIter
			want, err := core.Run(snap, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want.Iterations != tc.wantIter || want.Converged != tc.wantConverged {
				t.Errorf("core.Run: iterations/converged = %d/%v, want %d/%v",
					want.Iterations, want.Converged, tc.wantIter, tc.wantConverged)
			}
			eopt := DefaultOptions()
			eopt.Shards = 4
			eopt.Core = opt
			eng := New(eopt)
			eng.Ingest(recs...)
			res, err := eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if res.Inference.Iterations != tc.wantIter || res.Inference.Converged != tc.wantConverged {
				t.Errorf("engine: iterations/converged = %d/%v, want %d/%v",
					res.Inference.Iterations, res.Inference.Converged, tc.wantIter, tc.wantConverged)
			}
		})
	}
}

// TestDirtyShardsSurfacesLookupFailure: a pending record that does not
// resolve against the refreshed snapshot breaks the ingest/extension
// invariant and must surface as an error instead of being silently absorbed
// as a full pass.
func TestDirtyShardsSurfacesLookupFailure(t *testing.T) {
	opt := DefaultOptions()
	eng := New(opt)
	eng.Ingest(localDataset(8)...)
	if _, err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}
	ghost := triple.Record{
		Extractor: "E1", Website: "a.com", Page: "a.com/x",
		Subject: "NeverCompiled", Predicate: "p", Object: "v",
	}
	sc := core.NewScopeSet()
	sc.Reset(len(eng.snap.Items))
	tab := eng.Table()
	tab.Add(ghost)
	run := &refreshRun{modelState: eng.modelState, prev: eng.modelState, tab: tab, from: tab.Len() - 1}
	if err := eng.seedFootprint(run, sc); err == nil {
		t.Fatal("expected an error for a pending record missing from the snapshot")
	}
}

// TestStalenessConfinesSettling is the tentpole's behavioural pin: a warm
// refresh whose ingest moves parameters far beyond Tol (brand-new sources
// settling from the 0.8 default) must re-estimate only the drift-exceeding
// shards — no unconditional full sweep — while the stats stay consistent.
func TestStalenessConfinesSettling(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 32
	opt.Core.MaxIter = 40
	opt.Core.Tol = 1e-4
	eng := New(opt)
	eng.Ingest(synthetic.GroupLocalCorpus(0, 400)...)
	first, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Inference.Converged {
		t.Fatalf("cold refresh did not converge in %d iterations", opt.Core.MaxIter)
	}
	if first.SettledShards != 0 || first.TouchedShards != first.TotalShards {
		t.Fatalf("cold refresh settled %d / touched %d of %d shards; want 0 / all",
			first.SettledShards, first.TouchedShards, first.TotalShards)
	}

	eng.Ingest(synthetic.GroupLocalCorpus(400, 2)...)
	res, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm || !res.Extended {
		t.Fatalf("second refresh warm=%v extended=%v, want warm extend", res.Warm, res.Extended)
	}
	if !res.Inference.Converged {
		t.Fatalf("warm refresh did not converge in %d iterations", opt.Core.MaxIter)
	}

	// The ingest is genuinely above-Tol: the new sites' accuracies moved far
	// from the 0.8 initialisation while settling.
	moved := 0.0
	for w := first.Inference.NumSources(); w < res.Inference.NumSources(); w++ {
		if d := math.Abs(res.Inference.AAt(w) - 0.8); d > moved {
			moved = d
		}
	}
	if moved <= opt.Core.Tol {
		t.Fatalf("fixture did not move any new source beyond Tol (max |ΔA| = %g)", moved)
	}

	// ... and yet the settling stayed confined: most of the corpus was never
	// re-estimated.
	if res.TouchedShards >= res.TotalShards {
		t.Errorf("above-Tol ingest still swept all %d shards; per-unit staleness did not confine it", res.TotalShards)
	}
	if res.SettledShards+res.TouchedShards != res.TotalShards {
		t.Errorf("SettledShards %d + TouchedShards %d != TotalShards %d",
			res.SettledShards, res.TouchedShards, res.TotalShards)
	}
	if res.TouchedShards < res.FirstPassShards {
		t.Errorf("TouchedShards %d < FirstPassShards %d", res.TouchedShards, res.FirstPassShards)
	}
}

// TestIngestValidation: malformed records must be rejected at the door,
// atomically, instead of compiling into degenerate units.
func TestIngestValidation(t *testing.T) {
	good := triple.Record{
		Extractor: "E1", Website: "a.com", Page: "a.com/x",
		Subject: "S", Predicate: "p", Object: "v",
	}
	bad := []struct {
		name string
		mut  func(*triple.Record)
	}{
		{"empty extractor", func(r *triple.Record) { r.Extractor = "" }},
		{"empty website", func(r *triple.Record) { r.Website = "" }},
		{"empty subject", func(r *triple.Record) { r.Subject = "" }},
		{"empty predicate", func(r *triple.Record) { r.Predicate = "" }},
		{"empty object", func(r *triple.Record) { r.Object = "" }},
		{"negative confidence", func(r *triple.Record) { r.Confidence = -0.5 }},
		{"confidence above one", func(r *triple.Record) { r.Confidence = 1.5 }},
		{"NaN confidence", func(r *triple.Record) { r.Confidence = math.NaN() }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(DefaultOptions())
			r := good
			tc.mut(&r)
			// The batch is atomic: a valid record alongside the bad one must
			// not be ingested either.
			if err := eng.Ingest(good, r); err == nil {
				t.Fatal("expected validation error")
			}
			if eng.Len() != 0 {
				t.Errorf("rejected batch left %d records behind", eng.Len())
			}
		})
	}

	// Granularity-dependent: page-keyed sources reject records without a
	// page, while website-keyed engines accept the same record.
	noPage := good
	noPage.Page = ""
	pageOpt := DefaultOptions()
	pageOpt.SourceKey = triple.SourceKeyPage
	if err := New(pageOpt).Ingest(noPage); err == nil {
		t.Error("page-granularity engine accepted a record without a Page")
	}
	if err := New(DefaultOptions()).Ingest(noPage); err != nil {
		t.Errorf("website-granularity engine rejected a page-less record: %v", err)
	}
}
