package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"kbt/internal/copydetect"
	"kbt/internal/core"
	"kbt/internal/triple"
)

// This file pins the copy tracker's feed: the items whose signature a refresh
// rebuilds are those the E-steps marked as moving a 0.5 gate plus those of the
// extension's new triples. Each fixture moves one item's evidence through
// exactly one of those rules, and every refresh requires the published
// dependence list deep-equal to a batch Detect over the published posteriors.

// feedEngine returns an engine that reports every candidate copy pair
// (MinOverlap 1, Threshold 0), so a signature the tracker failed to rebuild
// shows in CopyDeps, and that settles at the serving tolerance; model sets
// what a fixture changes of the model options.
func feedEngine(model func(*core.Options)) *Engine {
	opt := DefaultOptions()
	opt.Shards = 4
	opt.Core.MaxIter = 30
	opt.Core.Tol = 1e-4
	if model != nil {
		model(&opt.Core)
	}
	opt.CopyDetect = true
	opt.Copy = copydetect.DefaultOptions()
	opt.Copy.MinOverlap, opt.Copy.Threshold = 1, 0
	return New(opt)
}

// feedRefresh ingests recs and refreshes, requiring the generation's CopyDeps
// deep-equal to copydetect.Detect over its own posteriors.
func feedRefresh(t *testing.T, tag string, e *Engine, recs ...triple.Record) *Result {
	t.Helper()
	if err := e.Ingest(recs...); err != nil {
		t.Fatal(err)
	}
	res, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	want, err := copydetect.Detect(res.Snapshot, resultEvidence(res), e.opt.Copy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.CopyDeps, want) {
		t.Fatalf("%s: streaming deps diverge from batch Detect\n got  %+v\n want %+v", tag, res.CopyDeps, want)
	}
	return res
}

// feedRec is one record of item (subj, pred) naming obj, from website w.
func feedRec(extractor, w, subj, pred, obj string, conf float64) triple.Record {
	return triple.Record{Extractor: extractor, Website: w, Page: w + "/x",
		Subject: subj, Predicate: pred, Object: obj, Confidence: conf}
}

// provided reports the Provides gate of candidate triple ti in a generation.
func provided(r *Result, ti int) bool { return r.Inference.CProbAt(ti) >= 0.5 }

// rowAbove returns the side of 0.5 of each of item d's value posteriors.
func rowAbove(r *Result, d int) []bool {
	var out []bool
	for _, p := range r.Inference.ValueRow(d) {
		out = append(out, p >= 0.5)
	}
	return out
}

// TestCopyFeedProvidesCrossing: a second extractor's reading of an old triple
// moves its p(C|X) across 0.5 in a refresh whose every pass is partial, while
// its item's value posteriors keep their sides and the item gains no triple —
// so only Stage I's crossing note puts the item in the tracker's list.
func TestCopyFeedProvidesCrossing(t *testing.T) {
	// Without the Eq 26 prior, which feeds a source's accuracy back into its
	// triples' priors, only the extraction votes move p(C|X): a triple read by
	// one extractor alone stays at the prior, below 0.5, and one read by
	// extractors that corroborate each other elsewhere is provided. Every
	// extractor reads a few items, so none reaches a quarter of the corpus.
	e := feedEngine(func(o *core.Options) { o.UpdatePrior = false })
	readers := []string{"R1", "R2", "R3", "R4"}
	var base []triple.Record
	for i := 0; i < 12; i++ {
		subj, pred := fmt.Sprintf("S%02d", i), fmt.Sprintf("p%02d", i)
		for _, w := range []string{"a.com", "b.com", "c.com"} {
			base = append(base, feedRec(fmt.Sprintf("E%d", i), w, subj, pred, "t"+subj, 1),
				feedRec(fmt.Sprintf("F%d", i), w, subj, pred, "t"+subj, 1))
		}
		if i >= 1 && i <= 3 {
			for _, r := range readers {
				base = append(base, feedRec(r, "x.com", subj, pred, "t"+subj, 1))
			}
		}
	}
	prev := feedRefresh(t, "base", e, append(base, feedRec("EX", "x.com", "S00", "p00", "tS00", 1))...)
	s := prev.Snapshot
	d := s.ItemID("S00", "p00")
	ti := s.TripleIndex(s.SourceID("x.com"), d, s.ValueID("tS00"))

	var again []triple.Record
	for _, r := range readers {
		again = append(again, feedRec(r, "x.com", "S00", "p00", "tS00", 1))
	}
	got := feedRefresh(t, "more readings", e, again...)
	switch {
	case len(got.Snapshot.Triples) != len(s.Triples):
		t.Fatal("fixture: the reading added a candidate triple")
	case provided(prev, ti) || !provided(got, ti):
		t.Fatalf("fixture: x.com's triple did not cross 0.5 upwards (p(C|X) %v → %v)",
			prev.Inference.CProbAt(ti), got.Inference.CProbAt(ti))
	case got.SettledShards+got.PartialShards == 0:
		t.Fatal("fixture: a pass of the refresh re-estimated every item")
	case !slices.Equal(rowAbove(prev, d), rowAbove(got, d)):
		t.Fatal("fixture: the item's value posteriors crossed 0.5 too")
	}
}

// TestCopyFeedRowCrossing: new items on which c.com and d.com err while a.com
// and b.com agree move an old, contested item's value across 0.5 — its row
// entries cross while each of its triples keeps its Provides side and it
// gains none — so only Stage II's row comparison puts it in the tracker's
// list.
func TestCopyFeedRowCrossing(t *testing.T) {
	e := feedEngine(nil)
	prev := feedRefresh(t, "base", e,
		feedRec("E", "a.com", "S00", "p00", "t", 1), feedRec("E", "b.com", "S00", "p00", "t", 1),
		feedRec("E", "c.com", "S00", "p00", "f", 1), feedRec("E", "d.com", "S00", "p00", "f", 1))
	var more []triple.Record
	for i := 1; i <= 8; i++ {
		subj, pred := fmt.Sprintf("S%02d", i), fmt.Sprintf("p%02d", i)
		more = append(more,
			feedRec("E", "a.com", subj, pred, "t"+subj, 1), feedRec("E", "b.com", subj, pred, "t"+subj, 1),
			feedRec("E", "c.com", subj, pred, "c"+subj, 1), feedRec("E", "d.com", subj, pred, "d"+subj, 1))
	}
	got := feedRefresh(t, "new items", e, more...)
	d := got.Snapshot.ItemID("S00", "p00")
	if len(got.Snapshot.TriplesOfItem[d]) != len(prev.Snapshot.TriplesOfItem[d]) {
		t.Fatal("fixture: the contested item gained a candidate triple")
	}
	for _, ti := range prev.Snapshot.TriplesOfItem[d] {
		if provided(prev, int(ti)) != provided(got, int(ti)) {
			t.Fatalf("fixture: the contested item's triple %d crossed 0.5 too", ti)
		}
	}
	if slices.Equal(rowAbove(prev, d), rowAbove(got, d)) {
		t.Fatalf("fixture: the contested item's value posteriors kept their sides (%v → %v)",
			prev.Inference.ValueRow(d), got.Inference.ValueRow(d))
	}
}

// TestCopyFeedNewTripleAtHighPrior: at Alpha 0.6 a new source's triple of a
// known item and value starts provided and stays so, and the item's value
// posteriors keep their sides — so only the extension's new triples put the
// item in the tracker's list.
func TestCopyFeedNewTripleAtHighPrior(t *testing.T) {
	e := feedEngine(func(o *core.Options) { o.Alpha = 0.6 })
	var base []triple.Record
	for i := 0; i < 4; i++ {
		subj, pred := fmt.Sprintf("S%02d", i), fmt.Sprintf("p%02d", i)
		base = append(base, feedRec("E", "a.com", subj, pred, "t"+subj, 1), feedRec("E", "b.com", subj, pred, "t"+subj, 1))
	}
	prev := feedRefresh(t, "base", e, base...)
	got := feedRefresh(t, "new triple", e, feedRec("E", "c.com", "S00", "p00", "tS00", 1))
	s := got.Snapshot
	d := s.ItemID("S00", "p00")
	ti := s.TripleIndex(s.SourceID("c.com"), d, s.ValueID("tS00"))
	switch {
	case len(s.Triples) != len(prev.Snapshot.Triples)+1 || ti != len(prev.Snapshot.Triples):
		t.Fatal("fixture: the record did not add exactly one candidate triple")
	case len(s.ItemValues[d]) != len(prev.Snapshot.ItemValues[d]):
		t.Fatal("fixture: the new triple names a new value")
	case !provided(got, ti):
		t.Fatalf("fixture: the new triple is not provided (p(C|X) %v)", got.Inference.CProbAt(ti))
	case !slices.Equal(rowAbove(prev, d), rowAbove(got, d)):
		t.Fatal("fixture: the item's value posteriors crossed 0.5")
	}
}

// TestCopyFeedCorpusWideReadsOnlyNewItems is the engine-level form of
// TestTrackerUnchangedEvidenceCostsNothing: a new item moves a hub source's
// accuracy, which re-estimates every shard whole and moves posteriors
// everywhere, each on its own side of 0.5 — so the tracker rebuilds the new
// triples' items and nothing else, and a NoOp refresh rebuilds none.
func TestCopyFeedCorpusWideReadsOnlyNewItems(t *testing.T) {
	e := feedEngine(nil)
	var base []triple.Record
	for i := 0; i < 20; i++ {
		subj, pred := fmt.Sprintf("S%02d", i), fmt.Sprintf("p%02d", i)
		hub := "t" + subj
		if i%7 == 0 {
			hub = "w" + subj
		}
		base = append(base, feedRec("E", "hub.com", subj, pred, hub, 1),
			feedRec("E", "a.com", subj, pred, "t"+subj, 1), feedRec("E", "b.com", subj, pred, "t"+subj, 1))
	}
	prev := feedRefresh(t, "base", e, base...)
	got := feedRefresh(t, "hub moves", e,
		feedRec("E", "hub.com", "S20", "p20", "tS20", 1), feedRec("E", "a.com", "S20", "p20", "tS20", 1))

	ps, s := prev.Snapshot, got.Snapshot
	if got.SettledShards != 0 || got.PartialShards != 0 {
		t.Fatalf("fixture: the refresh left %d shards settled and %d partial, want every shard whole",
			got.SettledShards, got.PartialShards)
	}
	moved := false
	for ti := range ps.Triples {
		if provided(prev, int(ti)) != provided(got, int(ti)) {
			t.Fatalf("fixture: old triple %d crossed 0.5", ti)
		}
	}
	for d := range ps.Items {
		if !slices.Equal(rowAbove(prev, d), rowAbove(got, d)) {
			t.Fatalf("fixture: old item %d's value posteriors crossed 0.5", d)
		}
		moved = moved || !slices.Equal(prev.Inference.ValueRow(d), got.Inference.ValueRow(d))
	}
	if !moved {
		t.Fatal("fixture: no old value posterior moved")
	}
	newItems := map[int32]bool{}
	for _, tr := range s.Triples[len(ps.Triples):] {
		newItems[tr.D] = true
	}
	if got.CopyItems != len(newItems) {
		t.Fatalf("tracker rebuilt %d signatures, want the %d items of the new triples", got.CopyItems, len(newItems))
	}

	for i := 0; i < 10; i++ {
		res := feedRefresh(t, fmt.Sprintf("resume %d", i), e)
		if res.NoOp {
			if res.CopyItems != 0 {
				t.Fatalf("NoOp refresh reports %d rebuilt signatures", res.CopyItems)
			}
			return
		}
	}
	t.Fatal("no NoOp refresh within 10 resumes")
}
