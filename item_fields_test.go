package kbt

import "testing"

// TestItemFieldsRenderAsGiven: a triple is reported with its item's subject
// and predicate as its first record gave them, also when a field holds the
// "\x1f" that joins an item's key. A record (x\x1fy, born) and a later one
// (x, y\x1fborn) share an item, whose key they join alike
// (TestCollidingLabelsShareAUnit); the item is the first record's, subject
// x\x1fy and predicate born, in Result.Triples and TopTriples, in the
// engine's generations and in its fused view.
func TestItemFieldsRenderAsGiven(t *testing.T) {
	batch := []Extraction{
		{Extractor: "E1", Website: "a.com", Page: "a.com/1", Subject: "x\x1fy", Predicate: "born", Object: "1961"},
		{Extractor: "E2", Website: "b.com", Page: "b.com/1", Subject: "x", Predicate: "y\x1fborn", Object: "1961"},
		{Extractor: "E1", Website: "b.com", Page: "b.com/2", Subject: "z", Predicate: "born", Object: "1970"},
	}
	check := func(what string, tvs []TripleVerdict) {
		t.Helper()
		seen := 0
		for _, tv := range tvs {
			switch {
			case tv.Object != "1961":
			case tv.Subject != "x\x1fy" || tv.Predicate != "born":
				t.Errorf("%s: triple reported as (%q, %q, %q), want (%q, %q, %q)", what,
					tv.Subject, tv.Predicate, tv.Object, "x\x1fy", "born", "1961")
			default:
				seen++
			}
		}
		if seen != 1 {
			t.Errorf("%s: %d verdicts of the shared item, want 1", what, seen)
		}
	}

	ds := NewDataset()
	for _, x := range batch {
		ds.Add(x)
	}
	opt := DefaultOptions()
	opt.Granularity = GranularityPage
	opt.MinSupport = 1
	res, err := EstimateKBT(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	check("EstimateKBT Triples", res.Triples())
	check("EstimateKBT TopTriples(0)", res.TopTriples(0))
	check("EstimateKBT TopTriples(5)", res.TopTriples(5))

	eopt := DefaultEngineOptions()
	eopt.Granularity = GranularityPage
	eopt.MinSupport = 1
	eopt.Fusion = true
	eng, err := NewEngine(eopt)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(batch...); err != nil {
		t.Fatal(err)
	}
	gen, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	check("engine generation Triples", gen.Triples())
	for _, item := range []string{"x\x1fy\x1fborn"} {
		fi, err := eng.Fused(item)
		if err != nil {
			t.Fatalf("Fused(%q): %v", item, err)
		}
		if fi.Subject != "x\x1fy" || fi.Predicate != "born" {
			t.Errorf("Fused(%q) reports subject %q and predicate %q, want %q and %q", item, fi.Subject, fi.Predicate, "x\x1fy", "born")
		}
	}
}
