package kbt

import (
	"math"
	"testing"
)

// paperExample rebuilds the extractions of the paper's Table 2 — the Obama
// nationality scenario — through the public API (see
// internal/core/example_paper_test.go for the provenance of the cell
// assignment).
func paperExample() []Extraction {
	var out []Extraction
	add := func(e, w, v string) {
		out = append(out, Extraction{
			Extractor: e, Pattern: "pat", Website: w, Page: w + "/1",
			Subject: "Obama", Predicate: "nationality", Object: v,
		})
	}
	for _, w := range []string{"W1", "W2", "W3", "W4"} {
		add("E1", w, "USA")
	}
	add("E1", "W5", "Kenya")
	add("E1", "W6", "Kenya")
	add("E2", "W1", "USA")
	add("E2", "W2", "USA")
	add("E2", "W5", "Kenya")
	for _, w := range []string{"W1", "W2", "W3", "W4"} {
		add("E3", w, "USA")
	}
	add("E3", "W5", "Kenya")
	add("E3", "W6", "Kenya")
	add("E3", "W7", "Kenya")
	add("E4", "W1", "USA")
	add("E4", "W2", "N.Amer")
	add("E4", "W4", "Kenya")
	add("E4", "W5", "Kenya")
	add("E4", "W6", "USA")
	add("E4", "W8", "Kenya")
	add("E5", "W1", "Kenya")
	add("E5", "W3", "N.Amer")
	add("E5", "W5", "Kenya")
	add("E5", "W7", "Kenya")
	return out
}

// TestEngineMatchesEstimateKBTOnPaperExample: a cold engine Refresh must
// reproduce the monolithic EstimateKBT posteriors on the worked example
// within 1e-9, at every shard count.
func TestEngineMatchesEstimateKBTOnPaperExample(t *testing.T) {
	batch := paperExample()

	opt := DefaultOptions()
	opt.Granularity = GranularityWebsite
	opt.MinSupport = 1
	opt.AllExtractorsVoteAbsence = true
	ds := NewDataset()
	for _, x := range batch {
		ds.Add(x)
	}
	want, err := EstimateKBT(ds, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3, 8} {
		eopt := DefaultEngineOptions()
		eopt.Shards = shards
		eopt.MinSupport = 1
		eopt.AllExtractorsVoteAbsence = true
		eng, err := NewEngine(eopt)
		if err != nil {
			t.Fatal(err)
		}
		eng.Ingest(batch...)
		got, err := eng.Refresh()
		if err != nil {
			t.Fatal(err)
		}

		wantTriples := want.Triples()
		gotTriples := got.Triples()
		if len(gotTriples) != len(wantTriples) {
			t.Fatalf("shards=%d: %d triples, want %d", shards, len(gotTriples), len(wantTriples))
		}
		for i, w := range wantTriples {
			g := gotTriples[i]
			if g.Subject != w.Subject || g.Predicate != w.Predicate || g.Object != w.Object {
				t.Fatalf("shards=%d: triple %d is %v, want %v", shards, i, g, w)
			}
			if math.Abs(g.Probability-w.Probability) > 1e-9 {
				t.Errorf("shards=%d: p(%s=%s) = %.12f, want %.12f",
					shards, w.Subject, w.Object, g.Probability, w.Probability)
			}
		}

		wantSources := want.Sources()
		gotSources := got.Sources()
		if len(gotSources) != len(wantSources) {
			t.Fatalf("shards=%d: %d sources, want %d", shards, len(gotSources), len(wantSources))
		}
		for i, w := range wantSources {
			g := gotSources[i]
			if g.Name != w.Name || math.Abs(g.KBT-w.KBT) > 1e-9 ||
				math.Abs(g.ExpectedTriples-w.ExpectedTriples) > 1e-9 {
				t.Errorf("shards=%d: source %d = %+v, want %+v", shards, i, g, w)
			}
		}

		wantExt := want.Extractors()
		gotExt := got.Extractors()
		for i, w := range wantExt {
			g := gotExt[i]
			if g.Name != w.Name || math.Abs(g.Precision-w.Precision) > 1e-9 ||
				math.Abs(g.Recall-w.Recall) > 1e-9 {
				t.Errorf("shards=%d: extractor %d = %+v, want %+v", shards, i, g, w)
			}
		}
	}
}

// TestEngineIncrementalIngest: the engine must absorb a second batch through
// a warm Refresh and still rank the consensus value first.
func TestEngineIncrementalIngest(t *testing.T) {
	eopt := DefaultEngineOptions()
	eopt.MinSupport = 1
	eopt.Iterations = 50
	// The worked example assumes every extractor votes on every candidate
	// (Example 3.1); under that scope the consensus value is USA.
	eopt.AllExtractorsVoteAbsence = true
	eng, err := NewEngine(eopt)
	if err != nil {
		t.Fatal(err)
	}

	batch := paperExample()
	eng.Ingest(batch...)
	if eng.Pending() != len(batch) {
		t.Fatalf("Pending = %d, want %d", eng.Pending(), len(batch))
	}
	if _, err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending after refresh = %d", eng.Pending())
	}

	// A second wave of corroboration for USA from two fresh witnesses.
	eng.Ingest(
		Extraction{Extractor: "E1", Pattern: "pat", Website: "W9", Page: "W9/1",
			Subject: "Obama", Predicate: "nationality", Object: "USA"},
		Extraction{Extractor: "E2", Pattern: "pat", Website: "W9", Page: "W9/1",
			Subject: "Obama", Predicate: "nationality", Object: "USA"},
	)
	res, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := eng.Stats()
	if !ok || !stats.Warm || stats.NoOp {
		t.Errorf("second refresh stats = %+v, ok=%v; want a warm, non-NoOp refresh", stats, ok)
	}

	pUSA, okUSA := res.TripleProbability("Obama", "nationality", "USA")
	pKenya, _ := res.TripleProbability("Obama", "nationality", "Kenya")
	if !okUSA || pUSA <= pKenya {
		t.Errorf("after corroboration p(USA)=%v should exceed p(Kenya)=%v", pUSA, pKenya)
	}
	if _, ok := res.SourceByName("W9"); !ok {
		t.Error("newly ingested source W9 missing from result")
	}
}

// TestNewEngineValidation: option validation mirrors EstimateKBT and rejects
// the non-incremental auto granularity.
func TestNewEngineValidation(t *testing.T) {
	bad := DefaultEngineOptions()
	bad.Granularity = GranularityAuto
	if _, err := NewEngine(bad); err == nil {
		t.Error("GranularityAuto should be rejected")
	}
	bad = DefaultEngineOptions()
	bad.Iterations = 0
	if _, err := NewEngine(bad); err == nil {
		t.Error("zero iterations should be rejected")
	}
	bad = DefaultEngineOptions()
	bad.DomainSize = 0
	if _, err := NewEngine(bad); err == nil {
		t.Error("zero domain size should be rejected")
	}
	eng, err := NewEngine(DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Refresh(); err == nil {
		t.Error("refresh of empty engine should fail")
	}
}

// TestEngineIngestValidation: the public Ingest must reject malformed
// extractions atomically instead of letting them skew later refreshes.
func TestEngineIngestValidation(t *testing.T) {
	eng, err := NewEngine(DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := Extraction{Extractor: "E1", Website: "a.com", Page: "a.com/x",
		Subject: "S", Predicate: "p", Object: "v"}
	bad := good
	bad.Object = ""
	if err := eng.Ingest(good, bad); err == nil {
		t.Fatal("expected validation error for an empty Object")
	}
	if eng.Len() != 0 {
		t.Errorf("rejected batch left %d extractions behind", eng.Len())
	}
	bad = good
	bad.Confidence = -1
	if err := eng.Ingest(bad); err == nil {
		t.Error("expected validation error for a negative confidence")
	}
	if err := eng.Ingest(good); err != nil {
		t.Errorf("valid extraction rejected: %v", err)
	}
	if eng.Len() != 1 {
		t.Errorf("Len = %d after one valid ingest, want 1", eng.Len())
	}
}

// TestSourceByNameDisplayForms: the indexed SourceByName resolution must
// cover internal labels, pure display renderings, and the ambiguous case of
// a label part containing a literal '|' (where every '|' in the display form
// could be either a join or a literal, and only the scan fallback can tell).
func TestSourceByNameDisplayForms(t *testing.T) {
	ds := NewDataset()
	for _, site := range []string{"plain.com", "we|rd.com"} {
		ds.Add(Extraction{
			Extractor: "E1", Pattern: "pat", Website: site, Page: site + "/1",
			Subject: "S", Predicate: "p", Object: "v",
		})
	}
	opt := DefaultOptions()
	opt.Granularity = GranularityFinest // labels join website|predicate|page
	opt.MinSupport = 1
	res, err := EstimateKBT(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"plain.com|p|plain.com/1",
		"plain.com\x1fp\x1fplain.com/1", // internal form
		"we|rd.com|p|we|rd.com/1",       // literal '|' inside label parts
	} {
		if _, ok := res.SourceByName(name); !ok {
			t.Errorf("SourceByName(%q) missed", name)
		}
	}
	if _, ok := res.SourceByName("nope|p|nope/1"); ok {
		t.Error("SourceByName matched a nonexistent source")
	}
}
