package kbt

import (
	"errors"
	"fmt"
	"testing"
)

// copierExtractions plants five mostly-independent sites, an "orig" site
// with a distinctive mistake on every third item, and a "copier" site
// echoing orig verbatim — mistakes included. Two extractors corroborate
// every record so extraction correctness stays high even for false values:
// copy detection reasons over what sources claim, and a claim must survive
// the extraction-correctness filter (cProb ≥ ½) to count as provided.
func copierExtractions() []Extraction {
	const nItems = 40
	var out []Extraction
	value := func(site, i int) string {
		switch {
		case site < 5 && (i+site)%7 == 0:
			return fmt.Sprintf("err%d", site)
		case site >= 5 && i%3 == 0:
			return "wrong"
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
			for _, extractor := range []string{"E1", "E2"} {
				out = append(out, Extraction{
					Extractor: extractor, Website: website, Page: website + "/x",
					Subject: fmt.Sprintf("S%d", i), Predicate: "p",
					Object: value(site, i), Confidence: 0.9,
				})
			}
		}
	}
	return out
}

// TestEngineCopyDepsAndFused exercises the streaming copy-detection and
// fusion queries end to end through the public engine API: gating errors
// when the layers are off or no generation exists, the planted copier pair
// in CopyDeps, per-generation memoization, fused item lookups in both label
// forms, and the new refresh-stats counters.
func TestEngineCopyDepsAndFused(t *testing.T) {
	// Disabled layers gate with the sentinel errors regardless of state.
	plain, err := NewEngine(DefaultEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.CopyDeps(); !errors.Is(err, ErrCopyDetectDisabled) {
		t.Fatalf("CopyDeps on plain engine: %v, want ErrCopyDetectDisabled", err)
	}
	if _, err := plain.Fused("S0|p"); !errors.Is(err, ErrFusionDisabled) {
		t.Fatalf("Fused on plain engine: %v, want ErrFusionDisabled", err)
	}

	opt := DefaultEngineOptions()
	opt.MinSupport = 1
	opt.CopyDetect = true
	opt.Fusion = true
	eng, err := NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CopyDeps(); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("CopyDeps before refresh: %v, want ErrNoGeneration", err)
	}
	if _, err := eng.Fused("S0|p"); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("Fused before refresh: %v, want ErrNoGeneration", err)
	}

	if err := eng.Ingest(copierExtractions()...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}

	deps, err := eng.CopyDeps()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range deps {
		pair := map[string]bool{d.SourceA: true, d.SourceB: true}
		if pair["orig.com"] && pair["copier.com"] {
			found = true
			if d.Posterior < 0.9 {
				t.Fatalf("orig/copier posterior %g, want ≥ 0.9", d.Posterior)
			}
			if d.SharedFalse == 0 {
				t.Fatal("orig/copier dependence reports no shared false values")
			}
		}
	}
	if !found {
		t.Fatalf("planted orig/copier pair missing from CopyDeps: %+v", deps)
	}
	again, err := eng.CopyDeps()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(deps) || (len(deps) > 0 && &again[0] != &deps[0]) {
		t.Fatal("CopyDeps is not memoized per generation")
	}

	for _, label := range []string{"S1|p", "S1\x1fp"} {
		fi, err := eng.Fused(label)
		if err != nil {
			t.Fatalf("Fused(%q): %v", label, err)
		}
		if fi.Subject != "S1" || fi.Predicate != "p" || !fi.Covered {
			t.Fatalf("Fused(%q) = %+v, want covered S1/p", label, fi)
		}
		if len(fi.Values) == 0 {
			t.Fatalf("Fused(%q) returned no values", label)
		}
		for i := 1; i < len(fi.Values); i++ {
			if fi.Values[i].Probability > fi.Values[i-1].Probability {
				t.Fatalf("Fused(%q) values not sorted: %+v", label, fi.Values)
			}
		}
		if fi.Values[0].Object != "true1" {
			t.Fatalf("Fused(%q) top value %q, want true1", label, fi.Values[0].Object)
		}
	}
	if _, err := eng.Fused("no-such|p"); !errors.Is(err, ErrUnknownItem) {
		t.Fatalf("Fused on unknown item: %v, want ErrUnknownItem", err)
	}
	if _, err := eng.Fused("bare-label"); !errors.Is(err, ErrUnknownItem) {
		t.Fatalf("Fused on separator-free label: %v, want ErrUnknownItem", err)
	}

	stats, ok := eng.Stats()
	if !ok {
		t.Fatal("no stats after refresh")
	}
	if stats.CopyPairs != len(deps) {
		t.Fatalf("stats.CopyPairs = %d, want %d", stats.CopyPairs, len(deps))
	}
	if stats.CopyItems != 40 {
		t.Fatalf("stats.CopyItems = %d, want 40: a cold refresh rebuilds every item's signature", stats.CopyItems)
	}
	if stats.FusedItems == 0 || stats.FusionIterations == 0 {
		t.Fatalf("fusion stats report no work: %+v", stats)
	}
}
