package granularity

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

func mkRecord(website, predicate, page string) triple.Record {
	return triple.Record{
		Extractor: "E1", Pattern: "pat", Website: website, Page: page,
		Subject: "s", Predicate: predicate, Object: "o",
	}
}

func unitSizes(labels []string) map[string]int {
	m := make(map[string]int)
	for _, l := range labels {
		m[l]++
	}
	return m
}

func TestExample42(t *testing.T) {
	// Example 4.2: 1000 sources ⟨W, Pi, URLi⟩, one triple each, same
	// website; sizes in [5,500]. Stage 1 merges to ⟨W,Pi⟩, stage 2 to ⟨W⟩,
	// stage 3 splits the size-1000 unit into two buckets of 500.
	var records []triple.Record
	for i := 0; i < 1000; i++ {
		records = append(records, mkRecord("W", fmt.Sprintf("P%d", i), fmt.Sprintf("W/url%d", i)))
	}
	labels, rep, err := Sources(records, 5, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	sizes := unitSizes(labels)
	if len(sizes) != 2 {
		t.Fatalf("final units = %d, want 2 (%v)", len(sizes), rep)
	}
	for unit, n := range sizes {
		if n != 500 {
			t.Errorf("unit %q size = %d, want 500", unit, n)
		}
		if !strings.HasPrefix(unit, "W\x1f#") {
			t.Errorf("split bucket label %q should derive from the website unit", unit)
		}
	}
	if rep.Splits != 1 || rep.SplitBuckets != 2 {
		t.Errorf("report: %+v", rep)
	}
	if rep.FinalUnits != 2 {
		t.Errorf("FinalUnits = %d", rep.FinalUnits)
	}
}

func TestDesiredSizePassesThrough(t *testing.T) {
	var records []triple.Record
	for i := 0; i < 10; i++ {
		records = append(records, mkRecord("W", "P", "W/u"))
	}
	labels, rep, err := Sources(records, 5, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := unitSizes(labels)
	if len(sizes) != 1 {
		t.Fatalf("units = %v", sizes)
	}
	for unit := range sizes {
		if unit != triple.SourceKeyFinest.Label(records[0]) {
			t.Errorf("pass-through should keep the finest key, got %q", unit)
		}
	}
	if rep.Merges != 0 || rep.Splits != 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestMergeStopsAtDesiredSize(t *testing.T) {
	// Three sources under one ⟨website,predicate⟩ parent, two triples each:
	// merging once reaches size 6 >= m=5 and must stop there, not at the
	// website level (Example 4.1).
	var records []triple.Record
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			records = append(records, mkRecord("site1.com", "date_of_birth", fmt.Sprintf("site1.com/u%d", i)))
		}
	}
	labels, _, err := Sources(records, 5, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := unitSizes(labels)
	if len(sizes) != 1 {
		t.Fatalf("units = %v", sizes)
	}
	for unit, n := range sizes {
		if n != 6 {
			t.Errorf("merged unit size = %d", n)
		}
		if unit != "site1.com\x1fdate_of_birth" {
			t.Errorf("merge should stop at ⟨website,predicate⟩, got %q", unit)
		}
	}
}

func TestTopLevelTooSmallIsKept(t *testing.T) {
	// A single record: merging reaches the website level still below m;
	// GETPARENT = ⊥ so the unit is kept as-is.
	records := []triple.Record{mkRecord("tiny.com", "p", "tiny.com/1")}
	labels, rep, err := Sources(records, 5, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != "tiny.com" {
		t.Errorf("label = %q, want website-level unit", labels[0])
	}
	if rep.FinalUnits != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestSplitBucketsBalanced(t *testing.T) {
	var records []triple.Record
	for i := 0; i < 1203; i++ {
		records = append(records, mkRecord("big.com", "p", "big.com/1"))
	}
	labels, rep, err := Sources(records, 5, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := unitSizes(labels)
	if len(sizes) != 3 {
		t.Fatalf("buckets = %d, want ceil(1203/500)=3", len(sizes))
	}
	for unit, n := range sizes {
		if n < 400 || n > 402 {
			t.Errorf("bucket %q size = %d, want ~401", unit, n)
		}
	}
	if rep.Splits != 1 || rep.SplitBuckets != 3 {
		t.Errorf("report: %+v", rep)
	}
}

func TestSplitDeterministicBySeed(t *testing.T) {
	var records []triple.Record
	for i := 0; i < 100; i++ {
		records = append(records, mkRecord("big.com", "p", "big.com/1"))
	}
	l1, _, _ := Sources(records, 1, 10, 42)
	l2, _, _ := Sources(records, 1, 10, 42)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same seed must give identical assignments")
		}
	}
}

func TestExtractorHierarchy(t *testing.T) {
	var records []triple.Record
	// One extractor with 3 patterns, 2 records each; m=5 forces merging up
	// to ⟨extractor, pattern⟩? No: parent of ⟨e,pat,pred,site⟩ is
	// ⟨e,pat,pred⟩ (size 2), then ⟨e,pat⟩ (size 2), then ⟨e⟩ (size 6 >= 5).
	for p := 0; p < 3; p++ {
		for j := 0; j < 2; j++ {
			records = append(records, triple.Record{
				Extractor: "E1", Pattern: fmt.Sprintf("pat%d", p),
				Website: "w", Page: "w/1", Subject: "s", Predicate: "pred", Object: "o",
			})
		}
	}
	labels, _, err := Extractors(records, 5, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := unitSizes(labels)
	if len(sizes) != 1 {
		t.Fatalf("units = %v", sizes)
	}
	for unit := range sizes {
		if unit != "E1" {
			t.Errorf("expected merge to extractor level, got %q", unit)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	records := []triple.Record{mkRecord("w", "p", "w/1")}
	if _, _, err := Sources(records, 10, 5, 1); err == nil {
		t.Error("m > M should error")
	}
	if _, _, err := Sources(records, 0, 0, 1); err == nil {
		t.Error("M=0 should error")
	}
}

func TestEmptyRecords(t *testing.T) {
	labels, rep, err := Sources(nil, 5, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 0 || rep.FinalUnits != 0 {
		t.Errorf("empty input: %v %+v", labels, rep)
	}
}

func TestPropertyAllRecordsLabeledAndBounded(t *testing.T) {
	// Property: every record gets a label; no unit exceeds MaxSize unless it
	// sits at the top with fewer than MinSize (impossible: top units above
	// MaxSize are split; only sub-MinSize top units pass through).
	f := func(seed uint16, nSites, perSite uint8) bool {
		sites := int(nSites%8) + 1
		per := int(perSite%40) + 1
		var records []triple.Record
		for s := 0; s < sites; s++ {
			for i := 0; i < per; i++ {
				records = append(records, mkRecord(
					fmt.Sprintf("site%d", s),
					fmt.Sprintf("p%d", i%3),
					fmt.Sprintf("site%d/u%d", s, i%7)))
			}
		}
		labels, _, err := Sources(records, 4, 12, int64(seed))
		if err != nil {
			return false
		}
		sizes := unitSizes(labels)
		for _, l := range labels {
			if l == "" {
				return false
			}
		}
		for _, n := range sizes {
			if n > 12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCompileWithLabels(t *testing.T) {
	// End-to-end: Sources' labels feed Compile via SourceLabels.
	d := triple.NewDataset()
	for i := 0; i < 20; i++ {
		d.Add(mkRecord("w", fmt.Sprintf("p%d", i), fmt.Sprintf("w/u%d", i)))
	}
	labels, _, err := Sources(d.Records, 5, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Compile(triple.CompileOptions{SourceLabels: labels})
	if s.NumSources() == 20 {
		t.Error("labels should have merged the 20 singleton sources")
	}
	if len(s.Obs) != 20 {
		t.Errorf("observations = %d, want 20", len(s.Obs))
	}
}

// referenceSplitAndMerge is Algorithm 2 keyed by joined label strings, one
// key function per level from the finest: every record's key is built and
// grouped at the finest level, and a merged unit's record list is its
// children's concatenated in key order. It is the oracle for split-and-merge.
func referenceSplitAndMerge(records []triple.Record, levels []func(triple.Record) string, minSize, maxSize int, seed int64) ([]string, Report) {
	labels := make([]string, len(records))
	rng := stats.NewRNG(seed)
	var rep Report
	groups := make(map[string][]int)
	for i, r := range records {
		k := levels[0](r)
		groups[k] = append(groups[k], i)
	}
	rep.InitialUnits = len(groups)
	finalize := func(key string, idxs []int) {
		if len(idxs) > maxSize {
			nBuckets := (len(idxs) + maxSize - 1) / maxSize
			perm := rng.Perm(len(idxs))
			rep.Splits++
			rep.SplitBuckets += nBuckets
			rep.FinalUnits += nBuckets
			for pi, p := range perm {
				labels[idxs[p]] = key + "\x1f#" + strconv.Itoa(pi%nBuckets)
			}
			return
		}
		rep.FinalUnits++
		for _, i := range idxs {
			labels[i] = key
		}
	}
	for lvl := 0; lvl < len(levels); lvl++ {
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		next := make(map[string][]int)
		for _, k := range keys {
			idxs := groups[k]
			if len(idxs) >= minSize || lvl == len(levels)-1 {
				finalize(k, idxs)
				continue
			}
			rep.Merges++
			parent := levels[lvl+1](records[idxs[0]])
			next[parent] = append(next[parent], idxs...)
		}
		groups = next
		if len(groups) == 0 {
			break
		}
	}
	return labels, rep
}

// The reference hierarchies, finest to coarsest.
var (
	referenceSourceLevels = []func(triple.Record) string{
		triple.SourceKeyFinest.Label,
		func(r triple.Record) string { return r.Website + "\x1f" + r.Predicate },
		triple.SourceKeyWebsite.Label,
	}
	referenceExtractorLevels = []func(triple.Record) string{
		triple.ExtractorKeyFinest.Label,
		func(r triple.Record) string { return r.Extractor + "\x1f" + r.Pattern + "\x1f" + r.Predicate },
		func(r triple.Record) string { return r.Extractor + "\x1f" + r.Pattern },
		triple.ExtractorKeyName.Label,
	}
)

// skewedCorpus draws n records whose features are Zipf-skewed, so that units
// span every size from one record to thousands, and whose labels sort in
// other orders than their features do: some features are prefixes of others,
// and some hold characters below the \x1f separator.
func skewedCorpus(seed int64, n int) []triple.Record {
	rng := rand.New(rand.NewSource(seed))
	zipf := func(k uint64) func() int {
		z := rand.NewZipf(rng, 1.3, 2, k)
		return func() int { return int(z.Uint64()) }
	}
	site, pred, page, ext, pat := zipf(40), zipf(12), zipf(300), zipf(6), zipf(9)
	name := func(prefix string, i int) string {
		switch i % 5 {
		case 1:
			return prefix // a prefix of every other name of its kind
		case 2:
			return prefix + "\t" + strconv.Itoa(i)
		}
		return prefix + strconv.Itoa(i)
	}
	recs := make([]triple.Record, n)
	for i := range recs {
		w := name("w", site())
		recs[i] = triple.Record{
			Extractor: name("E", ext()), Pattern: name("pat", pat()),
			Website: w, Page: w + "/" + name("p", page()), Predicate: name("pred", pred()),
			Subject: "s" + strconv.Itoa(i), Object: "o",
		}
	}
	return recs
}

// TestSplitAndMergeMatchesReference: on skewed corpora, for both hierarchies,
// Sources and Extractors label every record and report exactly as the
// string-keyed reference does — with m = 0 (nothing merges), with an m that
// merges units up to the top level, and with an M small enough that units
// split at every level, which checks the order of the random draws.
func TestSplitAndMergeMatchesReference(t *testing.T) {
	hierarchies := []struct {
		name      string
		run       func([]triple.Record, int, int, int64) ([]string, Report, error)
		levels    []func(triple.Record) string
		seedShift int64
	}{
		{"sources", Sources, referenceSourceLevels, 0},
		{"extractors", Extractors, referenceExtractorLevels, 0x5eed},
	}
	sizes := []struct{ m, M int }{{0, 10000}, {0, 7}, {400, 10000}, {40, 50}, {5, 6}}
	for seed := int64(1); seed <= 3; seed++ {
		recs := skewedCorpus(seed, 6000)
		for _, h := range hierarchies {
			for _, sz := range sizes {
				got, gotRep, err := h.run(recs, sz.m, sz.M, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRep := referenceSplitAndMerge(recs, h.levels, sz.m, sz.M, seed+h.seedShift)
				if gotRep != wantRep {
					t.Errorf("seed %d %s m=%d M=%d: report %+v, want %+v", seed, h.name, sz.m, sz.M, gotRep, wantRep)
				}
				if i := slices.IndexFunc(got, func(l string) bool { return l == "" }); i >= 0 {
					t.Errorf("seed %d %s m=%d M=%d: record %d unlabelled", seed, h.name, sz.m, sz.M, i)
				}
				if !slices.Equal(got, want) {
					t.Errorf("seed %d %s m=%d M=%d: labels differ from the reference", seed, h.name, sz.m, sz.M)
				}
			}
		}
	}
}
