package triple

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func rec(e, w, p, s, pred, o string, conf float64) Record {
	return Record{
		Extractor: e, Pattern: "pat0", Website: w, Page: p,
		Subject: s, Predicate: pred, Object: o, Confidence: conf,
	}
}

func TestRecordConf(t *testing.T) {
	if got := (Record{Confidence: 0}).Conf(); got != 1 {
		t.Errorf("zero confidence should mean 1, got %v", got)
	}
	if got := (Record{Confidence: 0.4}).Conf(); got != 0.4 {
		t.Errorf("Conf = %v", got)
	}
	if got := (Record{Confidence: 7}).Conf(); got != 1 {
		t.Errorf("over-1 confidence should clamp to 1, got %v", got)
	}
}

func TestKeyFunctions(t *testing.T) {
	r := rec("E1", "wiki.com", "wiki.com/p1", "Obama", "nationality", "USA", 1)
	if SourceKeyWebsite(r) != "wiki.com" {
		t.Error("SourceKeyWebsite")
	}
	if SourceKeyWebsitePredicate(r) != "wiki.com\x1fnationality" {
		t.Error("SourceKeyWebsitePredicate")
	}
	if SourceKeyFinest(r) != "wiki.com\x1fnationality\x1fwiki.com/p1" {
		t.Error("SourceKeyFinest")
	}
	if SourceKeyPage(r) != "wiki.com/p1" {
		t.Error("SourceKeyPage")
	}
	if ExtractorKeyName(r) != "E1" {
		t.Error("ExtractorKeyName")
	}
	if ExtractorKeyFinest(r) != "E1\x1fpat0\x1fnationality\x1fwiki.com" {
		t.Error("ExtractorKeyFinest")
	}
	if ProvenanceKey(r) != "E1\x1fwiki.com\x1fnationality\x1fpat0" {
		t.Error("ProvenanceKey")
	}
}

func TestCompileBasic(t *testing.T) {
	d := NewDataset()
	d.Add(rec("E1", "w1", "w1/p1", "Obama", "nationality", "USA", 1))
	d.Add(rec("E2", "w1", "w1/p1", "Obama", "nationality", "USA", 0.9))
	d.Add(rec("E1", "w2", "w2/p1", "Obama", "nationality", "Kenya", 1))
	d.Add(rec("E1", "w1", "w1/p1", "Obama", "birthplace", "Hawaii", 1))

	s := d.Compile(CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName})
	if len(s.Obs) != 4 {
		t.Fatalf("obs = %d, want 4", len(s.Obs))
	}
	if len(s.Sources) != 2 || len(s.Extractors) != 2 || len(s.Items) != 2 || len(s.Values) != 3 {
		t.Fatalf("unexpected dims: %s", s.Stats())
	}
	if len(s.Triples) != 3 {
		t.Fatalf("candidate triples = %d, want 3", len(s.Triples))
	}
	// (w1, Obama|nationality, USA) has two observations.
	w1 := s.SourceID("w1")
	dItem := s.ItemID("Obama", "nationality")
	vUSA := s.ValueID("USA")
	ti := s.TripleIndex(w1, dItem, vUSA)
	if ti < 0 || len(s.ByTriple[ti]) != 2 {
		t.Fatalf("ByTriple for (w1,nat,USA) = %v", ti)
	}
}

func TestCompileDedupKeepsMaxConfidence(t *testing.T) {
	d := NewDataset()
	d.Add(rec("E1", "w1", "w1/p1", "s", "p", "o", 0.3))
	d.Add(rec("E1", "w1", "w1/p1", "s", "p", "o", 0.8))
	d.Add(rec("E1", "w1", "w1/p1", "s", "p", "o", 0.5))
	s := d.Compile(CompileOptions{})
	if len(s.Obs) != 1 {
		t.Fatalf("obs = %d, want 1 after dedup", len(s.Obs))
	}
	if s.Obs[0].Conf != 0.8 {
		t.Errorf("dedup conf = %v, want max 0.8", s.Obs[0].Conf)
	}
}

func TestCompileDeterministic(t *testing.T) {
	build := func() *Snapshot {
		d := NewDataset()
		for i := 0; i < 50; i++ {
			w := string(rune('a' + i%5))
			d.Add(rec("E"+string(rune('0'+i%3)), w, w+"/p", "s"+string(rune('0'+i%7)), "p", "o"+string(rune('0'+i%4)), 1))
		}
		return d.Compile(CompileOptions{})
	}
	a, b := build(), build()
	if len(a.Obs) != len(b.Obs) {
		t.Fatal("nondeterministic compile size")
	}
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			t.Fatalf("nondeterministic obs order at %d: %v vs %v", i, a.Obs[i], b.Obs[i])
		}
	}
}

func TestGranularityChangesSourceCount(t *testing.T) {
	d := NewDataset()
	d.Add(rec("E1", "w1", "w1/p1", "s1", "p1", "o1", 1))
	d.Add(rec("E1", "w1", "w1/p2", "s2", "p1", "o2", 1))
	d.Add(rec("E1", "w1", "w1/p3", "s3", "p2", "o3", 1))

	coarse := d.Compile(CompileOptions{SourceKey: SourceKeyWebsite})
	if len(coarse.Sources) != 1 {
		t.Errorf("website granularity sources = %d, want 1", len(coarse.Sources))
	}
	mid := d.Compile(CompileOptions{SourceKey: SourceKeyWebsitePredicate})
	if len(mid.Sources) != 2 {
		t.Errorf("website|predicate sources = %d, want 2", len(mid.Sources))
	}
	fine := d.Compile(CompileOptions{SourceKey: SourceKeyFinest})
	if len(fine.Sources) != 3 {
		t.Errorf("finest sources = %d, want 3", len(fine.Sources))
	}
}

func TestIndexesConsistent(t *testing.T) {
	d := NewDataset()
	d.Add(rec("E1", "w1", "w1/p1", "s1", "p1", "o1", 1))
	d.Add(rec("E2", "w1", "w1/p1", "s1", "p1", "o2", 1))
	d.Add(rec("E1", "w2", "w2/p1", "s1", "p1", "o1", 1))
	d.Add(rec("E2", "w2", "w2/p1", "s2", "p1", "o1", 0.6))
	s := d.Compile(CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName})

	// Every observation appears in exactly one ByTriple bucket.
	seen := make(map[int]int)
	for ti, idxs := range s.ByTriple {
		tr := s.Triples[ti]
		for _, oi := range idxs {
			o := s.Obs[oi]
			if o.W != tr.W || o.D != tr.D || o.V != tr.V {
				t.Fatalf("ByTriple mismatch: obs %v in triple %v", o, tr)
			}
			seen[oi]++
		}
	}
	if len(seen) != len(s.Obs) {
		t.Fatalf("ByTriple covers %d obs, want %d", len(seen), len(s.Obs))
	}
	for oi, n := range seen {
		if n != 1 {
			t.Fatalf("obs %d in %d buckets", oi, n)
		}
	}

	// ItemValues are sorted and deduped.
	for d_, vs := range s.ItemValues {
		if !sort.IntsAreSorted(vs) {
			t.Fatalf("ItemValues[%d] not sorted: %v", d_, vs)
		}
		for i := 1; i < len(vs); i++ {
			if vs[i] == vs[i-1] {
				t.Fatalf("ItemValues[%d] has duplicate: %v", d_, vs)
			}
		}
	}

	// SourcesOfExtractor matches the observations.
	for e, srcs := range s.SourcesOfExtractor {
		want := make(map[int]bool)
		for _, oi := range s.ObsOfExtractor[e] {
			want[s.Obs[oi].W] = true
		}
		if len(want) != len(srcs) {
			t.Fatalf("SourcesOfExtractor[%d] = %v, want %d sources", e, srcs, len(want))
		}
		for _, w := range srcs {
			if !want[w] {
				t.Fatalf("SourcesOfExtractor[%d] contains %d unexpectedly", e, w)
			}
		}
	}
}

func TestLookupsMissing(t *testing.T) {
	s := NewDataset().Compile(CompileOptions{})
	if s.SourceID("nope") != -1 || s.ExtractorID("nope") != -1 ||
		s.ItemID("a", "b") != -1 || s.ValueID("nope") != -1 {
		t.Error("missing lookups must return -1")
	}
}

func TestProvidedAndTrueValueBookkeeping(t *testing.T) {
	d := NewDataset()
	d.MarkProvided("w1", "w1/p1", "Obama", "nationality", "USA")
	d.MarkTrue("Obama", "nationality", "USA")
	if !d.Provided[ProvidedKey("w1", "w1/p1", "Obama", "nationality", "USA")] {
		t.Error("MarkProvided lost the triple")
	}
	if d.TrueValue["Obama\x1fnationality"] != "USA" {
		t.Error("MarkTrue lost the value")
	}
}

func TestCompilePropertyEveryObsIndexed(t *testing.T) {
	// Property: for random datasets, compiled indexes are complete (each obs
	// reachable via its extractor's list, its triple bucket, and its item).
	f := func(seed uint16) bool {
		d := NewDataset()
		n := int(seed%50) + 1
		for i := 0; i < n; i++ {
			j := (i*2654435761 + int(seed)) % 997
			d.Add(rec(
				"E"+string(rune('0'+j%4)),
				"w"+string(rune('0'+j%6)),
				"p"+string(rune('0'+j%9)),
				"s"+string(rune('0'+j%5)),
				"pred"+string(rune('0'+j%3)),
				"o"+string(rune('0'+j%4)),
				float64(j%10+1)/10,
			))
		}
		s := d.Compile(CompileOptions{})
		count := 0
		for _, idxs := range s.ObsOfExtractor {
			count += len(idxs)
		}
		if count != len(s.Obs) {
			return false
		}
		count = 0
		for _, idxs := range s.ByTriple {
			count += len(idxs)
		}
		return count == len(s.Obs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCompileSameAtAnyWidth: Compile interns its four vocabularies on four
// goroutines, and nothing about the result may depend on how they are
// scheduled: at GOMAXPROCS 1 and 4 a key-function compile and a label-override
// compile of the same stream — duplicate (e,w,d,v) cells that raise a
// confidence included — yield deep-equal snapshots. A label-override compile
// must also equal the key-function compile of records that carry those labels
// as their website and extractor, which ties it to the path the Extend ≡
// Compile suite pins record by record.
func TestCompileSameAtAnyWidth(t *testing.T) {
	recs := randomStream(11, 20000)
	src, ext := make([]string, len(recs)), make([]string, len(recs))
	relabelled := slices.Clone(recs)
	rng := rand.New(rand.NewSource(12))
	for i := range recs {
		// Positional labels are not functions of the record: equal records
		// may land in different units.
		src[i] = fmt.Sprintf("%s#%d", recs[i].Website, rng.Intn(3))
		ext[i] = fmt.Sprintf("%s#%d", recs[i].Extractor, rng.Intn(2))
		relabelled[i].Website, relabelled[i].Extractor = src[i], ext[i]
	}
	compiles := map[string]func() *Snapshot{
		"keys": func() *Snapshot { return (&Dataset{Records: recs}).Compile(CompileOptions{}) },
		"labels": func() *Snapshot {
			return (&Dataset{Records: recs}).Compile(CompileOptions{SourceLabels: src, ExtractorLabels: ext})
		},
	}
	for name, compile := range compiles {
		t.Run(name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			narrow := compile()
			runtime.GOMAXPROCS(4)
			for i := 0; i < 3; i++ {
				requireEqualSnapshots(t, compile(), narrow)
			}
			if raised := len(recs) - len(narrow.Obs); raised == 0 {
				t.Error("the stream holds no duplicate cell")
			}
		})
	}
	requireEqualSnapshots(t, compiles["labels"](),
		(&Dataset{Records: relabelled}).Compile(CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}))
}
