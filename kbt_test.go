package kbt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kbt/internal/triple"
	"kbt/internal/websim"
)

// obamaDataset builds a small consensus scenario: four sites say USA, one
// gossip site says Kenya, observed by two extractors plus a noisy one.
func obamaDataset() *Dataset {
	ds := NewDataset()
	add := func(e, site, obj string, conf float64) {
		ds.Add(Extraction{
			Extractor: e, Pattern: "p0", Website: site, Page: site + "/1",
			Subject: "Obama", Predicate: "nationality", Object: obj, Confidence: conf,
		})
	}
	for _, site := range []string{"w1.com", "w2.com", "w3.com", "w4.com"} {
		add("E1", site, "USA", 1)
		add("E2", site, "USA", 0.9)
	}
	add("E1", "gossip.com", "Kenya", 1)
	add("E2", "gossip.com", "Kenya", 0.9)
	// More facts so sources have support.
	for i := 0; i < 6; i++ {
		s := fmt.Sprintf("Person%d", i)
		for _, site := range []string{"w1.com", "w2.com", "w3.com", "w4.com", "gossip.com"} {
			v := "V" + s
			if site == "gossip.com" {
				v = "Wrong" + s
			}
			ds.Add(Extraction{Extractor: "E1", Pattern: "p0", Website: site, Page: site + "/1",
				Subject: s, Predicate: "birthplace", Object: v})
			ds.Add(Extraction{Extractor: "E2", Pattern: "p0", Website: site, Page: site + "/1",
				Subject: s, Predicate: "birthplace", Object: v, Confidence: 0.9})
		}
	}
	return ds
}

func websiteOptions() Options {
	o := DefaultOptions()
	o.Granularity = GranularityWebsite
	o.MinSupport = 1
	o.MinReportableTriples = 3
	return o
}

func TestEstimateKBTBasic(t *testing.T) {
	res, err := EstimateKBT(obamaDataset(), websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	good, ok := res.SourceByName("w1.com")
	if !ok {
		t.Fatal("w1.com missing")
	}
	bad, ok := res.SourceByName("gossip.com")
	if !ok {
		t.Fatal("gossip.com missing")
	}
	if good.KBT <= bad.KBT {
		t.Errorf("consensus site KBT %v should exceed gossip %v", good.KBT, bad.KBT)
	}
	if !good.Reportable {
		t.Error("w1.com should be reportable")
	}
	p, covered := res.TripleProbability("Obama", "nationality", "USA")
	if !covered {
		t.Fatal("Obama triple uncovered")
	}
	pK, _ := res.TripleProbability("Obama", "nationality", "Kenya")
	if p <= pK {
		t.Errorf("p(USA)=%v should exceed p(Kenya)=%v", p, pK)
	}
}

func TestSourcesSortedAndComplete(t *testing.T) {
	res, err := EstimateKBT(obamaDataset(), websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	sources := res.Sources()
	if len(sources) != 5 {
		t.Fatalf("sources = %d, want 5", len(sources))
	}
	for i := 1; i < len(sources); i++ {
		if sources[i].KBT > sources[i-1].KBT {
			t.Fatal("sources not sorted by KBT")
		}
	}
	for _, s := range sources {
		if s.KBT < 0 || s.KBT > 1 {
			t.Errorf("KBT out of range: %+v", s)
		}
		if s.ExpectedTriples < 0 {
			t.Errorf("negative expected triples: %+v", s)
		}
	}
}

// TestTopSourcesMatchesSortedPrefix: the partial selection behind TopSources
// returns exactly Sources()[:k] for every k — on corpora where most sources
// tie at the accuracy clamp, so the label order decides, and whose labels mix
// literal '|' with the \x1f joins that display as '|', down to two sources
// displaying alike ("a|b.com" on "p" and "a" on "b.com|p"), which dense id
// orders — and it builds Source values for its k winners only: O(k)
// allocations, not O(n).
func TestTopSourcesMatchesSortedPrefix(t *testing.T) {
	sites := []string{"a.com", "a|b.com", "b.com", "a", "b.com|"}
	preds := []string{"p", "p|q", "q", "b.com|p"}
	alike := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := NewDataset()
		for i := 0; i < 600; i++ {
			ds.Add(Extraction{
				Extractor: fmt.Sprintf("E%d", rng.Intn(3)), Website: sites[rng.Intn(len(sites))], Page: []string{"x", "y|z"}[rng.Intn(2)],
				Subject: fmt.Sprintf("S%d", rng.Intn(40)), Predicate: preds[rng.Intn(len(preds))],
				Object: fmt.Sprintf("v%d", rng.Intn(3)), Confidence: []float64{1, 0.9, 0.5}[rng.Intn(3)],
			})
		}
		opt := DefaultOptions()
		opt.Granularity = GranularityFinest
		opt.MinSupport = 1
		res, err := EstimateKBT(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		all := res.Sources()
		clamped := 0
		for _, s := range all {
			if s.KBT == all[0].KBT {
				clamped++
			}
		}
		if clamped < 3 {
			t.Fatalf("seed %d: %d sources tie at the top KBT, want a tie to break", seed, clamped)
		}
		for i := 1; i < len(all); i++ {
			if all[i].Name == all[i-1].Name && all[i].KBT == all[i-1].KBT {
				alike++
			}
		}
		for k := 1; k < len(all); k++ {
			fresh := &Result{snap: res.snap, res: res.res, opt: res.opt}
			if got := fresh.TopSources(k); !reflect.DeepEqual(got, all[:k]) {
				t.Fatalf("seed %d: TopSources(%d) = %+v\nwant Sources()[:%d] = %+v", seed, k, got, k, all[:k])
			}
		}
		fresh := &Result{snap: res.snap, res: res.res, opt: res.opt}
		for _, k := range []int{1, 5} {
			if allocs := testing.AllocsPerRun(20, func() { fresh.TopSources(k) }); allocs > float64(2*k+10) {
				t.Errorf("seed %d: TopSources(%d) of %d sources allocates %v times, want O(k)", seed, k, len(all), allocs)
			}
		}
	}
	if alike == 0 {
		t.Fatal("no two sources display alike at one KBT: the dense-id order went untested")
	}
}

// TestFusionTopTriplesMatchesSortedPrefix: FusionResult.TopTriples(k) is
// Triples()[:k] for every k, and NumVerdicts and Result.NumSources count the
// full views the CLI's "... (N more)" lines stand for; a k at or past the
// count, math.MaxInt included, is the full view, for Result.TopTriples too
// (whose selection once reserved room for k triples up front).
func TestFusionTopTriplesMatchesSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := NewDataset()
	for i := 0; i < 600; i++ {
		ds.Add(Extraction{
			Extractor: fmt.Sprintf("E%d", rng.Intn(3)), Website: fmt.Sprintf("w%d.com", rng.Intn(6)), Page: "x",
			Subject: fmt.Sprintf("S%d", rng.Intn(40)), Predicate: fmt.Sprintf("p%d", rng.Intn(2)),
			Object: fmt.Sprintf("v%d", rng.Intn(4)), Confidence: []float64{1, 0.9, 0.5}[rng.Intn(3)],
		})
	}
	opt := DefaultFusionOptions()
	opt.MinSupport = 1
	res, err := FuseSingleLayer(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	all := res.Triples()
	if res.NumVerdicts() != len(all) || len(all) < 50 {
		t.Fatalf("NumVerdicts = %d, Triples has %d (want at least 50)", res.NumVerdicts(), len(all))
	}
	for _, k := range []int{-1, 0, 1, 2, 7, len(all) / 2, len(all) - 1, len(all), len(all) + 1, math.MaxInt} {
		want := all[:max(0, min(k, len(all)))]
		if k <= 0 {
			want = all
		}
		if got := res.TopTriples(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopTriples(%d) = %d triples, not Triples()[:%d]", k, len(got), len(want))
		}
	}
	kres, err := EstimateKBT(ds, websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := kres.NumSources(); n != len(kres.Sources()) || len(kres.TopSources(math.MaxInt)) != n {
		t.Fatalf("NumSources = %d, Sources has %d", n, len(kres.Sources()))
	}
	if got, want := kres.TopTriples(math.MaxInt), kres.TopTriples(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Result.TopTriples(MaxInt) = %d triples, TopTriples(0) %d", len(got), len(want))
	}
}

// TestTopTriplesAllIsMemoed: Result.TopTriples(0), every covered triple most
// probable first, is sorted once per Result, as Sources and Triples are: a
// second call returns the same view and allocates nothing.
func TestTopTriplesAllIsMemoed(t *testing.T) {
	res, err := EstimateKBT(obamaDataset(), websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	first := res.TopTriples(0)
	if len(first) < 2 {
		t.Fatalf("%d covered triples, want several", len(first))
	}
	var again []TripleVerdict
	if n := testing.AllocsPerRun(10, func() { again = res.TopTriples(0) }); n != 0 {
		t.Errorf("a repeated TopTriples(0) allocates %v times", n)
	}
	if &again[0] != &first[0] || len(again) != len(first) {
		t.Error("a repeated TopTriples(0) returns another array than the first call")
	}
}

func TestTriplesEnumeration(t *testing.T) {
	res, err := EstimateKBT(obamaDataset(), websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	triples := res.Triples()
	if len(triples) == 0 {
		t.Fatal("no triples")
	}
	seen := false
	for _, tv := range triples {
		if tv.Probability < 0 || tv.Probability > 1 {
			t.Errorf("probability out of range: %+v", tv)
		}
		if tv.Subject == "Obama" && tv.Object == "USA" {
			seen = true
		}
	}
	if !seen {
		t.Error("expected (Obama, nationality, USA) in enumeration")
	}
}

func TestExtractorsReported(t *testing.T) {
	res, err := EstimateKBT(obamaDataset(), websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	exts := res.Extractors()
	if len(exts) != 2 {
		t.Fatalf("extractors = %d, want 2", len(exts))
	}
	for _, e := range exts {
		if e.Precision <= 0 || e.Precision >= 1 || e.Recall <= 0 || e.Recall >= 1 {
			t.Errorf("quality out of range: %+v", e)
		}
	}
}

func TestGranularities(t *testing.T) {
	ds := obamaDataset()
	for _, g := range []SourceGranularity{GranularityAuto, GranularityWebsite, GranularityPage, GranularityFinest} {
		opt := DefaultOptions()
		opt.Granularity = g
		opt.MinSupport = 1
		res, err := EstimateKBT(ds, opt)
		if err != nil {
			t.Fatalf("granularity %d: %v", g, err)
		}
		if len(res.Sources()) == 0 {
			t.Fatalf("granularity %d: no sources", g)
		}
	}
	opt := DefaultOptions()
	opt.Granularity = SourceGranularity(99)
	if _, err := EstimateKBT(ds, opt); err == nil {
		t.Error("unknown granularity should error")
	}
}

func TestEstimateKBTValidation(t *testing.T) {
	if _, err := EstimateKBT(nil, DefaultOptions()); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := EstimateKBT(NewDataset(), DefaultOptions()); err == nil {
		t.Error("empty dataset should error")
	}
	ds := obamaDataset()
	bad := DefaultOptions()
	bad.Iterations = 0
	if _, err := EstimateKBT(ds, bad); err == nil {
		t.Error("zero iterations should error")
	}
	bad = DefaultOptions()
	bad.DomainSize = 0
	if _, err := EstimateKBT(ds, bad); err == nil {
		t.Error("zero domain should error")
	}
	bad = DefaultOptions()
	bad.MinSourceSize = 50
	bad.MaxSourceSize = 5
	if _, err := EstimateKBT(ds, bad); err == nil {
		t.Error("m > M should error")
	}
}

// TestBatchRefusesWhatIngestRefuses: each bad record of the engine's
// TestIngestValidation (an empty identity field, a bad confidence) fails
// EstimateKBT and FuseSingleLayer as it fails Engine.Ingest, with the same
// reason, naming the extraction by its index.
func TestBatchRefusesWhatIngestRefuses(t *testing.T) {
	good := Extraction{Extractor: "E1", Pattern: "p0", Website: "w1.com", Page: "w1.com/1",
		Subject: "Obama", Predicate: "spouse", Object: "Michelle"}
	bad := []struct {
		name string
		mut  func(*Extraction)
	}{
		{"empty extractor", func(x *Extraction) { x.Extractor = "" }},
		{"empty website", func(x *Extraction) { x.Website = "" }},
		{"empty subject", func(x *Extraction) { x.Subject = "" }},
		{"empty predicate", func(x *Extraction) { x.Predicate = "" }},
		{"empty object", func(x *Extraction) { x.Object = "" }},
		{"negative confidence", func(x *Extraction) { x.Confidence = -0.5 }},
		{"confidence above one", func(x *Extraction) { x.Confidence = 1.5 }},
		{"NaN confidence", func(x *Extraction) { x.Confidence = math.NaN() }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			x := good
			tc.mut(&x)
			eng, err := NewEngine(DefaultEngineOptions())
			if err != nil {
				t.Fatal(err)
			}
			ingestErr := eng.Ingest(x)
			if ingestErr == nil {
				t.Fatal("test premise: Engine.Ingest accepted the record")
			}
			_, reason, ok := strings.Cut(ingestErr.Error(), "record 0: ")
			if !ok {
				t.Fatalf("Engine.Ingest's error %q names no record", ingestErr)
			}
			ds := obamaDataset()
			idx := ds.Len()
			ds.Add(x)
			ds.Add(good)
			want := fmt.Sprintf("extraction %d: %s", idx, reason)
			if _, err := EstimateKBT(ds, websiteOptions()); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("EstimateKBT: err = %v, want one containing %q", err, want)
			}
			if _, err := FuseSingleLayer(ds, DefaultFusionOptions()); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("FuseSingleLayer: err = %v, want one containing %q", err, want)
			}
		})
	}
}

func TestFuseSingleLayer(t *testing.T) {
	ds := obamaDataset()
	for _, model := range []FusionModel{Accu, PopAccu} {
		opt := DefaultFusionOptions()
		opt.Model = model
		opt.MinSupport = 1
		res, err := FuseSingleLayer(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		p, covered := res.TripleProbability("Obama", "nationality", "USA")
		if !covered {
			t.Fatal("uncovered")
		}
		pK, _ := res.TripleProbability("Obama", "nationality", "Kenya")
		if p <= pK {
			t.Errorf("model %d: p(USA)=%v <= p(Kenya)=%v", model, p, pK)
		}
		if len(res.Triples()) == 0 {
			t.Error("no triples")
		}
	}
	if _, err := FuseSingleLayer(NewDataset(), DefaultFusionOptions()); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestMultiLayerBeatsSingleLayerOnNoisyExtractor(t *testing.T) {
	// A noisy extractor spams wrong values on good sites. The multi-layer
	// model should blame the extractor; the single-layer model conflates
	// provenance with source.
	ds := obamaDataset()
	for i := 0; i < 6; i++ {
		s := fmt.Sprintf("Person%d", i)
		for _, site := range []string{"w1.com", "w2.com"} {
			ds.Add(Extraction{Extractor: "Enoisy", Pattern: "p0", Website: site, Page: site + "/1",
				Subject: s, Predicate: "birthplace", Object: "Junk" + s})
		}
	}
	res, err := EstimateKBT(ds, websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := res.SourceByName("w1.com")
	w3, _ := res.SourceByName("w3.com") // not spammed
	if math.Abs(w1.KBT-w3.KBT) > 0.25 {
		t.Errorf("noisy extractor should not tank w1: %v vs w3 %v", w1.KBT, w3.KBT)
	}
	var noisy, clean ExtractorQuality
	for _, e := range res.Extractors() {
		switch e.Name {
		case "Enoisy":
			noisy = e
		case "E1":
			clean = e
		}
	}
	if noisy.Precision >= clean.Precision {
		t.Errorf("noisy extractor precision %v should be below clean %v",
			noisy.Precision, clean.Precision)
	}
}

func TestDatasetLen(t *testing.T) {
	ds := NewDataset()
	if ds.Len() != 0 {
		t.Error("new dataset not empty")
	}
	ds.Add(Extraction{Extractor: "E", Website: "w", Page: "w/1",
		Subject: "s", Predicate: "p", Object: "o"})
	if ds.Len() != 1 {
		t.Error("Len after Add")
	}
}

func TestDisplayLabel(t *testing.T) {
	snap := triple.TableOf([]triple.Record{
		{Extractor: "plain", Website: "a\x1fb", Predicate: "c", Page: "d", Subject: "s", Object: "o"},
		{Extractor: "plain", Website: "a", Predicate: "b|c", Page: "d", Subject: "s", Object: "o"},
		{Extractor: "plain", Website: "a", Predicate: "b", Page: "", Subject: "s", Object: "o"},
	}).Compile(triple.SourceKeyFinest, triple.ExtractorKeyName)
	if got := displayLabel(snap.Source(0)); got != "a|b|c|d" {
		t.Errorf("displayLabel = %q", got)
	}
	if got := displayLabel(snap.Extractor(0)); got != "plain" {
		t.Errorf("displayLabel plain = %q", got)
	}
	// displayCompare orders labels as their display forms do.
	for a := range snap.NumSources() {
		for b := range snap.NumSources() {
			if got, want := displayCompare(snap.Source(a), snap.Source(b)), strings.Compare(displayLabel(snap.Source(a)), displayLabel(snap.Source(b))); got != want {
				t.Errorf("displayCompare(%q, %q) = %d, want %d", displayLabel(snap.Source(a)), displayLabel(snap.Source(b)), got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { displayCompare(snap.Source(0), snap.Source(1)) }); n != 0 {
		t.Errorf("displayCompare allocates %v times a call", n)
	}
}

func TestDetectCopying(t *testing.T) {
	ds := NewDataset()
	// Five independent sites plus a verbatim copier of site "orig".
	truth := func(i int) string { return fmt.Sprintf("v%02d", i) }
	addPair := func(site string, i int, v string) {
		for _, e := range []string{"E1", "E2"} {
			ds.Add(Extraction{Extractor: e, Pattern: "p", Website: site, Page: site + "/1",
				Subject: fmt.Sprintf("s%02d", i), Predicate: "pred", Object: v})
		}
	}
	for s := 0; s < 4; s++ {
		site := fmt.Sprintf("indep%d", s)
		for i := 0; i < 20; i++ {
			v := truth(i)
			if (i+s)%7 == 0 {
				v = fmt.Sprintf("err_%s_%02d", site, i)
			}
			addPair(site, i, v)
		}
	}
	origVals := make([]string, 20)
	for i := 0; i < 20; i++ {
		v := truth(i)
		if i%3 == 0 {
			v = fmt.Sprintf("origerr%02d", i)
		}
		origVals[i] = v
		addPair("orig", i, v)
	}
	for i := 0; i < 20; i++ {
		addPair("copier", i, origVals[i])
	}

	res, err := EstimateKBT(ds, websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	deps, err := res.DetectCopying()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) == 0 {
		t.Fatal("no copying detected")
	}
	top := deps[0]
	pair := map[string]bool{top.SourceA: true, top.SourceB: true}
	if !pair["orig"] || !pair["copier"] {
		t.Fatalf("top pair = (%s, %s), want (orig, copier)", top.SourceA, top.SourceB)
	}
	if top.Posterior < 0.9 || top.SharedFalse == 0 {
		t.Errorf("weak detection: %+v", top)
	}
}

// TestReadTSVIsAddInBulk: a dataset read from TSV estimates exactly like one
// built by adding the same extractions one at a time, and a malformed line
// fails the read by number.
func TestReadTSVIsAddInBulk(t *testing.T) {
	added := obamaDataset()
	var buf bytes.Buffer
	if err := triple.WriteTSV(&buf, &triple.Dataset{Records: added.t.Records()}); err != nil {
		t.Fatal(err)
	}
	read, err := ReadTSV(strings.NewReader("# obama\n\n" + buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if read.Len() != added.Len() {
		t.Fatalf("read %d extractions, want %d", read.Len(), added.Len())
	}
	want, err := EstimateKBT(added, websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateKBT(read, websiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sources(), want.Sources()) || !reflect.DeepEqual(got.Triples(), want.Triples()) {
		t.Errorf("estimates diverge:\n read  %v\n added %v", got.Sources(), want.Sources())
	}

	if _, err := ReadTSV(strings.NewReader(buf.String() + "not\ta\trecord\n")); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("line %d:", added.Len()+1)) {
		t.Errorf("malformed line %d: error %v", added.Len()+1, err)
	}
}

// TestReadTSVRetainsNoText bounds what a dataset read from TSV keeps alive
// per input byte: its id columns and each distinct label once. A reader that
// kept the text (a label a substring of its block) or a record per line would
// keep at least a byte per byte. The bound is the growth of the live heap over
// the read, measured after a collection, so no clock or CPU steal enters it.
func TestReadTSVRetainsNoText(t *testing.T) {
	in := webTSV(t, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, err := ReadTSV(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perByte := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(in))
	t.Logf("%d records, %d bytes of TSV: %.3f bytes live per input byte", ds.Len(), len(in), perByte)
	if perByte > maxLivePerTSVByte {
		t.Errorf("a dataset read from TSV keeps %.3f bytes live per input byte, want at most %.2f", perByte, maxLivePerTSVByte)
	}
	runtime.KeepAlive(ds)
	runtime.KeepAlive(in) // live on both sides of the read, so outside the growth
}

// webTSV returns the web simulator's corpus at the scale as TSV; the corpus
// itself is garbage once it returns.
func webTSV(t *testing.T, scale float64) []byte {
	p := websim.DefaultParams().Scale(scale)
	p.Seed = 1
	w, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := triple.WriteTSV(&buf, w.Dataset); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// maxLivePerTSVByte bounds TestReadTSVRetainsNoText: the columnar dataset
// keeps 0.39 bytes per input byte of that corpus (a reader that kept records
// and text, 2.03), and a label holding its block keeps 1 at the least.
const maxLivePerTSVByte = 0.6

// TestEstimateAutoSameAtAnyWidth: GranularityAuto splits and merges the
// source and the extractor hierarchy side by side and compiles on several
// goroutines; the scores may not depend on how many run at once.
func TestEstimateAutoSameAtAnyWidth(t *testing.T) {
	ds := NewDataset()
	for _, x := range servingCorpus(0, 6000) {
		ds.Add(x)
	}
	opt := DefaultOptions()
	opt.MaxSourceSize = 150 // the 24 sites hold ~250 records each: every one is split at random
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	narrow, err := EstimateKBT(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	for i := 0; i < 3; i++ {
		wide, err := EstimateKBT(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wide.Sources(), narrow.Sources()) || !reflect.DeepEqual(wide.Extractors(), narrow.Extractors()) {
			t.Fatalf("scores at GOMAXPROCS 4 differ from GOMAXPROCS 1:\n %v\n %v", wide.Sources(), narrow.Sources())
		}
	}
	if n := len(narrow.Sources()); n <= 24 {
		t.Errorf("%d source units: no site was split", n)
	}
}
