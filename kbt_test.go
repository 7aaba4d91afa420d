package kbt

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kbt/internal/triple"
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
	if displayLabel("a\x1fb\x1fc") != "a|b|c" {
		t.Error("displayLabel")
	}
	if displayLabel("plain") != "plain" {
		t.Error("displayLabel plain")
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
	if err := triple.WriteTSV(&buf, added.d); err != nil {
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
