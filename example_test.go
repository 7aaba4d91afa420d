package kbt_test

import (
	"fmt"
	"log"
	"strings"

	"kbt"
)

// consensus builds a small corpus: four sites agree on every fact, a fifth
// consistently contradicts them, and two extractors read all five.
func consensus() []kbt.Extraction {
	var out []kbt.Extraction
	for i := 0; i < 6; i++ {
		subject := fmt.Sprintf("Person%d", i)
		for _, site := range []string{"w1.com", "w2.com", "w3.com", "w4.com", "gossip.com"} {
			value := "Springfield"
			if site == "gossip.com" {
				value = "Atlantis"
			}
			for _, extractor := range []string{"E1", "E2"} {
				out = append(out, kbt.Extraction{
					Extractor: extractor, Pattern: "p0",
					Website: site, Page: site + "/people",
					Subject: subject, Predicate: "birthplace", Object: value,
				})
			}
		}
	}
	return out
}

// ExampleEstimateKBT runs the batch multi-layer model and ranks the sources
// by their Knowledge-Based Trust score.
func ExampleEstimateKBT() {
	ds := kbt.NewDataset()
	for _, x := range consensus() {
		ds.Add(x)
	}

	opt := kbt.DefaultOptions()
	opt.Granularity = kbt.GranularityWebsite
	opt.MinSupport = 1
	res, err := kbt.EstimateKBT(ds, opt)
	if err != nil {
		log.Fatal(err)
	}

	for _, s := range res.Sources() {
		fmt.Printf("%-12s KBT=%.2f\n", s.Name, s.KBT)
	}
	p, _ := res.TripleProbability("Person0", "birthplace", "Springfield")
	fmt.Printf("p(Person0 born in Springfield) = %.2f\n", p)
	// Output:
	// w1.com       KBT=0.95
	// w2.com       KBT=0.95
	// w3.com       KBT=0.95
	// w4.com       KBT=0.95
	// gossip.com   KBT=0.05
	// p(Person0 born in Springfield) = 1.00
}

// ExampleReadTSV loads a dataset from the TSV interchange format — the bulk
// counterpart of Add, and what `kbt estimate` does with its input file. The
// confidence column is optional; blank and '#' lines are skipped.
func ExampleReadTSV() {
	const feed = `# extractor  pattern  website  page  subject  predicate  object  [confidence]
E1	p0	w1.com	w1.com/people	Person0	birthplace	Springfield	0.9
E2	p0	w1.com	w1.com/people	Person0	birthplace	Springfield

E1	p0	gossip.com	gossip.com/people	Person0	birthplace	Atlantis	0.8
`
	ds, err := kbt.ReadTSV(strings.NewReader(feed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ds.Len(), "extractions")

	_, err = kbt.ReadTSV(strings.NewReader(feed + "E1\tp0\tw1.com\n"))
	fmt.Println(err)
	// Output:
	// 3 extractions
	// triple: line 6: expected 8 tab-separated columns (confidence optional), got 3
}

// ExampleNewEngine streams extractions into the incremental engine:
// the first Refresh runs cold, later ones warm-start from the previous
// posteriors and re-estimate only the items the new records touched.
func ExampleNewEngine() {
	opt := kbt.DefaultEngineOptions()
	opt.MinSupport = 1
	eng, err := kbt.NewEngine(opt)
	if err != nil {
		log.Fatal(err)
	}

	eng.Ingest(consensus()...)
	if _, err := eng.Refresh(); err != nil {
		log.Fatal(err)
	}

	// A new fact arrives. The refresh warm-starts from the previous
	// posteriors; its first pass covers the shards sharing a (source,
	// predicate) absence cell with the new record — all of them here,
	// since every item shares the "birthplace" predicate on w1.com.
	eng.Ingest(kbt.Extraction{
		Extractor: "E1", Pattern: "p0", Website: "w1.com", Page: "w1.com/people",
		Subject: "Person6", Predicate: "birthplace", Object: "Springfield",
	})
	res, err := eng.Refresh()
	if err != nil {
		log.Fatal(err)
	}

	stats, _ := eng.Stats()
	fmt.Printf("warm refresh: %v\n", stats.Warm)
	p, _ := res.TripleProbability("Person6", "birthplace", "Springfield")
	fmt.Printf("p(Person6 born in Springfield) = %.2f\n", p)
	// Output:
	// warm refresh: true
	// p(Person6 born in Springfield) = 0.94
}
