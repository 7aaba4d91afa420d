package main

import (
	"fmt"
	"math/rand"

	"kbt"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// A stream is the input of one serve workload: the base corpus cut into the
// preload batches, then the measured cycles' batches, and the names a query
// may ask for. Everything in it is a function of the seed alone.
type stream struct {
	preload [][]kbt.Extraction
	cycles  [][]kbt.Extraction
	sites   []string // every website of the base, for source?name=
	items   []string // "subject|predicate" of base items, for fused?item=
}

func (s *stream) batches() [][]kbt.Extraction {
	return append(append([][]kbt.Extraction(nil), s.preload...), s.cycles...)
}

// itemGen emits the records of item i under the seed's salt. The three serve
// corpora differ only in this function.
//
// The seed relabels, it does not restructure: which items the unreliable sites
// err on is the fixed pattern the repository's own bench corpora use (i%10 < 3
// and so on), records arrive in generation order, and the seed's salt renames
// every item — which moves it to another shard and another dense id — and
// orders the query targets. Seeding the structure was tried first and measures
// something else: with the same error rates, independent coin flips per item,
// a rotation of the residues, or a shuffle of the records inside each batch
// each moved serve_layer6's refresh time between 23 and 51 ms from one seed
// to the next (ten runs of one seed stay within 3 %), so every comparison
// would have been of seeds, not of code. That sensitivity is recorded as a
// finding in README.md.
type itemGen func(salt string, i int, add addFunc)

// addFunc receives one generated record.
type addFunc func(e, w, subj, pred, obj string, conf float64)

// settledItem is the narrow-reach shape of synthetic.GroupLocalCorpus: items
// come in groups of four witnessed only by their group's own four websites (a
// and b reliable, c wrong on 30% of its items, d on 70%), read by three
// global extractors, E3 hallucinating an extra value on a third of the items.
// Ingesting a new whole group moves only that group's sources.
func settledItem(salt string, i int, add addFunc) {
	group := fmt.Sprintf("g%06d", i/4)
	tieredItem(salt, i, add, group+"-a.com", group+"-b.com", group+"-c.com", group+"-d.com")
}

// layer6Item is the tiered-sites shape of bench_test.go's servingCorpus: the
// same per-item conflict structure as settledItem, but witnessed by 24
// corpus-wide websites, so every batch moves sources that reach everywhere,
// and the mid and bad tiers share their wrong values — the shared mistakes
// copy detection scores.
func layer6Item(salt string, i int, add addFunc) {
	tieredItem(salt, i, add,
		fmt.Sprintf("good%02d.com", i%12), fmt.Sprintf("good%02d.com", (i+5)%12),
		fmt.Sprintf("mid%02d.com", i%6), fmt.Sprintf("bad%02d.com", i%6))
}

func tieredItem(salt string, i int, add addFunc, good1, good2, mid, bad string) {
	subj := fmt.Sprintf("S%s-%07d", salt, i)
	pred := fmt.Sprintf("pred%s-%07d", salt, i)
	truth, wrong := "v"+subj, "w"+subj
	midObj, badObj := truth, truth
	if i%10 < 3 {
		midObj = wrong
	}
	if i%10 < 7 {
		badObj = wrong
	}
	for _, wt := range [4][2]string{{good1, truth}, {good2, truth}, {mid, midObj}, {bad, badObj}} {
		add("E1", wt[0], subj, pred, wt[1], 1)
		add("E2", wt[0], subj, pred, wt[1], 0.9)
		add("E3", wt[0], subj, pred, wt[1], 0.8)
	}
	if i%3 == 0 {
		add("E3", good1, subj, pred, "halluc"+subj, 0.8)
	}
}

// broadItem is the broad-reach shape of bench_test.go's broadReachCorpus
// (unexported there): one hub site witnesses every item, erring on 20%, and
// a single extractor attempts every cell, so every refresh moves two units
// whose reach spans the corpus; narrow leaf sites supply the conflicts.
func broadItem(salt string, i int, add addFunc) {
	subj := fmt.Sprintf("B%s-%07d", salt, i)
	pred := fmt.Sprintf("bpred%s-%07d", salt, i)
	truth, wrong := "v"+subj, "w"+subj
	hubObj, second := truth, truth
	if i%5 == 0 {
		hubObj = wrong
	}
	if i%10 < 3 {
		second = wrong
	}
	add("EB", "hub.com", subj, pred, hubObj, 1)
	add("EB", fmt.Sprintf("leaf%04d.com", i/4%2048), subj, pred, truth, 0.9)
	add("EB", fmt.Sprintf("leaf%04d.com", (i/4+7)%2048), subj, pred, second, 0.8)
}

// buildStream generates baseRecords of base corpus in preload batches of
// about preloadSize, then nCycles batches of at least batchSize records. A
// batch always ends on a multiple of groupItems items: the settled shape needs
// whole groups (a truncated group leaves knife-edge sources that never
// settle), the other shapes use groupItems 1.
func buildStream(seed int64, gen itemGen, groupItems, baseRecords, preloadSize, nCycles, batchSize int) *stream {
	rng := rand.New(rand.NewSource(seed))
	salt := saltOf(rng)
	st := &stream{}
	siteSeen := make(map[string]bool)
	next := 0
	var cur []kbt.Extraction
	inBase := true
	add := func(e, w, subj, pred, obj string, conf float64) {
		cur = append(cur, kbt.Extraction{
			Extractor: e, Pattern: "pat", Website: w, Page: w + "/x",
			Subject: subj, Predicate: pred, Object: obj, Confidence: conf,
		})
		if inBase && !siteSeen[w] {
			siteSeen[w] = true
			st.sites = append(st.sites, w)
		}
	}
	batch := func(atLeast int) []kbt.Extraction {
		cur = nil
		for len(cur) < atLeast {
			for g := 0; g < groupItems; g++ {
				before := len(cur)
				gen(salt, next, add)
				if inBase {
					st.items = append(st.items, cur[before].Subject+"|"+cur[before].Predicate)
				}
				next++
			}
		}
		return cur
	}
	for done := 0; done < baseRecords; {
		b := batch(min(preloadSize, baseRecords-done))
		st.preload = append(st.preload, b)
		done += len(b)
	}
	inBase = false
	rng.Shuffle(len(st.sites), func(i, j int) { st.sites[i], st.sites[j] = st.sites[j], st.sites[i] })
	rng.Shuffle(len(st.items), func(i, j int) { st.items[i], st.items[j] = st.items[j], st.items[i] })
	for c := 0; c < nCycles; c++ {
		st.cycles = append(st.cycles, batch(batchSize))
	}
	return st
}

// saltOf draws the seed's relabelling token.
func saltOf(rng *rand.Rand) string { return fmt.Sprintf("%04x", rng.Intn(1<<16)) }

// webStructureSeed is the one websim world batch_web uses. websim's own seed
// changes the corpus size by ±7 % and the job's cost by more, so here too the
// benchmark's seed relabels: it prefixes every subject, website and page.
const webStructureSeed = 1

// webCorpus generates the batch workload's corpus: the websim web at the given
// scale under the seed's salt. The world is returned for the true accuracy of
// every site, under its unsalted name.
func webCorpus(seed int64, scale float64) (world *websim.World, salt string, records []triple.Record, err error) {
	p := websim.DefaultParams().Scale(scale)
	p.Seed = webStructureSeed
	if world, err = websim.Generate(p); err != nil {
		return nil, "", nil, err
	}
	salt = saltOf(rand.New(rand.NewSource(seed))) + "-"
	records = make([]triple.Record, len(world.Dataset.Records))
	for i, r := range world.Dataset.Records {
		r.Subject, r.Website, r.Page = salt+r.Subject, salt+r.Website, salt+r.Page
		records[i] = r
	}
	return world, salt, records, nil
}

func toExtractions(recs []triple.Record) []kbt.Extraction {
	out := make([]kbt.Extraction, len(recs))
	for i, r := range recs {
		out[i] = kbt.Extraction{
			Extractor: r.Extractor, Pattern: r.Pattern, Website: r.Website, Page: r.Page,
			Subject: r.Subject, Predicate: r.Predicate, Object: r.Object, Confidence: r.Confidence,
		}
	}
	return out
}

func toRecords(xs []kbt.Extraction) []triple.Record {
	out := make([]triple.Record, len(xs))
	for i, x := range xs {
		out[i] = triple.Record{
			Extractor: x.Extractor, Pattern: x.Pattern, Website: x.Website, Page: x.Page,
			Subject: x.Subject, Predicate: x.Predicate, Object: x.Object, Confidence: x.Confidence,
		}
	}
	return out
}
