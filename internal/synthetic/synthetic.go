// Package synthetic generates the controlled data sets of §5.2.1: N sources
// each providing triples with accuracy A, and L extractors that process a
// source with probability δ, extract a provided triple with recall R, and
// reconcile each triple component correctly with probability P (so extractor
// precision is P³). Ground truth for every latent quantity is retained so
// the harness can compute SqV, SqC and SqA exactly (Figures 3 and 4).
package synthetic

import (
	"fmt"

	"kbt/internal/stats"
	"kbt/internal/triple"
)

// Params mirrors the paper's synthetic-experiment knobs.
type Params struct {
	// NumSources and NumExtractors: the paper uses 10 and 5.
	NumSources, NumExtractors int
	// TriplesPerSource: each source provides this many triples (paper: 100).
	TriplesPerSource int
	// NumDataItems is the shared pool of data items sources draw from;
	// overlap across sources provides the redundancy inference relies on.
	// Defaults to TriplesPerSource when zero (every source covers the whole
	// pool, the maximal-redundancy setting of §5.2.1).
	NumDataItems int
	// NumPredicates is the size of the predicate vocabulary (affects how
	// predicate-corruption manifests). Defaults to 4.
	NumPredicates int
	// SourceAccuracy is A (paper default 0.7).
	SourceAccuracy float64
	// ExtractorCoverage is δ, the probability an extractor processes a
	// source at all (paper default 0.5).
	ExtractorCoverage float64
	// ExtractorRecall is R, the probability of extracting a provided triple
	// from a processed source (paper default 0.5).
	ExtractorRecall float64
	// ComponentPrecision is P, the per-component (subject, predicate,
	// object) reconciliation accuracy (paper default 0.8; Pe = P³).
	ComponentPrecision float64
	// DomainSize is n, the number of false values per data item (default 10).
	DomainSize int
	// Seed drives all randomness.
	Seed int64
}

// DefaultParams returns the paper's default synthetic configuration.
func DefaultParams() Params {
	return Params{
		NumSources:         10,
		NumExtractors:      5,
		TriplesPerSource:   100,
		NumPredicates:      4,
		SourceAccuracy:     0.7,
		ExtractorCoverage:  0.5,
		ExtractorRecall:    0.5,
		ComponentPrecision: 0.8,
		DomainSize:         10,
		Seed:               1,
	}
}

// World is a generated data set plus full ground truth.
type World struct {
	Params  Params
	Dataset *triple.Dataset

	// TrueAccuracy is the empirical accuracy of each source's provided
	// triples, keyed by website label (the ground truth for SqA).
	TrueAccuracy map[string]float64

	// ExtractorStats records empirical quality per extractor label.
	ExtractorStats map[string]ExtractorTruth

	// Items lists the pool's data items (subject, predicate).
	Items []Item
}

// Item is one pool data item with its value domain.
type Item struct {
	Subject, Predicate string
	TrueValue          string
	Domain             []string // TrueValue plus n false values
}

// Key returns the dataset item key.
func (it Item) Key() string { return it.Subject + "\x1f" + it.Predicate }

// ExtractorTruth is the empirical ground truth quality of one extractor.
type ExtractorTruth struct {
	// Extractions is the total number of produced records; Correct counts
	// those matching a truly provided (w,d,v); ProvidedSeen counts provided
	// triples in the sources it processed.
	Extractions, Correct, ProvidedSeen int
}

// Precision returns Correct/Extractions (0 when empty).
func (e ExtractorTruth) Precision() float64 {
	if e.Extractions == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Extractions)
}

// Recall returns Correct/ProvidedSeen (0 when empty).
func (e ExtractorTruth) Recall() float64 {
	if e.ProvidedSeen == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.ProvidedSeen)
}

// SourceName returns the website label of source i.
func SourceName(i int) string { return fmt.Sprintf("src%03d", i) }

// ExtractorName returns the label of extractor i.
func ExtractorName(i int) string { return fmt.Sprintf("ext%02d", i) }

// Generate builds a World from the parameters.
func Generate(p Params) (*World, error) {
	if p.NumSources < 1 || p.NumExtractors < 1 || p.TriplesPerSource < 1 {
		return nil, fmt.Errorf("synthetic: counts must be positive")
	}
	if p.NumDataItems == 0 {
		p.NumDataItems = p.TriplesPerSource
	}
	if p.NumDataItems < p.TriplesPerSource {
		return nil, fmt.Errorf("synthetic: NumDataItems (%d) < TriplesPerSource (%d)",
			p.NumDataItems, p.TriplesPerSource)
	}
	if p.NumPredicates < 1 {
		p.NumPredicates = 4
	}
	if p.DomainSize < 1 {
		p.DomainSize = 10
	}
	for _, v := range []float64{p.SourceAccuracy, p.ExtractorCoverage, p.ExtractorRecall, p.ComponentPrecision} {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("synthetic: probability %v out of [0,1]", v)
		}
	}

	rng := stats.NewRNG(p.Seed)
	w := &World{
		Params:         p,
		Dataset:        triple.NewDataset(),
		TrueAccuracy:   make(map[string]float64),
		ExtractorStats: make(map[string]ExtractorTruth),
	}

	// Data-item pool with value domains.
	w.Items = make([]Item, p.NumDataItems)
	for j := range w.Items {
		it := Item{
			Subject:   fmt.Sprintf("subj%04d", j),
			Predicate: fmt.Sprintf("pred%d", j%p.NumPredicates),
		}
		it.TrueValue = fmt.Sprintf("val%04d_true", j)
		it.Domain = make([]string, 0, p.DomainSize+1)
		it.Domain = append(it.Domain, it.TrueValue)
		for f := 0; f < p.DomainSize; f++ {
			it.Domain = append(it.Domain, fmt.Sprintf("val%04d_f%02d", j, f))
		}
		w.Items[j] = it
		w.Dataset.MarkTrue(it.Subject, it.Predicate, it.TrueValue)
	}

	// Sources provide triples.
	type provided struct {
		item  int
		value string
	}
	providedBy := make([][]provided, p.NumSources)
	for si := 0; si < p.NumSources; si++ {
		srng := rng.Fork(int64(1000 + si))
		site := SourceName(si)
		perm := srng.Perm(p.NumDataItems)[:p.TriplesPerSource]
		correct := 0
		for _, j := range perm {
			it := w.Items[j]
			value := it.TrueValue
			if !srng.Bernoulli(p.SourceAccuracy) {
				// Uniform false value (the ACCU generative assumption).
				value = it.Domain[1+srng.Intn(p.DomainSize)]
			} else {
				correct++
			}
			providedBy[si] = append(providedBy[si], provided{item: j, value: value})
			w.Dataset.MarkProvided(site, pageOf(site), it.Subject, it.Predicate, value)
		}
		w.TrueAccuracy[site] = float64(correct) / float64(p.TriplesPerSource)
	}

	// Extractors process sources and produce (possibly corrupted) records.
	for ei := 0; ei < p.NumExtractors; ei++ {
		erng := rng.Fork(int64(2000 + ei))
		name := ExtractorName(ei)
		truth := ExtractorTruth{}
		for si := 0; si < p.NumSources; si++ {
			if !erng.Bernoulli(p.ExtractorCoverage) {
				continue // extractor does not process this source
			}
			site := SourceName(si)
			truth.ProvidedSeen += len(providedBy[si])
			for _, pv := range providedBy[si] {
				if !erng.Bernoulli(p.ExtractorRecall) {
					continue // false negative
				}
				it := w.Items[pv.item]
				subj, pred, obj := it.Subject, it.Predicate, pv.value
				corrupted := false
				if !erng.Bernoulli(p.ComponentPrecision) {
					subj = w.Items[erng.Intn(p.NumDataItems)].Subject
					corrupted = corrupted || subj != it.Subject
				}
				if !erng.Bernoulli(p.ComponentPrecision) {
					newPred := fmt.Sprintf("pred%d", erng.Intn(p.NumPredicates))
					corrupted = corrupted || newPred != pred
					pred = newPred
				}
				if !erng.Bernoulli(p.ComponentPrecision) {
					newObj := it.Domain[erng.Intn(len(it.Domain))]
					corrupted = corrupted || newObj != obj
					obj = newObj
				}
				truth.Extractions++
				if !corrupted {
					truth.Correct++
				}
				w.Dataset.Add(triple.Record{
					Extractor: name,
					Pattern:   "pat0",
					Website:   site,
					Page:      pageOf(site),
					Subject:   subj,
					Predicate: pred,
					Object:    obj,
				})
			}
		}
		w.ExtractorStats[name] = truth
	}
	return w, nil
}

func pageOf(site string) string { return site + "/page" }

// Compile builds the snapshot at website/extractor-name granularity — the
// natural unit for the synthetic experiments, where each source is one
// simulated provider.
func (w *World) Compile() *triple.Snapshot {
	return w.Dataset.Compile(triple.CompileOptions{
		SourceKey:    triple.SourceKeyWebsite,
		ExtractorKey: triple.ExtractorKeyName,
	})
}

// ProvidedTruth reports whether source (website) truly provides (s,p,o).
func (w *World) ProvidedTruth(website, subject, predicate, object string) bool {
	return w.Dataset.Provided[triple.ProvidedKey(website, pageOf(website), subject, predicate, object)]
}

// TrueValueOf returns the true value of a data item key, if it is a pool item.
func (w *World) TrueValueOf(subject, predicate string) (string, bool) {
	v, ok := w.Dataset.TrueValue[subject+"\x1f"+predicate]
	return v, ok
}

// GroupLocalCorpus builds the deterministic serving-shaped fixture shared by
// the engine's staleness tests and the group-local micro-benches: item groups
// of four, each witnessed only by its group's own four websites
// ("g%06d-{a..d}.com" — a and b reliable, c wrong on 30% of its items, d on
// 70%), read by three global extractors E1-E3 of descending confidence, with
// E3 hallucinating an extra value on every third item. Because sources are
// group-local, ingesting new whole groups moves only the new sites'
// accuracies — the regime where per-unit staleness confines the settling
// sweep. Groups are always emitted whole: a truncated group would leave
// knife-edge sources (two items, conflicting evidence) whose accuracy and
// value posteriors chase each other through the Eq 26 feedback for thousands
// of sub-Tol iterations. Item ids are global (group g owns items 4g..4g+3),
// so successive calls with increasing firstGroup extend the same corpus.
func GroupLocalCorpus(firstGroup, nGroups int) []triple.Record {
	var recs []triple.Record
	add := func(e, w, subj, pred, obj string, conf float64) {
		recs = append(recs, triple.Record{
			Extractor: e, Pattern: "pat", Website: w, Page: w + "/x",
			Subject: subj, Predicate: pred, Object: obj, Confidence: conf,
		})
	}
	for g := firstGroup; g < firstGroup+nGroups; g++ {
		group := fmt.Sprintf("g%06d", g)
		for i := 4 * g; i < 4*g+4; i++ {
			subj := fmt.Sprintf("S%07d", i)
			pred := fmt.Sprintf("pred%07d", i)
			truth := "v" + subj
			wrong := "w" + subj
			sites := []struct {
				site string
				obj  string
			}{
				{group + "-a.com", truth},
				{group + "-b.com", truth},
				{group + "-c.com", truth},
				{group + "-d.com", truth},
			}
			if i%10 < 3 {
				sites[2].obj = wrong
			}
			if i%10 < 7 {
				sites[3].obj = wrong
			}
			for _, wt := range sites {
				add("E1", wt.site, subj, pred, wt.obj, 1)
				add("E2", wt.site, subj, pred, wt.obj, 0.9)
				add("E3", wt.site, subj, pred, wt.obj, 0.8)
			}
			if i%3 == 0 {
				add("E3", sites[0].site, subj, pred, "halluc"+subj, 0.8)
			}
		}
	}
	return recs
}
