package copydetect

import (
	"fmt"
	"math/rand"
	"testing"

	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// benchWorld builds the serving-shaped fixture the warm benches run on: a
// 100k-record group-local corpus (the regime where a refresh's evidence
// churn confines to the shards its ingest fed) compiled once, sharded 256
// ways, with randomized value posteriors, Provides mask and accuracies.
func benchWorld() (*trackerWorld, *rand.Rand) {
	const corpusN, nShards = 100_000, 256
	var recs []triple.Record
	for g := 0; len(recs) < corpusN; g++ {
		recs = append(recs, synthetic.GroupLocalCorpus(g, 1)...)
	}
	rng := rand.New(rand.NewSource(7))
	return newTrackerWorld(rng, recs, nShards), rng
}

// tieredWorld is the corpus-wide fixture: the candidate triples of the
// end-to-end benchmark's Layer-6 corpus (bench/corpus.go's layer6Item) at the
// size its measured loop reaches — 7000 items, each witnessed by four of 24
// websites that between them reach every item, the mid and bad tiers sharing
// their wrong values, a hallucinated extra value on every third item — sharded
// 64 ways as that workload is.
func tieredWorld() (*trackerWorld, *rand.Rand) {
	const nItems, nShards = 7000, 64
	var recs []triple.Record
	for i := 0; i < nItems; i++ {
		subj := fmt.Sprintf("S%07d", i)
		truth, wrong := "v"+subj, "w"+subj
		midObj, badObj := truth, truth
		if i%10 < 3 {
			midObj = wrong
		}
		if i%10 < 7 {
			badObj = wrong
		}
		good1 := fmt.Sprintf("good%02d.com", i%12)
		witnesses := [][2]string{
			{good1, truth}, {fmt.Sprintf("good%02d.com", (i+5)%12), truth},
			{fmt.Sprintf("mid%02d.com", i%6), midObj}, {fmt.Sprintf("bad%02d.com", i%6), badObj},
		}
		if i%3 == 0 {
			witnesses = append(witnesses, [2]string{good1, "halluc" + subj})
		}
		for _, wt := range witnesses {
			recs = append(recs, triple.Record{Extractor: "E", Website: wt[0], Page: wt[0] + "/x",
				Subject: subj, Predicate: "pred" + subj, Object: wt[1]})
		}
	}
	rng := rand.New(rand.NewSource(7))
	return newTrackerWorld(rng, recs, nShards), rng
}

// settle is the footprint a refresh leaves on the tiered corpus, whose sources
// reach everywhere: every shard is re-estimated and every accuracy moves, so
// every posterior comes out a little different, yet almost none crosses a
// gate — one item in 200 has its evidence redrawn, which flips well under 1 %
// of the discretised evidence.
func (w *trackerWorld) settle(rng *rand.Rand) []int {
	all := allShardIdx(len(w.shards))
	w.jitter(rng, all)
	for d, tis := range w.s.TriplesOfItem {
		if rng.Intn(200) > 0 {
			continue
		}
		for k := range w.vp[d] {
			w.vp[d][k] = rng.Float64()
		}
		for _, ti := range tis {
			w.cp[ti] = rng.Float64()
		}
	}
	for src := range w.acc {
		w.acc[src] = rng.Float64()*0.96 + 0.02
	}
	return all
}

// churn moves the evidence of the next window of dirtyN shards (round robin
// over the shard space) and the accuracies of the next window of srcN
// sources — the footprint a warm engine refresh leaves after absorbing a
// ~100-record group-local ingest: its measured first-pass cover is 12–16 of
// 256 shards, and only the handful of sources the ingest actually fed move
// their accuracies (that confinement is the staleness ledger's whole
// point). Within a dirty shard about a quarter of the evidence actually
// lands somewhere new: a refresh re-estimates a dirty shard wholesale, but
// in the settled serving regime most of its posteriors come out where they
// were. Both shapes must nevertheless treat the whole shard as dirty — that
// is the granularity the engine reports.
func (w *trackerWorld) churn(rng *rand.Rand, round, dirtyN, srcN int) []int {
	dirty := make([]int, dirtyN)
	for j := range dirty {
		dirty[j] = (round*dirtyN + j) % len(w.shards)
	}
	for _, si := range dirty {
		sh := w.shards[si]
		for _, d := range sh.Items {
			if rng.Intn(4) > 0 {
				continue
			}
			row := make([]float64, len(w.s.ItemValues[d]))
			for k := range row {
				row[k] = rng.Float64()
			}
			w.vp[d] = row
		}
		for _, ti := range sh.Triples {
			if rng.Intn(4) == 0 {
				w.cp[ti] = rng.Float64()
			}
		}
	}
	for j := 0; j < srcN; j++ {
		src := (round*srcN + j) % len(w.acc)
		w.acc[src] = rng.Float64()*0.96 + 0.02
	}
	return dirty
}

// BenchmarkCopyDetectWarm contrasts keeping the dependence list current
// incrementally against recomputing it from scratch, on two steady-state
// serving loops. Group-local (the unprefixed cases): per iteration the
// evidence of one warm-ingest footprint (12 of 256 shards) churns, a quarter
// of it landing somewhere new. Corpus-wide: every shard is dirty and every
// accuracy moves, but under 1 % of the evidence crosses a gate — the regime
// the end-to-end benchmark's serve_layer6 workload gates. The incremental
// shape rebuilds the dirty shards' item signatures, moves the pair statistics
// only where one changed and rescores only the pairs whose statistics or
// member accuracies moved; the batch-oracle shape is the full O(corpus)
// Detect the tracker replaces. The two lists are deep-equal
// (TestFuzzTrackerMatchesDetect pins it); only the cost curves differ.
func BenchmarkCopyDetectWarm(b *testing.B) {
	benchWarm(b, benchWorld, func(w *trackerWorld, rng *rand.Rand, round int) []int {
		return w.churn(rng, round, 12, 24)
	})
	b.Run("corpus-wide", func(b *testing.B) {
		benchWarm(b, tieredWorld, func(w *trackerWorld, rng *rand.Rand, _ int) []int {
			return w.settle(rng)
		})
	})
}

// benchWarm runs the incremental and the batch-oracle shape over one world,
// moving its evidence by churn, off the clock, before every iteration.
func benchWarm(b *testing.B, world func() (*trackerWorld, *rand.Rand), churn func(w *trackerWorld, rng *rand.Rand, round int) []int) {
	b.Run("incremental", func(b *testing.B) {
		w, rng := world()
		tr, err := NewTracker(DefaultOptions(), len(w.shards))
		if err != nil {
			b.Fatal(err)
		}
		tr.Update(w.s, w.evidence(), w.shards, allShardIdx(len(w.shards)))
		tr.Dependencies(w.evidence().Accuracy)
		var pairs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirty := churn(w, rng, i)
			b.StartTimer()
			tr.Update(w.s, w.evidence(), w.shards, dirty)
			pairs = len(tr.Dependencies(w.evidence().Accuracy))
		}
		b.StopTimer()
		b.ReportMetric(float64(pairs), "copy-pairs")
	})
	b.Run("batch-oracle", func(b *testing.B) {
		w, rng := world()
		var pairs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churn(w, rng, i)
			b.StartTimer()
			deps, err := Detect(w.s, w.evidence(), DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			pairs = len(deps)
		}
		b.StopTimer()
		b.ReportMetric(float64(pairs), "copy-pairs")
	})
}
