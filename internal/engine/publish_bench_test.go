package engine

import (
	"testing"

	"kbt/internal/synthetic"
)

// BenchmarkPublish measures result publication alone — the step that turns
// the engine's working posteriors into the immutable Result a refresh
// returns — at a 100k-record corpus with a 100-record ingest's worth of
// dirty shards:
//
//   - deep: the O(corpus) flat build (EM.BuildResult), which deep-copies
//     every posterior array regardless of what the refresh touched.
//   - cow: the O(dirty) generation build (EM.BuildResultFrom), which copies
//     only the touched shards' chunks and shares the rest with the previous
//     generation.
//
// The cow/deep ns/op ratio is the headline: expect cow ≥5× faster than deep
// at this corpus/ingest shape. bench/ times whole refreshes, never the
// publication step alone, and has no deep build to compare against.
func BenchmarkPublish(b *testing.B) {
	const corpusGroups, ingestGroups = 2050, 2 // ≈100k records, ≈100-record ingest
	opt := DefaultOptions()
	opt.Shards = 256
	opt.Core.Tol = 1e-4
	opt.Core.MaxIter = 30
	opt.Core.MinSourceSupport = 1
	opt.Core.MinExtractorSupport = 1

	eng := New(opt)
	if err := eng.Ingest(synthetic.GroupLocalCorpus(0, corpusGroups)...); err != nil {
		b.Fatal(err)
	}
	base, err := eng.Refresh()
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Ingest(synthetic.GroupLocalCorpus(corpusGroups, ingestGroups)...); err != nil {
		b.Fatal(err)
	}
	res, err := eng.Refresh()
	if err != nil {
		b.Fatal(err)
	}
	if !res.Extended {
		b.Fatal("warm refresh did not take the Extend path")
	}
	prev := eng.Last()
	iters, conv := res.Inference.Iterations, res.Inference.Converged
	// The copy-on-write set of the warm refresh, read off its result: group
	// sites are local to their items, so the shards it re-estimated are the
	// shards the ingest's new items landed in (item lists are append-only,
	// so a shard's newest item is its last), and TouchedShards confirms it.
	touched := make([]bool, len(eng.shards))
	dirty := 0
	for si, sh := range eng.shards {
		if n := len(sh.Items); n > 0 && sh.Items[n-1] >= len(base.Snapshot.Items) {
			touched[si] = true
			dirty++
		}
	}
	if dirty != res.TouchedShards {
		b.Fatalf("ingest landed in %d shards, refresh touched %d", dirty, res.TouchedShards)
	}

	b.Run("deep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.em.BuildResult(eng.cProb, eng.valueProb, eng.restMass, eng.coveredItem, iters, conv)
		}
		b.ReportMetric(float64(len(eng.shards)), "copied-shards")
	})
	b.Run("cow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.em.BuildResultFrom(prev.Inference, eng.shards, touched,
				eng.cProb, eng.valueProb, eng.restMass, eng.coveredItem, iters, conv)
		}
		b.ReportMetric(float64(dirty), "copied-shards")
	})
}
