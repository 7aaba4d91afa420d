package core

import "testing"

// BenchmarkPublish measures result publication alone — the step that turns
// the working posteriors into the immutable Result a refresh returns — at a
// ≈100k-record group-local corpus after a ≈100-record ingest:
//
//   - deep: the O(corpus) reference build (EM.BuildResult), which copies
//     every chunk regardless of what the refresh wrote.
//   - cow: the copy-on-write generation build (EM.BuildResultFrom), which
//     copies the chunks the warm pass marked — each iteration re-runs the
//     pass's E-step over the ingest's items, untimed, to set the marks — and
//     shares the rest with the previous iteration's generation.
//
// Both report the posterior chunks they copied. bench/ times whole refreshes,
// never the publication step alone, and has no deep build to compare against.
func BenchmarkPublish(b *testing.B) {
	f := newPublishFixture(b, 2050, 2)
	f.pass(f.newItems, f.newTris)
	// copied counts the posterior chunks of res not shared with prev.
	copied := func(prev, res *Result) (n int) {
		tri0, item0 := posteriorChunks(prev)
		tri, item := posteriorChunks(res)
		for _, sp := range [][2][][]any{{tri0, tri}, {item0, item}} {
			for ci, addrs := range sp[1] {
				if ci >= len(sp[0]) || sp[0][ci][0] != addrs[0] {
					n++
				}
			}
		}
		return n
	}

	b.Run("deep", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			res = f.deep()
		}
		b.ReportMetric(float64(copied(f.gen0, res)), "copied-chunks")
	})
	b.Run("cow", func(b *testing.B) {
		prev, res := f.gen0, f.gen0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f.em.EStepTriples(f.cProb, f.newTris, 0)
			f.em.EStepItems(f.cProb, f.valueProb, f.restMass, f.covered, f.newItems, 0)
			b.StartTimer()
			prev, res = res, f.publish(res)
		}
		b.ReportMetric(float64(copied(prev, res)), "copied-chunks")
	})
}
