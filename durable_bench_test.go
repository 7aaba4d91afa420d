package kbt

import (
	"fmt"
	"testing"
)

// BenchmarkDurableRefreshWarm is BenchmarkRefreshWarm with the WAL in front:
// the acceptance bar is that the durable wrapper costs ≤5% over the plain
// engine, since Refresh only appends a 1-byte marker (no fsync — it rides
// the next group commit) and Ingest's fsync sits outside the timed region
// exactly as the plain benchmark's ingest does inside it. NoSync keeps the
// comparison about the wrapper, not the device's fsync latency.
func BenchmarkDurableRefreshWarm(b *testing.B) {
	const corpusN = 10_000
	base := servingCorpus(0, corpusN)
	for _, ingestN := range []int{10, 100} {
		b.Run(fmt.Sprintf("corpus=%d/ingest=%d", corpusN, ingestN), func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), refreshBenchOptions(), DurableOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if err := d.Ingest(base...); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Refresh(); err != nil {
				b.Fatal(err)
			}
			next := corpusN
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := servingCorpus(next, ingestN)
				next += ingestN
				b.StartTimer()
				if err := d.Ingest(batch...); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint is the tentpole gate for incremental checkpoints: a
// 100k-record corpus with a small per-iteration delta, checkpointed either
// incrementally (delta append on the chain, live engine untouched) or in the
// cold pre-chain shape (CompactAfterBatches: 1 forces every checkpoint to
// compact — the full O(corpus) recompile every checkpoint used to pay). The
// acceptance bar is incremental ≥5x faster than cold.
func BenchmarkCheckpoint(b *testing.B) {
	const corpusN = 100_000
	const deltaN = 100
	base := servingCorpus(0, corpusN)
	for _, shape := range []struct {
		name         string
		compactAfter int
	}{
		{"incremental", -1},
		{"cold", 1},
	} {
		b.Run(fmt.Sprintf("corpus=%d/delta=%d/%s", corpusN, deltaN, shape.name), func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), refreshBenchOptions(),
				DurableOptions{NoSync: true, CompactAfterBatches: shape.compactAfter})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for at := 0; at < corpusN; at += 10_000 {
				if err := d.Ingest(base[at : at+10_000]...); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := d.Refresh(); err != nil {
				b.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			next := corpusN
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := servingCorpus(next, deltaN)
				next += deltaN
				if err := d.Ingest(batch...); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Refresh(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := d.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures OpenDurable in three shapes: checkpointed (chain
// replay, no tail) and WAL-only (full replay through the ingest/refresh
// paths) on a 100k corpus, plus a refresh-heavy log — many consecutive
// refresh markers per batch. The engine's no-op shortcut (nothing pending +
// converged serves the cached generation) is what bounds the refresh-heavy
// shape to the distinct-ingest-batch count; gating it keeps that shortcut
// from silently regressing into per-marker EM replay.
func BenchmarkRecovery(b *testing.B) {
	build := func(b *testing.B, corpusN, chunk, markers int, checkpoint bool) string {
		b.Helper()
		dir := b.TempDir()
		d, err := OpenDurable(dir, refreshBenchOptions(), DurableOptions{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		base := servingCorpus(0, corpusN)
		for at := 0; at < corpusN; at += chunk {
			if err := d.Ingest(base[at : at+chunk]...); err != nil {
				b.Fatal(err)
			}
			for m := 0; m < markers; m++ {
				if _, err := d.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := d.Refresh(); err != nil {
			b.Fatal(err)
		}
		if checkpoint {
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, shape := range []struct {
		name           string
		corpusN, chunk int
		markers        int
		checkpoint     bool
	}{
		{"corpus=100000/checkpointed", 100_000, 10_000, 0, true},
		{"corpus=100000/wal-only", 100_000, 10_000, 0, false},
		{"corpus=10000/markers=20", 10_000, 500, 20, false},
	} {
		b.Run(shape.name, func(b *testing.B) {
			dir := build(b, shape.corpusN, shape.chunk, shape.markers, shape.checkpoint)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := OpenDurable(dir, refreshBenchOptions(), DurableOptions{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := d.Current(); !ok {
					b.Fatal("recovery produced no generation")
				}
				b.StopTimer()
				d.Close()
				b.StartTimer()
			}
		})
	}
}
