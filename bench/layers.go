package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"kbt"
	"kbt/internal/copydetect"
	"kbt/internal/core"
	"kbt/internal/engine"
	"kbt/internal/fusion"
	"kbt/internal/granularity"
	"kbt/internal/triple"
	"kbt/internal/wal"
)

// This file replays a workload's records directly through the public
// functions of the packages below the facade, one timed call at a time. The
// durable engine's filesystem cannot be injected (DurableOptions.fs is
// unexported), so nothing can be traced below it in place; the replay is the
// per-layer view until spans exist inside the program.

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// timeMS runs fn and returns how long it took.
func timeMS(fn func()) float64 {
	start := time.Now()
	fn()
	return msSince(start)
}

// coreOptions are the model options the facade derives from the serve flags
// (kbt/options.go keeps that mapping unexported).
func (w workload) coreOptions() core.Options {
	eo := w.engineOptions()
	co := core.DefaultOptions().WithSharedKnobs(eo.DomainSize, eo.Iterations, eo.MinSupport,
		eo.UseConfidence, eo.AllExtractorsVoteAbsence)
	co.Tol = eo.Tol
	return co
}

func (w workload) internalEngineOptions() engine.Options {
	eo := engine.DefaultOptions()
	eo.Shards = w.shards
	eo.Core = w.coreOptions()
	eo.CopyDetect, eo.CopyDiscount, eo.Fusion = w.layer6, w.layer6, w.layer6
	return eo
}

var websiteKeys = triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}

// replayTSV times the TSV codec on records: what `kbt estimate` and `kbt
// fuse` do before anything else.
func replayTSV(r *report, records []triple.Record) error {
	var buf bytes.Buffer
	if err := triple.WriteTSV(&buf, &triple.Dataset{Records: records}); err != nil {
		return err
	}
	size := float64(buf.Len())
	var err error
	ms := timeMS(func() { _, err = triple.ReadTSV(&buf) })
	r.set("triple.read_tsv_ms", ms)
	r.set("triple.read_tsv_mb_per_s", size/1e6/(ms/1e3))
	return err
}

// replayCoreIteration times one EM iteration stage by stage over the full
// index lists of snap, then a cold core.Run.
func replayCoreIteration(r *report, snap *triple.Snapshot, opt core.Options) error {
	em, err := core.NewEM(snap, opt)
	if err != nil {
		return err
	}
	nTri, nItem := len(snap.Triples), len(snap.Items)
	cProb := make([]float64, nTri)
	valueProb := make([][]float64, nItem)
	restMass := make([]float64, nItem)
	covered := make([]bool, nItem)
	em.Bootstrap(cProb)
	em.BeginIteration(true)
	r.set("core.estep_triples_ms", timeMS(func() { em.EStepTriples(cProb, nil, 0) }))
	r.set("core.estep_items_ms", timeMS(func() { em.EStepItems(cProb, valueProb, restMass, covered, nil, 0) }))
	r.set("core.mstep_sources_ms", timeMS(func() { em.MStepSources(cProb, valueProb, nil) }))
	r.set("core.mstep_extractors_ms", timeMS(func() { em.MStepExtractors(cProb, nil) }))
	r.set("core.update_prior_ms", timeMS(func() { em.UpdatePrior(valueProb, nil, 0) }))
	r.set("core.run_cold_ms", timeMS(func() { _, err = core.Run(snap, opt) }))
	return err
}

// replaySnapshots times the snapshot chain the engine builds: compile the
// base once, then per batch extend the snapshot, its shard views and the EM
// state.
func replaySnapshots(r *report, w workload, base []triple.Record, batches [][]triple.Record) error {
	var snap *triple.Snapshot
	r.set("triple.compile_ms", timeMS(func() { snap = (&triple.Dataset{Records: base}).Compile(websiteKeys) }))
	copt := w.coreOptions()
	if err := replayCoreIteration(r, snap, copt); err != nil {
		return err
	}
	em, err := core.NewEM(snap, copt)
	if err != nil {
		return err
	}
	shards := snap.Shards(w.shards)
	var extend, extendShards, newEM []float64
	for _, b := range batches {
		prevItems, prevTriples := len(snap.Items), len(snap.Triples)
		extend = append(extend, timeMS(func() { snap = snap.Extend(b) }))
		extendShards = append(extendShards, timeMS(func() { shards = snap.ExtendShards(shards, prevItems, prevTriples) }))
		newEM = append(newEM, timeMS(func() { em, err = core.NewEMFrom(em, snap, copt) }))
		if err != nil {
			return err
		}
	}
	r.set("triple.extend_ms_p50", median(extend))
	r.set("triple.extend_shards_ms_p50", median(extendShards))
	r.set("core.new_em_from_ms_p50", median(newEM))
	return nil
}

// evidenceOf reads copy-detection evidence from a published generation, the
// way the engine's refresh does from its working arrays.
func evidenceOf(res *engine.Result) copydetect.Evidence {
	snap, inf := res.Snapshot, res.Inference
	return copydetect.Evidence{
		ValueProb: func(d, v int) float64 {
			vs := snap.ItemValues[d]
			if k := sort.SearchInts(vs, v); k < len(vs) && vs[k] == v {
				return inf.ValueRow(d)[k]
			}
			return 0
		},
		Accuracy: inf.AAt,
		Provides: func(ti int) bool { return inf.CProbAt(ti) >= 0.5 },
	}
}

// replayEngine feeds internal/engine the sequence the server applies — one
// refresh per batch — and sums what each measured refresh reports. With
// Layer 6 on, every published generation is also handed to a copy tracker and
// a fusion store of the benchmark's own, to time their public calls alone.
func replayEngine(r *report, w workload, preload, batches [][]triple.Record) error {
	eopt := w.internalEngineOptions()

	var all []triple.Record
	for _, b := range preload {
		all = append(all, b...)
	}
	cold := engine.New(eopt)
	if err := cold.Ingest(all...); err != nil {
		return err
	}
	var err error
	r.set("engine.refresh_cold_ms", timeMS(func() { _, err = cold.Refresh() }))
	if err != nil {
		return err
	}

	eng := engine.New(eopt)
	var tracker *copydetect.Tracker
	var fus *fusion.Incremental
	if w.layer6 {
		if tracker, err = copydetect.NewTracker(copydetect.DefaultOptions(), w.shards); err != nil {
			return err
		}
		if fus, err = fusion.NewIncremental(fusion.DefaultOptions(), triple.CompileOptions{}); err != nil {
			return err
		}
	}
	// The engine's own touched-shard mask is not published; every shard is
	// the superset that is always correct, and on the tiered corpus (sources
	// that reach everywhere) it is also what the engine touches.
	allShards := make([]int, w.shards)
	for i := range allShards {
		allShards[i] = i
	}
	var refresh, trackerMS, fusionMS []float64
	counts := make(map[string]float64)
	var records []triple.Record
	step := func(b []triple.Record, measured bool) error {
		if err := eng.Ingest(b...); err != nil {
			return err
		}
		var res *engine.Result
		ms := timeMS(func() { res, err = eng.Refresh() })
		if err != nil {
			return err
		}
		records = append(records, b...)
		var tms, fms float64
		if w.layer6 {
			ev := evidenceOf(res)
			shards := res.Snapshot.Shards(w.shards)
			tms = timeMS(func() {
				tracker.Update(res.Snapshot, ev, shards, allShards)
				tracker.Dependencies(ev.Accuracy)
			})
			fms = timeMS(func() { _, err = fus.Refresh(records, b) })
			if err != nil {
				return err
			}
		}
		if !measured {
			return nil
		}
		refresh = append(refresh, ms)
		trackerMS, fusionMS = append(trackerMS, tms), append(fusionMS, fms)
		counts["engine.first_pass_shards"] += float64(res.FirstPassShards)
		counts["engine.settled_shards"] += float64(res.SettledShards)
		counts["engine.partial_shards"] += float64(res.PartialShards)
		counts["engine.escalations"] += float64(res.Escalations)
		counts["engine.iterations"] += float64(res.Inference.Iterations)
		counts["engine.agg_delta_steps"] += float64(res.AggDeltaSteps)
		counts["engine.agg_full_steps"] += float64(res.AggFullSteps)
		counts["copydetect.pairs"] += float64(res.CopyPairs)
		counts["fusion.fused_items"] += float64(res.FusedItems)
		return nil
	}
	for _, b := range preload {
		if err := step(b, false); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range batches {
		if err := step(b, true); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(batches))
	r.set("engine.refresh_ms_p50", median(refresh))
	r.set("engine.refresh_ms_p95", percentile(refresh, 95))
	r.set("engine.alloc_kb_per_refresh", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n)
	r.set("engine.allocs_per_refresh", float64(m1.Mallocs-m0.Mallocs)/n)
	for name, v := range counts {
		r.set(name, v)
	}
	if !w.layer6 {
		return nil
	}
	r.set("copydetect.update_ms_p50", median(trackerMS))
	r.set("fusion.update_ms_p50", median(fusionMS))
	last := eng.Last()
	r.set("copydetect.detect_batch_ms", timeMS(func() {
		_, err = copydetect.Detect(last.Snapshot, evidenceOf(last), copydetect.DefaultOptions())
	}))
	if err != nil {
		return err
	}
	r.set("fusion.run_batch_ms", timeMS(func() { _, err = fusion.Run(fus.Snapshot(), fusion.DefaultOptions()) }))
	return err
}

// replayWAL appends and fsyncs every batch the way DurableEngine.IngestKeyed
// does, writes a checkpoint delta every checkpointEvery batches, then reopens
// the log and replays it.
func replayWAL(r *report, dir string, keys []string, batches [][]triple.Record) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	logDir, ckDir := filepath.Join(dir, "log"), filepath.Join(dir, "chain")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(logDir, wal.Options{})
	if err != nil {
		return err
	}
	defer func() { log.Close() }()
	const fingerprint = "bench"
	var appendUS, deltaMS []float64
	var ops []wal.CheckpointOp
	var watermark uint64
	records, hasBase := 0, false
	for i, b := range batches {
		start := time.Now()
		if _, err := log.Append(wal.EncodeKeyedBatch(keys[i], b)); err != nil {
			return err
		}
		if err := log.Sync(); err != nil {
			return err
		}
		appendUS = append(appendUS, float64(time.Since(start))/1e3)
		records += len(b)
		ops = append(ops, wal.CheckpointOp{Records: b, Refreshes: 1, Key: keys[i]})
		if (i+1)%checkpointEvery != 0 {
			continue
		}
		ck := &wal.Checkpoint{Watermark: log.NextSeq(), Fingerprint: fingerprint, Ops: ops}
		if !hasBase {
			err = wal.WriteCheckpointBase(wal.OSFS{}, ckDir, ck)
			hasBase = true
		} else {
			deltaMS = append(deltaMS, timeMS(func() { err = wal.WriteCheckpointDelta(wal.OSFS{}, ckDir, watermark, ck) }))
		}
		if err != nil {
			return err
		}
		watermark, ops = ck.Watermark, nil
	}
	logBytes, err := dirBytes(logDir)
	if err != nil {
		return err
	}
	r.set("wal.append_sync_us_p50", median(appendUS))
	r.set("wal.bytes_per_record", float64(logBytes)/float64(records))
	r.set("wal.syncs", float64(len(batches)))
	r.set("wal.checkpoint_delta_write_ms_p50", median(deltaMS))
	if err := log.Close(); err != nil {
		return err
	}
	start := time.Now()
	if log, err = wal.Open(logDir, wal.Options{}); err != nil {
		return err
	}
	err = log.Replay(0, func(_ uint64, payload []byte) error {
		_, err := wal.DecodeEntry(payload)
		return err
	})
	r.set("wal.replay_ms", msSince(start))
	return err
}

// replayGranularity times split-and-merge over records at the facade's
// default unit sizes and returns the labels it assigns.
func replayGranularity(r *report, records []triple.Record) (src, ext []string, err error) {
	opt := kbt.DefaultOptions()
	r.set("granularity.split_merge_ms", timeMS(func() {
		if src, _, err = granularity.Sources(records, opt.MinSourceSize, opt.MaxSourceSize, opt.Seed); err != nil {
			return
		}
		ext, _, err = granularity.Extractors(records, opt.MinSourceSize, opt.MaxSourceSize, opt.Seed)
	}))
	return src, ext, err
}
