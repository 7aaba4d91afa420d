package kbt

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kbt/internal/triple"
	"kbt/internal/wal"
)

func durableTestOptions() EngineOptions {
	opt := DefaultEngineOptions()
	opt.Shards = 4
	opt.DomainSize = 5
	opt.Iterations = 3
	opt.MinSupport = 1
	opt.MinReportableTriples = 0
	opt.Tol = 1e-7
	return opt
}

// durableExtraction generates a small deterministic stream with contested
// triples: several websites and extractors voting, sometimes disagreeing, so
// the model state is non-trivial at every refresh.
func durableExtraction(i int) Extraction {
	obj := fmt.Sprintf("o%d", i%3)
	if i%7 == 0 {
		obj = "oX" // a minority of dissenting claims
	}
	return Extraction{
		Extractor:  fmt.Sprintf("E%d", i%3),
		Pattern:    "pat",
		Website:    fmt.Sprintf("w%d.com", i%4),
		Page:       fmt.Sprintf("w%d.com/p%d", i%4, i%2),
		Subject:    fmt.Sprintf("s%d", i%5),
		Predicate:  "born",
		Object:     obj,
		Confidence: 0.4 + 0.1*float64(i%6),
	}
}

// durableOp is one step of the scripted durable workload.
type durableOp struct {
	kind  string // "ingest", "refresh", "checkpoint"
	batch []Extraction
}

// durableScript is the fixed workload the crash sweep and the equality tests
// share: ingests and refreshes around two checkpoints, so the sweep crashes
// inside appends, syncs, every stage of the base and delta checkpoint
// publications, a checkpoint taken with records still pending (the
// checkpoint-during-ingest interleaving: the flush refresh, its marker, and
// the delta write all get killed at every byte), and the post-checkpoint
// unrefreshed tail.
func durableScript() []durableOp {
	batch := func(first, n int) durableOp {
		b := make([]Extraction, n)
		for i := range b {
			b[i] = durableExtraction(first + i)
		}
		return durableOp{kind: "ingest", batch: b}
	}
	return []durableOp{
		batch(0, 6),
		{kind: "refresh"},
		batch(6, 6),
		batch(12, 6),
		{kind: "refresh"},
		{kind: "checkpoint"}, // first checkpoint: writes the chain base
		batch(18, 6),
		{kind: "checkpoint"}, // pending records in flight: flush + delta append
		batch(24, 6),
		{kind: "refresh"},
	}
}

func scriptRecords(script []durableOp) []triple.Record {
	var recs []triple.Record
	for _, op := range script {
		for _, x := range op.batch {
			recs = append(recs, x.record())
		}
	}
	return recs
}

// runScript applies the script until an op fails, returning the number of
// records whose ingest was acknowledged (returned nil).
func runScript(d *DurableEngine, script []durableOp) (ackedRecords int, err error) {
	for _, op := range script {
		switch op.kind {
		case "ingest":
			if err := d.Ingest(op.batch...); err != nil {
				return ackedRecords, err
			}
			ackedRecords += len(op.batch)
		case "refresh":
			if _, err := d.Refresh(); err != nil {
				return ackedRecords, err
			}
		case "checkpoint":
			if err := d.Checkpoint(); err != nil {
				return ackedRecords, err
			}
		}
	}
	return ackedRecords, nil
}

// durableBoundary reads what a crashed directory durably holds — checkpoint
// plus decoded log tail — independently of OpenDurable's recovery, so the
// sweep can cross-check recovery against the raw bytes.
type durableBoundary struct {
	ck      *wal.Checkpoint
	entries []wal.Entry
}

func readBoundary(t *testing.T, dir string) durableBoundary {
	t.Helper()
	var b durableBoundary
	ck, ok, err := wal.ReadCheckpoint(nil, dir)
	if err != nil {
		t.Fatalf("boundary checkpoint: %v", err)
	}
	if ok {
		b.ck = ck
	} else {
		b.ck = &wal.Checkpoint{}
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("boundary log open: %v", err)
	}
	defer l.Close()
	if err := l.Replay(b.ck.Watermark, func(seq uint64, payload []byte) error {
		ent, err := wal.DecodeEntry(payload)
		if err != nil {
			return err
		}
		b.entries = append(b.entries, ent)
		return nil
	}); err != nil {
		t.Fatalf("boundary replay: %v", err)
	}
	return b
}

// durableRecords flattens the boundary's record stream: the checkpoint
// chain's prefix followed by every tail batch. Keyed batches dedup exactly as
// recovery does — a key the chain or an earlier entry already carries marks a
// client resend, which replay must not apply twice.
func (b durableBoundary) records() []triple.Record {
	recs := append([]triple.Record(nil), b.ck.AllRecords()...)
	seen := make(map[string]bool)
	for i := range b.ck.Ops {
		if k := b.ck.Ops[i].Key; k != "" {
			seen[k] = true
		}
	}
	for _, ent := range b.entries {
		switch ent.Kind {
		case wal.EntryBatch, wal.EntryKeyedBatch:
			if ent.Key != "" {
				if seen[ent.Key] {
					continue
				}
				seen[ent.Key] = true
			}
			recs = append(recs, ent.Records...)
		}
	}
	return recs
}

// oracleFromBoundary builds the reference state with a plain in-memory
// Engine: the checkpoint chain's op sequence replayed faithfully — every
// recorded refresh run — then the tail entries in order. This mirrors what
// recovery promises to compute, using none of the durable plumbing.
func oracleFromBoundary(t *testing.T, b durableBoundary, opt EngineOptions) *Engine {
	t.Helper()
	eng, err := NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := range b.ck.Ops {
		op := &b.ck.Ops[i]
		if len(op.Records) > 0 {
			if err := eng.eng.Ingest(op.Records...); err != nil {
				t.Fatalf("oracle chain ingest (op %d): %v", i, err)
			}
		}
		if op.Key != "" {
			seen[op.Key] = true
		}
		for r := 0; r < op.Refreshes; r++ {
			if eng.Len() == 0 {
				continue
			}
			if _, err := eng.Refresh(); err != nil {
				t.Fatalf("oracle chain refresh (op %d): %v", i, err)
			}
		}
	}
	for _, ent := range b.entries {
		switch ent.Kind {
		case wal.EntryBatch, wal.EntryKeyedBatch:
			// Same dedup and rejection semantics as recovery: an already-seen
			// key is a resend (skipped), a batch the engine rejects
			// contributes no state and leaves its key unrecorded.
			if ent.Key != "" && seen[ent.Key] {
				continue
			}
			if err := eng.eng.Ingest(ent.Records...); err != nil {
				continue
			}
			if ent.Key != "" {
				seen[ent.Key] = true
			}
		case wal.EntryRefresh:
			if eng.Len() == 0 {
				continue
			}
			if _, err := eng.Refresh(); err != nil {
				t.Fatalf("oracle tail refresh: %v", err)
			}
		}
	}
	return eng
}

// assertResultsIdentical compares two result views bit for bit — the
// recovery contract is exact reproduction, not tolerance-equality.
func assertResultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.TopSources(0), b.TopSources(0)) {
		t.Fatalf("%s: source views differ", label)
	}
	if !reflect.DeepEqual(a.TopTriples(0), b.TopTriples(0)) {
		t.Fatalf("%s: triple views differ", label)
	}
}

func isPrefix(short, long []triple.Record) bool {
	if len(short) > len(long) {
		return false
	}
	for i := range short {
		if short[i] != long[i] {
			return false
		}
	}
	return true
}

// TestDurableCrashSweep is the kill-at-every-byte property test: the
// scripted workload runs against a filesystem that dies after an
// ever-growing mutation budget — inside WAL appends at every byte offset,
// inside fsyncs, and inside every stage of the checkpoint publication. After
// each injected crash the directory is recovered with the real filesystem
// and checked against the raw durable boundary:
//
//   - recovery never fails on a crash-shaped directory;
//   - every acknowledged batch survives;
//   - the durable record stream is an exact prefix of the script's;
//   - the recovered result is bit-identical to a plain Engine applying the
//     durable operations — the "uninterrupted process" oracle.
func TestDurableCrashSweep(t *testing.T) {
	opt := durableTestOptions()
	script := durableScript()
	allRecs := scriptRecords(script)
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	completed := false
	budgets := 0
	for budget := int64(0); budget < 1<<20 && !completed; budget += stride {
		budgets++
		dir := t.TempDir()
		var acked int
		cfs := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpCrash, After: int(budget)})
		d, err := OpenDurable(dir, opt, DurableOptions{segmentBytes: 512, fs: cfs})
		if err == nil {
			var serr error
			acked, serr = runScript(d, script)
			completed = serr == nil
			d.Close()
		}

		rec, err := OpenDurable(dir, opt, DurableOptions{segmentBytes: 512})
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		boundary := readBoundary(t, dir)
		durableRecs := boundary.records()
		if !isPrefix(boundary.ck.AllRecords(), allRecs) {
			t.Fatalf("budget %d: checkpoint records are not a script prefix", budget)
		}
		if !isPrefix(durableRecs, allRecs) {
			t.Fatalf("budget %d: durable records are not a script prefix", budget)
		}
		if len(durableRecs) < acked {
			t.Fatalf("budget %d: %d records acked but only %d durable", budget, acked, len(durableRecs))
		}
		if rec.Len() != len(durableRecs) {
			t.Fatalf("budget %d: recovered engine holds %d records, boundary %d", budget, rec.Len(), len(durableRecs))
		}

		oracle := oracleFromBoundary(t, boundary, opt)
		or, ook := oracle.Current()
		rr, rok := rec.Current()
		if ook != rok {
			t.Fatalf("budget %d: oracle refreshed=%v, recovered refreshed=%v", budget, ook, rok)
		}
		if ook {
			assertResultsIdentical(t, fmt.Sprintf("budget %d", budget), rr, or)
		}

		// Post-recovery lockstep: the recovered engine is not just a frozen
		// replica — it continues warm exactly like the oracle.
		post := []Extraction{durableExtraction(100), durableExtraction(101), durableExtraction(102)}
		if err := rec.Ingest(post...); err != nil {
			t.Fatalf("budget %d: post-recovery ingest: %v", budget, err)
		}
		postRecs := make([]triple.Record, len(post))
		for i, x := range post {
			postRecs[i] = x.record()
		}
		if err := oracle.eng.Ingest(postRecs...); err != nil {
			t.Fatal(err)
		}
		rr2, err := rec.Refresh()
		if err != nil {
			t.Fatalf("budget %d: post-recovery refresh: %v", budget, err)
		}
		or2, err := oracle.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, fmt.Sprintf("budget %d post-recovery", budget), rr2, or2)
		rec.Close()
	}
	if !completed {
		t.Fatal("sweep never reached a budget that completes the workload")
	}
	if budgets < 100 {
		t.Fatalf("sweep covered only %d budgets — workload too small to mean anything", budgets)
	}
}

// TestDurableRecoveredEqualsLive reruns the script uninterrupted, closes,
// reopens, and demands the recovered generation be bit-identical to the one
// the live process served — with and without a checkpoint in the script.
func TestDurableRecoveredEqualsLive(t *testing.T) {
	opt := durableTestOptions()
	scripts := map[string][]durableOp{
		"with-checkpoint": durableScript(),
		"wal-only": {
			{kind: "ingest", batch: []Extraction{durableExtraction(0), durableExtraction(1), durableExtraction(2)}},
			{kind: "refresh"},
			{kind: "ingest", batch: []Extraction{durableExtraction(3), durableExtraction(4)}},
			{kind: "refresh"},
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurable(dir, opt, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runScript(d, script); err != nil {
				t.Fatal(err)
			}
			live, ok := d.Current()
			if !ok {
				t.Fatal("no live generation")
			}
			liveLen, livePending := d.Len(), d.Pending()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := OpenDurable(dir, opt, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rec.Len() != liveLen || rec.Pending() != livePending {
				t.Fatalf("recovered %d/%d records pending, live had %d/%d",
					rec.Len(), rec.Pending(), liveLen, livePending)
			}
			got, ok := rec.Current()
			if !ok {
				t.Fatal("no recovered generation")
			}
			assertResultsIdentical(t, name, got, live)
		})
	}
}

// TestDurableCheckpointEvery exercises the auto-checkpoint cadence: the log
// must shrink at each checkpoint and recovery must keep matching the live
// result.
func TestDurableCheckpointEvery(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{CheckpointEvery: 2, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for round := 0; round < 5; round++ {
		batch := make([]Extraction, 5)
		for i := range batch {
			batch[i] = durableExtraction(next)
			next++
		}
		if err := d.Ingest(batch...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	ck, ok, err := wal.ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after cadence: ok=%v err=%v", ok, err)
	}
	if len(ck.AllRecords()) < 15 {
		t.Fatalf("checkpoint covers only %d records", len(ck.AllRecords()))
	}
	live, _ := d.Current()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got, ok := rec.Current()
	if !ok {
		t.Fatal("no recovered generation")
	}
	assertResultsIdentical(t, "cadence", got, live)
}

// TestDurableRejectedBatch: a batch the engine rejects is logged but
// contributes no state — and deterministically contributes none on replay.
func TestDurableRejectedBatch(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(durableExtraction(0), durableExtraction(1)); err != nil {
		t.Fatal(err)
	}
	bad := durableExtraction(2)
	bad.Subject = ""
	if err := d.Ingest(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if _, err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	live, _ := d.Current()
	if d.Len() != 2 {
		t.Fatalf("live engine holds %d records, want 2", d.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 2 {
		t.Fatalf("recovered engine holds %d records, want 2", rec.Len())
	}
	got, ok := rec.Current()
	if !ok {
		t.Fatal("no recovered generation")
	}
	assertResultsIdentical(t, "rejected-batch", got, live)
}

// TestDurableOversizedBatchRefusedWhole: a batch whose log entry would exceed
// the WAL's record limit is the request's fault, not the disk's. It is refused
// whole with an error that is not ErrReadOnly, nothing is logged, health stays
// healthy, the next small batch is acked, and a reopen holds only that batch.
func TestDurableOversizedBatchRefusedWhole(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	big := durableBatch(0, 6)
	for i := range big {
		big[i].Object = strings.Repeat("x", 3<<20)
	}
	err = d.Ingest(big...)
	if err == nil || errors.Is(err, ErrReadOnly) {
		t.Fatalf("oversized batch: err = %v, want a refusal that is not ErrReadOnly", err)
	}
	if h := d.Health(); h.State != StateHealthy || h.Faults != 0 {
		t.Fatalf("after the refusal: health %v with %d faults, want healthy with none", h.State, h.Faults)
	}
	small := durableBatch(10, 2)
	if err := d.Ingest(small...); err != nil {
		t.Fatalf("small batch after the refusal: %v", err)
	}
	if d.Len() != len(small) {
		t.Fatalf("live engine holds %d records, want %d", d.Len(), len(small))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readBoundary(t, dir).records(); !reflect.DeepEqual(got, records(small)) {
		t.Fatalf("the log holds %d records, want exactly the small batch's %d", len(got), len(small))
	}
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != len(small) {
		t.Fatalf("reopened engine holds %d records, want %d", rec.Len(), len(small))
	}
}

// TestDurableFingerprintMismatch: a checkpoint taken under different model
// options must refuse to load rather than silently misestimate.
func TestDurableFingerprintMismatch(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runScript(d, durableScript()); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	other := opt
	other.Iterations++
	if _, err := OpenDurable(dir, other, DurableOptions{}); err == nil {
		t.Fatal("fingerprint mismatch not detected")
	}
	// The original options still load fine.
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
}

// TestDurableReopensUnderAnotherShardCount: the shard count only counts
// refresh statistics, so it is not part of the fingerprint — a directory
// written under one Shards reopens under another and serves the generation
// it closed on.
func TestDurableReopensUnderAnotherShardCount(t *testing.T) {
	opt := durableTestOptions()
	opt.Shards = 8
	opt.CopyDetect = true
	opt.Fusion = true
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runScript(d, durableScript()); err != nil {
		t.Fatal(err)
	}
	want, ok := d.Current()
	if !ok {
		t.Fatal("no generation before close")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	opt.Shards = 64
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen under another shard count: %v", err)
	}
	defer rec.Close()
	got, ok := rec.Current()
	if !ok {
		t.Fatal("no generation after reopen")
	}
	assertResultsIdentical(t, "shards 8 -> 64", want, got)
}

// TestDurableRefusesOtherFormatVersion: the on-disk version policy. A chain
// whose fingerprint carries an older layout tag is refused with an error that
// names both the version found and the one this binary reads.
func TestDurableRefusesOtherFormatVersion(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	v2 := "v2" + strings.TrimPrefix(engineFingerprint(opt), fingerprintVersion)
	if err := wal.WriteCheckpointBase(nil, dir, &wal.Checkpoint{Fingerprint: v2}); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDurable(dir, opt, DurableOptions{})
	if err == nil {
		t.Fatal("a v2 data directory was opened")
	}
	for _, want := range []string{`"v2"`, `"` + fingerprintVersion + `"`, "version"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestDurableRecoveryReproducesStats: a log carrying redundant refresh
// markers (refreshes with nothing pending on a converged estimate) replays
// every one of them, so the recovered engine reports the same last-refresh
// stats as the process that wrote the log — including the final marker's
// NoOp and zero iterations.
func TestDurableRecoveryReproducesStats(t *testing.T) {
	opt := durableTestOptions()
	opt.Iterations = 50
	opt.Tol = 1e-4
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Extraction, 40)
	for i := range batch {
		batch[i] = durableExtraction(i)
	}
	if err := d.Ingest(batch...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	live, _ := d.Stats()
	if !live.NoOp {
		t.Fatalf("the redundant refreshes were not NoOps: %+v", live)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got, _ := rec.Stats(); got != live {
		t.Fatalf("recovered stats %+v, live process had %+v", got, live)
	}
}

// TestDurableCheckpointDuringIngest races a checkpoint loop against an
// ingest/refresh stream under crash injection: whatever interleaving the
// crash lands in, recovery must hold every acknowledged batch — a
// checkpoint concurrent with in-flight acked batches never loses an ack.
func TestDurableCheckpointDuringIngest(t *testing.T) {
	opt := durableTestOptions()
	unique := func(i int) Extraction {
		x := durableExtraction(i)
		x.Subject = fmt.Sprintf("u%d", i) // globally unique → set membership below
		return x
	}
	stride := int64(3)
	if testing.Short() {
		stride = 23
	}
	completed := false
	for budget := int64(0); budget < 1<<20 && !completed; budget += stride {
		dir := t.TempDir()
		cfs := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpCrash, After: int(budget)})
		var (
			mu    sync.Mutex
			acked []triple.Record
		)
		d, err := OpenDurable(dir, opt, DurableOptions{segmentBytes: 512, fs: cfs})
		if err == nil {
			var wg sync.WaitGroup
			ingestDone, ckptDone := false, false
			wg.Add(2)
			go func() {
				defer wg.Done()
				id := 0
				for i := 0; i < 8; i++ {
					b := []Extraction{unique(id), unique(id + 1)}
					id += 2
					if err := d.Ingest(b...); err != nil {
						return
					}
					mu.Lock()
					for _, x := range b {
						acked = append(acked, x.record())
					}
					mu.Unlock()
					if i%3 == 2 {
						if _, err := d.Refresh(); err != nil {
							return
						}
					}
				}
				ingestDone = true
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					if err := d.Checkpoint(); err != nil {
						return
					}
				}
				ckptDone = true
			}()
			wg.Wait()
			d.Close()
			completed = ingestDone && ckptDone
		}

		rec, err := OpenDurable(dir, opt, DurableOptions{segmentBytes: 512})
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		boundary := readBoundary(t, dir)
		have := make(map[triple.Record]bool, rec.Len())
		for _, r := range boundary.records() {
			have[r] = true
		}
		mu.Lock()
		for _, r := range acked {
			if !have[r] {
				t.Fatalf("budget %d: acked record %v lost by checkpoint-during-ingest crash", budget, r)
			}
		}
		mu.Unlock()
		// And the recovered engine itself serves those records, not just the
		// raw boundary: a full oracle comparison like the scripted sweep's.
		oracle := oracleFromBoundary(t, boundary, opt)
		or, ook := oracle.Current()
		rr, rok := rec.Current()
		if ook != rok {
			t.Fatalf("budget %d: oracle refreshed=%v, recovered refreshed=%v", budget, ook, rok)
		}
		if ook {
			assertResultsIdentical(t, fmt.Sprintf("budget %d concurrent", budget), rr, or)
		}
		rec.Close()
	}
	if !completed {
		t.Fatal("sweep never reached a budget that completes the concurrent workload")
	}
}

// TestDurableCheckpointBytes: the size cadence takes checkpoints on its own —
// including after pure ingests, where the checkpoint flushes the pending
// records through an implicit refresh — and recovery still matches.
func TestDurableCheckpointBytes(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{CheckpointBytes: 1, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for round := 0; round < 4; round++ {
		batch := make([]Extraction, 5)
		for i := range batch {
			batch[i] = durableExtraction(next)
			next++
		}
		// No explicit Refresh: the size cadence must both checkpoint and
		// refresh the pending records in.
		if err := d.Ingest(batch...); err != nil {
			t.Fatal(err)
		}
		if p := d.Pending(); p != 0 {
			t.Fatalf("round %d: %d records still pending after size-triggered checkpoint", round, p)
		}
	}
	ck, ok, err := wal.ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after size cadence: ok=%v err=%v", ok, err)
	}
	if got := len(ck.AllRecords()); got != next {
		t.Fatalf("chain covers %d records, want %d", got, next)
	}
	live, _ := d.Current()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got, ok := rec.Current()
	if !ok {
		t.Fatal("no recovered generation")
	}
	assertResultsIdentical(t, "size-cadence", got, live)
}

// TestDurableWALBytesOwed: Health's WALBytes is the bytes of the log entries a
// restart still owes on top of the checkpoint chain. Under a small segment
// size every Ingest grows it by exactly its entry, across segment rolls; a
// Checkpoint zeroes it; and after Close and OpenDurable it reads what it read
// at Close, those same owed bytes.
func TestDurableWALBytesOwed(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	dopt := DurableOptions{segmentBytes: 256}
	d, err := OpenDurable(dir, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	var owed int64
	ingest := func(b int) {
		t.Helper()
		key, batch := fmt.Sprintf("k%d", b), durableBatch(5*b, 5)
		if err := d.IngestKeyed(key, batch...); err != nil {
			t.Fatal(err)
		}
		owed += int64(len(wal.EncodeKeyedBatch(key, records(batch))))
		if got := d.Health().WALBytes; got != owed {
			t.Fatalf("batch %d: WALBytes = %d, want the %d bytes of the entries logged", b, got, owed)
		}
	}
	for b := 0; b < 4; b++ {
		ingest(b)
	}
	if n := d.log.Segments(); n < 2 {
		t.Fatalf("%d log segments, want the ingests to roll at least once", n)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.Health().WALBytes; got != 0 {
		t.Fatalf("WALBytes = %d right after a checkpoint, want 0", got)
	}
	owed = 0
	for b := 4; b < 7; b++ {
		ingest(b)
	}
	atClose := d.Health().WALBytes
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDurable(dir, opt, dopt); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Health().WALBytes; got != atClose || got != owed {
		t.Fatalf("WALBytes = %d after a restart; %d at Close, %d owed", got, atClose, owed)
	}
}

// TestDurableCheckpointBytesCadence: CheckpointBytes counts the bytes of the
// log entries written since the last checkpoint, not the active segment's
// size. Below the segment size, a size-triggered checkpoint is followed by the
// next only once CheckpointBytes more have been logged; above it, the cadence
// still fires across segment rolls, and nothing is pending after it. Halfway
// through, the engine is closed and reopened: the count resumes from the log
// tail recovery replays.
func TestDurableCheckpointBytesCadence(t *testing.T) {
	for _, tc := range []struct {
		name               string
		threshold, segment int64
		batches            int
	}{
		{"threshold below the segment", 2048, 1 << 20, 30},
		{"threshold above the segment", 8192, 2048, 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := durableTestOptions()
			dir := t.TempDir()
			dopt := DurableOptions{CheckpointBytes: tc.threshold, segmentBytes: tc.segment}
			d, err := OpenDurable(dir, opt, dopt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()
			var logged int64 // the bytes of the batch entries past the last checkpoint
			checkpoints := 0
			for b := 0; b < tc.batches; b++ {
				if b == tc.batches/2 {
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					if d, err = OpenDurable(dir, opt, dopt); err != nil {
						t.Fatal(err)
					}
				}
				batch := durableBatch(5*b, 5)
				before := d.Health().CheckpointWatermark
				if err := d.Ingest(batch...); err != nil {
					t.Fatal(err)
				}
				logged += int64(len(wal.EncodeKeyedBatch("", records(batch))))
				fired := d.Health().CheckpointWatermark != before
				if want := logged >= tc.threshold; fired != want {
					t.Fatalf("batch %d: checkpoint taken = %v with %d bytes logged since the last, want %v",
						b, fired, logged, want)
				}
				if fired {
					checkpoints++
					logged = 0
					if p := d.Pending(); p != 0 {
						t.Fatalf("batch %d: %d records pending after a size-triggered checkpoint", b, p)
					}
				}
			}
			if checkpoints < 2 || checkpoints > tc.batches/4 {
				t.Fatalf("%d checkpoints over %d batches, want between 2 and %d", checkpoints, tc.batches, tc.batches/4)
			}
		})
	}
}

// TestDurableCompaction: the chain grows by deltas until compactAfterBatches,
// then collapses to a single cold-anchor base with no delta files left, and
// recovery keeps matching the live engine across the compaction boundary.
func TestDurableCompaction(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{compactAfterBatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	step := func() {
		t.Helper()
		batch := make([]Extraction, 4)
		for i := range batch {
			batch[i] = durableExtraction(next)
			next++
		}
		if err := d.Ingest(batch...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	countDeltas := func() int {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			name := e.Name()
			if len(name) > 6 && name[len(name)-6:] == ".delta" {
				n++
			}
		}
		return n
	}
	step() // base: 1 batch op
	if n := countDeltas(); n != 0 {
		t.Fatalf("first checkpoint left %d deltas, want 0", n)
	}
	step() // delta: 2 batch ops on the chain
	if n := countDeltas(); n != 1 {
		t.Fatalf("second checkpoint left %d deltas, want 1", n)
	}
	step() // 3 >= compactAfterBatches: compaction
	if n := countDeltas(); n != 0 {
		t.Fatalf("compaction left %d deltas, want 0", n)
	}
	ck, ok, err := wal.ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after compaction: ok=%v err=%v", ok, err)
	}
	if len(ck.Ops) != 1 || len(ck.Ops[0].Records) != next || ck.Ops[0].Refreshes != 1 {
		t.Fatalf("compacted chain is not a single cold-anchor op: %d ops", len(ck.Ops))
	}
	live, _ := d.Current()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got, ok := rec.Current()
	if !ok {
		t.Fatal("no recovered generation")
	}
	assertResultsIdentical(t, "compaction", got, live)
}

// TestDurableCompactsWithoutCadence: with neither CheckpointEvery nor
// CheckpointBytes set, the compaction cadence still checkpoints once
// compactAfterBatches batches have been applied since the last checkpoint,
// and that checkpoint compacts: after ten keyed ingest+refresh cycles at 4,
// the chain is one record op holding the first eight batches, two batches
// wait in the log, and a reopened engine serves the live generation.
func TestDurableCompactsWithoutCadence(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	dopt := DurableOptions{compactAfterBatches: 4}
	d, err := OpenDurable(dir, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	const cycles, size = 10, 3
	for b := 0; b < cycles; b++ {
		if err := d.IngestKeyed(fmt.Sprintf("k%d", b), durableBatch(b*size, size)...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	ck, ok, err := wal.ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint chain after %d batches: ok=%v err=%v", cycles, ok, err)
	}
	if ck.Batches() != 1 || len(ck.Ops[0].Records) != 8*size {
		t.Fatalf("chain: %d batch ops, %d records in the first, want one op of %d", ck.Batches(), len(ck.Ops[0].Records), 8*size)
	}
	if d.newBatches != cycles-8 {
		t.Fatalf("%d batches since the last checkpoint, want %d", d.newBatches, cycles-8)
	}
	live, _ := d.Current()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got, ok := rec.Current()
	if !ok {
		t.Fatal("no recovered generation")
	}
	assertResultsIdentical(t, "reopened", got, live)
}

// TestDurableClosed: mutators fail cleanly after Close, reads keep serving.
func TestDurableClosed(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, durableTestOptions(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(durableExtraction(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(durableExtraction(1)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Ingest after Close: %v", err)
	}
	if _, err := d.Refresh(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Refresh after Close: %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	if _, ok := d.Current(); !ok {
		t.Fatal("Current stopped serving after Close")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// durableBatch builds a batch of n sequential scripted extractions.
func durableBatch(first, n int) []Extraction {
	b := make([]Extraction, n)
	for i := range b {
		b[i] = durableExtraction(first + i)
	}
	return b
}

// TestDurableHealthDegradeAndHeal walks the health machine end to end with a
// fake clock: a transient fsync fault degrades the engine to read-only, reads
// keep serving the last generation, mutators fail fast (without touching the
// disk) until the backoff elapses, and the first successful probe round-trip
// heals it — after which the client's keyed retry applies exactly once.
func TestDurableHealthDegradeAndHeal(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	// Sync 0 is segment creation; sync 1 acks the first batch; sync 2 — the
	// one covering the second batch — fails once.
	ffs := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpSync, After: 2, Err: wal.ErrInjectedIO, Times: 1})
	var transitions []string
	d, err := OpenDurable(dir, opt, DurableOptions{
		fs:              ffs,
		now:             clock,
		probeBackoff:    time.Second,
		probeMaxBackoff: 8 * time.Second,
		OnHealthChange: func(from, to HealthState, cause error) {
			transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Ingest(durableBatch(0, 3)...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	gen, ok := d.Current()
	if !ok {
		t.Fatal("no generation before the fault")
	}

	// The faulted ingest: typed error, degraded state, a populated report.
	retry := durableBatch(3, 3)
	if err := d.IngestKeyed("retry-1", retry...); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("faulted ingest: %v, want ErrReadOnly", err)
	}
	st := d.Health()
	if st.State != StateDegraded || st.State.String() != "degraded" {
		t.Fatalf("state after fault: %v", st.State)
	}
	if st.Faults != 1 || st.Heals != 0 || st.LastFault == "" {
		t.Fatalf("fault counters: %+v", st)
	}
	if st.RetryAfter <= 0 || st.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v", st.RetryAfter)
	}
	// Reads keep serving the pre-fault generation.
	if cur, ok := d.Current(); !ok || cur != gen {
		t.Fatal("degraded engine stopped serving the last generation")
	}
	if _, ok := d.TopSources(3); !ok {
		t.Fatal("degraded engine stopped serving rankings")
	}

	// Before the backoff elapses, mutators fail fast without a disk probe.
	syncs := ffs.Calls(wal.OpSync)
	if err := d.IngestKeyed("retry-1", retry...); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("fast-fail ingest: %v", err)
	}
	if _, err := d.Refresh(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("fast-fail refresh: %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("fast-fail checkpoint: %v", err)
	}
	if got := ffs.Calls(wal.OpSync); got != syncs {
		t.Fatalf("fast-fail path touched the disk: %d syncs, was %d", got, syncs)
	}

	// Past the backoff, the probe round-trip heals and the retry applies.
	now = now.Add(1100 * time.Millisecond)
	if err := d.IngestKeyed("retry-1", retry...); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	st = d.Health()
	if st.State != StateHealthy || st.Heals != 1 {
		t.Fatalf("state after heal: %+v", st)
	}
	if d.Len() != 6 {
		t.Fatalf("engine holds %d records, want 6", d.Len())
	}
	// The duplicate resend of the now-applied key is a no-op ack.
	if err := d.IngestKeyed("retry-1", retry...); err != nil || d.Len() != 6 {
		t.Fatalf("dup resend: err=%v len=%d", err, d.Len())
	}
	want := []string{"healthy->degraded", "degraded->healthy"}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}

	// The torn first attempt never becomes durable: a clean recovery holds
	// each acked record exactly once and still dedups the key.
	if _, err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if rec.Len() != 6 {
		t.Fatalf("recovered %d records, want 6", rec.Len())
	}
	if err := rec.IngestKeyed("retry-1", retry...); err != nil || rec.Len() != 6 {
		t.Fatalf("post-recovery resend: err=%v len=%d", err, rec.Len())
	}
}

// TestDurableIngestAckedWhenItsCheckpointFails: a batch that is appended,
// fsync-ed and applied is acknowledged even when the cadence checkpoint it
// triggers cannot be published — an error would invite an unkeyed retry that
// ingests it twice. The storage fault still degrades health, so the next write
// is refused without applying anything, and a reopen holds the batch once.
func TestDurableIngestAckedWhenItsCheckpointFails(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	// The first rename is the first checkpoint's publication.
	ffs := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpRename, Err: wal.ErrInjectedIO, Times: 1})
	d, err := OpenDurable(dir, opt, DurableOptions{
		fs: ffs, now: func() time.Time { return now }, CheckpointBytes: 1, probeBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Ingest(durableBatch(0, 3)...); err != nil {
		t.Fatalf("ingest whose checkpoint failed: %v, want the batch acked", err)
	}
	if ffs.Injected() != 1 {
		t.Fatalf("%d faults fired; the checkpoint publication was not reached", ffs.Injected())
	}
	if st := d.Health(); st.State != StateDegraded || st.Faults != 1 {
		t.Fatalf("health after the failed checkpoint: %+v, want degraded with one fault", st)
	}
	if err := d.Ingest(durableBatch(3, 3)...); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("next ingest: %v, want ErrReadOnly", err)
	}
	if d.Len() != 3 {
		t.Fatalf("engine holds %d records, want the acked 3", d.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if rec.Len() != 3 {
		t.Fatalf("recovered %d records, want the acked batch once", rec.Len())
	}
}

// TestDurableHealthProbeBackoff: failed probes double the delay up to the cap,
// every probe failure counts a fault, and the engine stays degraded — never
// sealed — under a plain persistent EIO.
func TestDurableHealthProbeBackoff(t *testing.T) {
	opt := durableTestOptions()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	// Persistent: every fsync after segment creation fails, forever.
	ffs := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpSync, After: 1, Err: wal.ErrInjectedIO})
	d, err := OpenDurable(t.TempDir(), opt, DurableOptions{
		fs: ffs, now: clock, probeBackoff: time.Second, probeMaxBackoff: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Ingest(durableBatch(0, 2)...); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("first ingest: %v", err)
	}
	wantDelays := []time.Duration{1, 2, 4, 4, 4} // seconds; doubling, capped
	for i, sec := range wantDelays {
		st := d.Health()
		if st.State != StateDegraded {
			t.Fatalf("probe %d: state %v", i, st.State)
		}
		if st.RetryAfter != sec*time.Second {
			t.Fatalf("probe %d: RetryAfter %v, want %vs", i, st.RetryAfter, sec)
		}
		now = now.Add(sec*time.Second + time.Millisecond)
		if err := d.Ingest(durableBatch(0, 2)...); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	st := d.Health()
	if st.Faults != uint64(1+len(wantDelays)) || st.Heals != 0 {
		t.Fatalf("counters after failed probes: %+v", st)
	}
}

// TestDurableHealthSealedOnCorruption: a fault classified as sealed-region
// corruption moves the engine to the terminal readonly state — no probes, no
// heals, reads still serving.
func TestDurableHealthSealedOnCorruption(t *testing.T) {
	opt := durableTestOptions()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	ffs := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpSync, After: 2, Err: wal.ErrCorrupt, Times: 1})
	var transitions []string
	d, err := OpenDurable(t.TempDir(), opt, DurableOptions{
		fs: ffs, now: clock, probeBackoff: time.Second,
		OnHealthChange: func(from, to HealthState, cause error) {
			transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Ingest(durableBatch(0, 3)...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	err = d.Ingest(durableBatch(3, 2)...)
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("sealing fault: %v, want ErrReadOnly wrapping wal.ErrCorrupt", err)
	}
	st := d.Health()
	if st.State != StateSealed || st.State.String() != "readonly" {
		t.Fatalf("state: %v", st.State)
	}
	// No amount of waiting probes a sealed engine.
	calls := ffs.Calls(wal.OpSync)
	now = now.Add(time.Hour)
	if err := d.Ingest(durableBatch(5, 1)...); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("sealed ingest: %v", err)
	}
	if got := ffs.Calls(wal.OpSync); got != calls {
		t.Fatal("sealed engine probed the disk")
	}
	if _, ok := d.Current(); !ok {
		t.Fatal("sealed engine stopped serving reads")
	}
	if want := []string{"healthy->readonly"}; !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
}

// TestDurableIdempotencyAcrossRecovery: the dedup set survives restarts via
// both persistence paths — a key compacted into a checkpoint op and a key
// still in the WAL tail — while a key whose batch was rejected is free to
// retry with corrected data.
func TestDurableIdempotencyAcrossRecovery(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.IngestKeyed("in-chain", durableBatch(0, 3)...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // "in-chain" rides a checkpoint op
		t.Fatal(err)
	}
	if err := d.IngestKeyed("in-tail", durableBatch(3, 2)...); err != nil {
		t.Fatal(err)
	}
	bad := durableExtraction(9)
	bad.Subject = ""
	if err := d.IngestKeyed("rejected", bad); err == nil {
		t.Fatal("invalid keyed batch accepted")
	}
	// A rejected batch's key is not recorded: the resend earns the same
	// deterministic rejection, twice over in the log.
	if err := d.IngestKeyed("rejected", bad); err == nil {
		t.Fatal("invalid resend accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 5 {
		t.Fatalf("recovered %d records, want 5", rec.Len())
	}
	for _, key := range []string{"in-chain", "in-tail"} {
		if err := rec.IngestKeyed(key, durableBatch(20, 2)...); err != nil {
			t.Fatalf("resend of %s: %v", key, err)
		}
		if rec.Len() != 5 {
			t.Fatalf("resend of %s re-applied: %d records", key, rec.Len())
		}
	}
	// The rejected key never made it into the dedup set, live or recovered,
	// so a corrected batch under it applies.
	if err := rec.IngestKeyed("rejected", durableBatch(30, 1)...); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 6 {
		t.Fatalf("corrected retry did not apply: %d records", rec.Len())
	}
}

// TestEngineIngestKeyed: the in-memory engine honours the same live dedup
// contract (without persistence), so the server — which hands every batch to
// IngestKeyed — behaves identically whether or not a durable directory is
// configured.
func TestEngineIngestKeyed(t *testing.T) {
	e, err := NewEngine(durableTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestKeyed("k", durableBatch(0, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestKeyed("k", durableBatch(3, 3)...); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 3 {
		t.Fatalf("duplicate key applied: %d records", e.Len())
	}
	bad := durableExtraction(0)
	bad.Subject = ""
	if err := e.IngestKeyed("k2", bad); err == nil {
		t.Fatal("invalid keyed batch accepted")
	}
	if err := e.IngestKeyed("k2", durableBatch(3, 2)...); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 5 {
		t.Fatalf("rejected key blocked its retry: %d records", e.Len())
	}
	if err := e.IngestKeyed("", durableBatch(5, 1)...); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 6 {
		t.Fatalf("empty key must not dedup: %d records", e.Len())
	}
}

// TestDurableChaosSweep is the survivable-fault analogue of the crash sweep:
// randomized schedules of transient (and sometimes persistent) EIO/ENOSPC
// faults — torn short writes included — run under a retrying client that
// tags every batch with an idempotency key. Throughout:
//
//   - every mutator failure is typed (errors.Is ErrReadOnly);
//   - duplicate resends of acked keys are applied exactly once;
//   - the engine either heals (transient schedules must) and then matches a
//     never-faulted oracle bit for bit, or stays cleanly read-only;
//   - a final recovery through a clean filesystem holds every acked batch
//     exactly once, resurrects nothing unacknowledged, and matches the
//     boundary oracle.
func TestDurableChaosSweep(t *testing.T) {
	opt := durableTestOptions()
	schedules := 10
	if testing.Short() {
		schedules = 5
	}
	unique := func(i int) Extraction {
		x := durableExtraction(i)
		x.Subject = fmt.Sprintf("u%d", i) // globally unique → exact multiset checks
		return x
	}
	for s := 0; s < schedules; s++ {
		s := s
		t.Run(fmt.Sprintf("schedule=%d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + s)))
			persistent := s%3 == 2
			classes := []wal.FaultOp{wal.OpWrite, wal.OpSync, wal.OpSyncDir, wal.OpCreate, wal.OpRename}
			errsPool := []error{wal.ErrInjectedIO, wal.ErrInjectedNoSpace}
			var faults []wal.Fault
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				ft := wal.Fault{
					Op:    classes[rng.Intn(len(classes))],
					After: 2 + rng.Intn(40),
					Err:   errsPool[rng.Intn(len(errsPool))],
					Times: 1 + rng.Intn(3),
				}
				if ft.Op == wal.OpWrite {
					ft.ShortBytes = rng.Intn(12)
				}
				faults = append(faults, ft)
			}
			if persistent {
				faults = append(faults, wal.Fault{Op: wal.OpSync, After: 25 + rng.Intn(15), Err: wal.ErrInjectedIO})
			}
			ffs := wal.NewFaultFS(nil, faults...)

			// Deterministic auto-advancing clock: every engine clock read
			// moves time forward, so probe backoffs elapse across retries
			// without wall-clock sleeps.
			now := time.Unix(1_700_000_000, 0)
			clock := func() time.Time { now = now.Add(300 * time.Millisecond); return now }
			dopt := DurableOptions{
				segmentBytes:        512,
				compactAfterBatches: -1, // no re-anchor: keeps live-vs-oracle bit-identity exact
				probeBackoff:        200 * time.Millisecond,
				probeMaxBackoff:     2 * time.Second,
				fs:                  ffs,
				now:                 clock,
			}
			dir := t.TempDir()
			var d *DurableEngine
			var err error
			for attempt := 0; attempt < 8; attempt++ {
				if d, err = OpenDurable(dir, opt, dopt); err == nil {
					break
				}
			}
			if err != nil {
				t.Fatalf("open never succeeded: %v", err)
			}
			defer d.Close()

			oracle, err := NewEngine(opt)
			if err != nil {
				t.Fatal(err)
			}
			oracleRefresh := func() {
				t.Helper()
				if _, err := oracle.Refresh(); err != nil {
					t.Fatalf("oracle refresh: %v", err)
				}
			}
			// syncOracle detects a refresh that reached the live engine even
			// though its marker (or its checkpoint) then faulted: the
			// published generation moved, so the oracle must move too.
			syncOracle := func(prev *Result) {
				t.Helper()
				if cur, ok := d.Current(); ok && cur != prev {
					oracleRefresh()
				}
			}
			ackedRecs := make(map[triple.Record]bool)
			next := 0
			for step := 0; step < 40; step++ {
				switch rng.Intn(5) {
				case 0, 1, 2: // keyed ingest with bounded retries
					key := fmt.Sprintf("op-%d", step)
					n := 1 + rng.Intn(3)
					b := make([]Extraction, n)
					recs := make([]triple.Record, n)
					for j := range b {
						b[j] = unique(next)
						recs[j] = b[j].record()
						next++
					}
					acked := false
					for attempt := 0; attempt < 8 && !acked; attempt++ {
						err := d.IngestKeyed(key, b...)
						if err == nil {
							acked = true
						} else if !errors.Is(err, ErrReadOnly) {
							t.Fatalf("step %d: untyped ingest error: %v", step, err)
						}
					}
					if !acked {
						continue
					}
					// Exactly-once: the resend of an acked key is a pure ack.
					before := d.Len()
					if err := d.IngestKeyed(key, b...); err != nil {
						t.Fatalf("step %d: resend of acked key: %v", step, err)
					}
					if d.Len() != before {
						t.Fatalf("step %d: duplicate resend applied again", step)
					}
					if err := oracle.eng.Ingest(recs...); err != nil {
						t.Fatal(err)
					}
					for _, r := range recs {
						ackedRecs[r] = true
					}
				case 3: // refresh
					if d.Len() == 0 {
						continue
					}
					prev, _ := d.Current()
					applied := false
					for attempt := 0; attempt < 8 && !applied; attempt++ {
						if _, err := d.Refresh(); err == nil {
							applied = true
						} else if !errors.Is(err, ErrReadOnly) {
							t.Fatalf("step %d: untyped refresh error: %v", step, err)
						} else if cur, ok := d.Current(); ok && cur != prev {
							applied = true // ran, then its marker tore
						}
					}
					if applied {
						oracleRefresh()
					}
				case 4: // checkpoint; its flush refresh may publish even on failure
					prev, _ := d.Current()
					for attempt := 0; attempt < 8; attempt++ {
						err := d.Checkpoint()
						if err == nil {
							break
						}
						if !errors.Is(err, ErrReadOnly) {
							t.Fatalf("step %d: untyped checkpoint error: %v", step, err)
						}
					}
					syncOracle(prev)
				}
			}

			// Drive to a terminal state: a full Checkpoint round-trip proves
			// the engine healed; a persistent fault keeps it read-only.
			healed := false
			for attempt := 0; attempt < 30 && !healed; attempt++ {
				prev, _ := d.Current()
				err := d.Checkpoint()
				if err == nil {
					healed = true
				} else if !errors.Is(err, ErrReadOnly) {
					t.Fatalf("terminal checkpoint: untyped error: %v", err)
				}
				syncOracle(prev)
			}

			if healed {
				st := d.Health()
				if st.State != StateHealthy {
					t.Fatalf("checkpoint succeeded but health is %v", st.State)
				}
				if d.Len() != oracle.Len() {
					t.Fatalf("live %d records, oracle %d", d.Len(), oracle.Len())
				}
				rr, rok := d.Current()
				or, ook := oracle.Current()
				if rok != ook {
					t.Fatalf("live refreshed=%v, oracle refreshed=%v", rok, ook)
				}
				if rok {
					assertResultsIdentical(t, "live-vs-oracle", rr, or)
				}
			} else {
				if !persistent {
					t.Fatalf("transient schedule never healed: %+v", d.Health())
				}
				// Cleanly read-only: typed failures, reads still serving.
				if err := d.Ingest(unique(next)); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("read-only ingest: %v", err)
				}
				st := d.Health()
				if st.State == StateHealthy || st.Faults == 0 || st.LastFault == "" {
					t.Fatalf("inconsistent read-only health: %+v", st)
				}
			}
			d.Close()

			// Recovery through a clean filesystem: acked batches exactly once,
			// nothing unacknowledged resurrected, result matching the oracle
			// built from the raw durable boundary.
			rec, err := OpenDurable(dir, opt, DurableOptions{})
			if err != nil {
				t.Fatalf("clean recovery: %v", err)
			}
			defer rec.Close()
			boundary := readBoundary(t, dir)
			counts := make(map[triple.Record]int)
			for _, r := range boundary.records() {
				counts[r]++
			}
			for r := range ackedRecs {
				if counts[r] != 1 {
					t.Fatalf("acked record %v appears %d times after recovery", r, counts[r])
				}
			}
			for r, n := range counts {
				if n != 1 {
					t.Fatalf("record %v duplicated %d times", r, n)
				}
				if !ackedRecs[r] {
					t.Fatalf("unacked record %v resurrected by recovery", r)
				}
			}
			if rec.Len() != len(counts) {
				t.Fatalf("recovered %d records, boundary %d", rec.Len(), len(counts))
			}
			bOracle := oracleFromBoundary(t, boundary, opt)
			rr, rok := rec.Current()
			or, ook := bOracle.Current()
			if rok != ook {
				t.Fatalf("recovered refreshed=%v, boundary oracle refreshed=%v", rok, ook)
			}
			if rok {
				assertResultsIdentical(t, "recovered-vs-boundary", rr, or)
			}
		})
	}
}

// TestDurableCompactionPreservesKeys: compaction folds the chain into one
// record op, which would drop the per-op idempotency keys — so the retained
// key set must ride the rebuilt base explicitly, and a resend racing a
// compaction + restart must still be applied exactly once.
func TestDurableCompactionPreservesKeys(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	d, err := OpenDurable(dir, opt, DurableOptions{compactAfterBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k-0", "k-1", "k-2"}
	next := 0
	for _, key := range keys {
		if err := d.IngestKeyed(key, durableBatch(next, 2)...); err != nil {
			t.Fatal(err)
		}
		next += 2
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil { // 2nd and 3rd checkpoints compact
			t.Fatal(err)
		}
	}
	// The compacted base is one record op plus one key-only op per retained
	// key — nothing else would survive the chain being replaced.
	ck, ok, err := wal.ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("read chain: ok=%v err=%v", ok, err)
	}
	if ck.Batches() != 1 || len(ck.AllRecords()) != next {
		t.Fatalf("compacted chain: %d batch ops, %d records", ck.Batches(), len(ck.AllRecords()))
	}
	var carried []string
	for i := range ck.Ops {
		if len(ck.Ops[i].Records) == 0 && ck.Ops[i].Key != "" {
			carried = append(carried, ck.Ops[i].Key)
		}
	}
	if !reflect.DeepEqual(carried, keys) {
		t.Fatalf("base carries keys %v, want %v", carried, keys)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, opt, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != next {
		t.Fatalf("recovered %d records, want %d", rec.Len(), next)
	}
	for _, key := range keys {
		if err := rec.IngestKeyed(key, durableBatch(50, 2)...); err != nil {
			t.Fatalf("resend of %s: %v", key, err)
		}
	}
	if rec.Len() != next {
		t.Fatalf("post-compaction resend re-applied: %d records, want %d", rec.Len(), next)
	}
}

// TestDurableHealthHealsWithoutWrites: a degraded engine whose only traffic
// is Health() polling (the load-balancer-drained shape: 503 healthz means no
// writes ever arrive) still probes once the backoff elapses and heals — and a
// closed engine's Health never touches the disk.
func TestDurableHealthHealsWithoutWrites(t *testing.T) {
	opt := durableTestOptions()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	// Sync 0 is segment creation, sync 1 acks the first batch, sync 2 fails
	// once; the disk is healthy again from sync 3 on.
	ffs := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpSync, After: 2, Err: wal.ErrInjectedIO, Times: 1})
	d, err := OpenDurable(t.TempDir(), opt, DurableOptions{
		fs: ffs, now: clock, probeBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Ingest(durableBatch(0, 2)...); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(durableBatch(2, 2)...); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("faulted ingest: %v", err)
	}
	// Before the backoff elapses, Health reports without probing.
	syncs := ffs.Calls(wal.OpSync)
	if st := d.Health(); st.State != StateDegraded || st.RetryAfter <= 0 {
		t.Fatalf("degraded report: %+v", st)
	}
	if got := ffs.Calls(wal.OpSync); got != syncs {
		t.Fatalf("early Health probed the disk: %d syncs, was %d", got, syncs)
	}
	// Past the backoff, the Health call itself runs the probe and heals —
	// no mutator ever arrives.
	now = now.Add(1100 * time.Millisecond)
	if st := d.Health(); st.State != StateHealthy || st.Heals != 1 {
		t.Fatalf("Health did not heal: %+v", st)
	}
	if err := d.Ingest(durableBatch(2, 2)...); err != nil {
		t.Fatalf("ingest after Health-driven heal: %v", err)
	}

	// A degraded engine that is closed stays quiet: Health reports, but never
	// probes a closed log.
	ffs2 := wal.NewFaultFS(nil, wal.Fault{Op: wal.OpSync, After: 1, Err: wal.ErrInjectedIO})
	d2, err := OpenDurable(t.TempDir(), opt, DurableOptions{
		fs: ffs2, now: clock, probeBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Ingest(durableBatch(0, 1)...); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("faulted ingest: %v", err)
	}
	d2.Close()
	syncs = ffs2.Calls(wal.OpSync)
	now = now.Add(time.Minute)
	if st := d2.Health(); st.State != StateDegraded {
		t.Fatalf("closed engine state: %v", st.State)
	}
	if got := ffs2.Calls(wal.OpSync); got != syncs {
		t.Fatal("closed engine's Health probed the disk")
	}
}

// TestDurableReadsDoNotWaitForWriter: with the mutator lock held — standing in
// for a running refresh, checkpoint or compaction — every read returns, and
// Health reports what it reported before the lock was taken.
func TestDurableReadsDoNotWaitForWriter(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), durableTestOptions(), DurableOptions{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for b := 0; b < 3; b++ {
		if err := d.Ingest(durableBatch(b*4, 4)...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Ingest(durableBatch(12, 4)...); err != nil {
		t.Fatal(err)
	}
	before := d.Health()
	if before.WALBytes == 0 || before.CheckpointWatermark == 0 {
		t.Fatalf("health before the lock: %+v, want a log and a checkpoint", before)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	within := func(name string, read func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { read(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s waited for the writer", name)
		}
	}
	var during HealthStatus
	within("Health", func() { during = d.Health() })
	within("Len", func() { d.Len() })
	within("Pending", func() { d.Pending() })
	within("Stats", func() { d.Stats() })
	within("Current", func() { d.Current() })
	if during.WALBytes != before.WALBytes || during.CheckpointWatermark != before.CheckpointWatermark {
		t.Fatalf("health under the lock: wal %d, watermark %d; before it: wal %d, watermark %d",
			during.WALBytes, during.CheckpointWatermark, before.WALBytes, before.CheckpointWatermark)
	}
}

// TestDurableKeyRetention: the dedup set keeps only the most recent
// keyRetention keys — an evicted key's resend applies as a new batch (the
// documented retry window), and recovery replay reproduces the same bounded
// set, so live and recovered engines agree on which resends dedup.
func TestDurableKeyRetention(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	dopt := DurableOptions{keyRetention: 2}
	d, err := OpenDurable(dir, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.IngestKeyed(fmt.Sprintf("k-%d", i), durableExtraction(i)); err != nil {
			t.Fatal(err)
		}
	}
	// k-0 is evicted (window is 2): its resend is past the retry window and
	// applies; k-2 is retained and dedups.
	if err := d.IngestKeyed("k-2", durableExtraction(10)); err != nil || d.Len() != 3 {
		t.Fatalf("retained key re-applied: err=%v len=%d", err, d.Len())
	}
	if err := d.IngestKeyed("k-0", durableExtraction(11)); err != nil || d.Len() != 4 {
		t.Fatalf("evicted key did not re-apply: err=%v len=%d", err, d.Len())
	}
	if _, err := d.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay walks the same keyed sequence through the same bounded ring:
	// the recovered window is {k-2, k-0}, exactly the live engine's.
	rec, err := OpenDurable(dir, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 4 {
		t.Fatalf("recovered %d records, want 4", rec.Len())
	}
	for _, key := range []string{"k-2", "k-0"} {
		if err := rec.IngestKeyed(key, durableExtraction(20)); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Len() != 4 {
		t.Fatalf("retained keys re-applied after recovery: %d records", rec.Len())
	}
	if err := rec.IngestKeyed("k-1", durableExtraction(21)); err != nil || rec.Len() != 5 {
		t.Fatalf("evicted key did not re-apply after recovery: err=%v len=%d", err, rec.Len())
	}
}

// TestCheckpointFaultClassification: only storage faults inside a checkpoint
// degrade the engine; a model error surfaces unchanged and leaves health
// alone — no flapping between a healthy disk's probe heals and the next
// checkpoint's spurious degrade.
func TestCheckpointFaultClassification(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), durableTestOptions(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	modelErr := errors.New("model exploded")
	d.mu.Lock()
	if got := d.faultLocked(modelErr); got != modelErr {
		d.mu.Unlock()
		t.Fatalf("model error rewritten: %v", got)
	}
	if d.state != StateHealthy {
		d.mu.Unlock()
		t.Fatal("model error degraded the engine")
	}
	diskErr := errors.New("disk exploded")
	got := d.faultLocked(&storageFault{diskErr})
	state := d.state
	d.mu.Unlock()
	if !errors.Is(got, ErrReadOnly) || !errors.Is(got, diskErr) {
		t.Fatalf("storage fault: %v, want ErrReadOnly wrapping the cause", got)
	}
	if state != StateDegraded {
		t.Fatalf("storage fault left state %v, want degraded", state)
	}
}
