package wal

import (
	"errors"
	"fmt"
	"testing"
)

// crashWorkload appends batches of payloads with a Sync after each batch,
// rolling across several tiny segments, against a crash-budgeted FaultFS. It
// returns the number of payloads whose covering Sync returned nil — the
// acknowledged prefix the log must never lose — and the number appended in
// total. The workload is deterministic, so budget b kills it at exactly one
// byte/metadata step, and sweeping b covers every step.
func crashWorkload(dir string, budget int64) (acked, appended int) {
	cfs := NewFaultFS(OSFS{}, Fault{Op: OpCrash, After: int(budget)})
	l, err := Open(dir, Options{SegmentBytes: 128, FS: cfs})
	if err != nil {
		return 0, 0
	}
	defer l.Close()
	const batches, perBatch = 6, 5
	for b := 0; b < batches; b++ {
		ok := true
		for i := 0; i < perBatch; i++ {
			if _, err := l.Append(payloadFor(b*perBatch + i)); err != nil {
				ok = false
				break
			}
			appended++
		}
		if !ok {
			break
		}
		if err := l.Sync(); err != nil {
			break
		}
		acked = (b + 1) * perBatch
	}
	return acked, appended
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf("crash-payload-%04d-padding-to-make-rolls-happen", i))
}

// TestCrashSweepKillsEveryByte runs the append workload with every budget
// from zero until the workload completes untouched, reopening the directory
// with a real filesystem after each injected crash — exactly what a
// restarted process would see. Recovery must (a) not fail, (b) retain every
// acknowledged payload verbatim, (c) retain only a prefix of what was
// appended, and (d) be deterministic: a second open observes the same
// records as the first.
func TestCrashSweepKillsEveryByte(t *testing.T) {
	const fullWorkload = 6 * 5
	// -short strides the sweep with a prime step: still crashes inside every
	// phase of the workload, at ~1/7 the wall time of the exhaustive sweep.
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	completed := false
	for budget := int64(0); budget < 1<<20 && !completed; budget += stride {
		dir := t.TempDir()
		acked, appended := crashWorkload(dir, budget)
		completed = acked == fullWorkload

		l, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			// Budget 0 can die inside MkdirAll before any file exists; the
			// only acceptable failure is "nothing acked yet and the log
			// cannot even be created" — never ErrCorrupt.
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("budget %d: recovery reported corruption: %v", budget, err)
			}
			if acked > 0 {
				t.Fatalf("budget %d: %d acked payloads but recovery failed: %v", budget, acked, err)
			}
			continue
		}
		var got [][]byte
		if err := l.Replay(0, func(seq uint64, p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("budget %d: replay: %v", budget, err)
		}
		survivors := len(got)
		if err := l.Close(); err != nil {
			t.Fatalf("budget %d: close: %v", budget, err)
		}

		if survivors < acked {
			t.Fatalf("budget %d: lost acknowledged records: %d acked, %d survived", budget, acked, survivors)
		}
		if survivors > appended {
			t.Fatalf("budget %d: %d records survived but only %d were ever appended", budget, survivors, appended)
		}
		for i, p := range got {
			if string(p) != string(payloadFor(i)) {
				t.Fatalf("budget %d: record %d corrupted after recovery: %q", budget, i, p)
			}
		}

		// Determinism: the repair is idempotent, so a second open sees the
		// identical record set.
		l2, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("budget %d: second open: %v", budget, err)
		}
		n := 0
		if err := l2.Replay(0, func(seq uint64, p []byte) error {
			if string(p) != string(got[n]) {
				return fmt.Errorf("record %d differs between opens", n)
			}
			n++
			return nil
		}); err != nil {
			t.Fatalf("budget %d: second replay: %v", budget, err)
		}
		if n != survivors {
			t.Fatalf("budget %d: opens disagree: %d vs %d records", budget, survivors, n)
		}
		l2.Close()

		// The recovered log must accept appends: recovery leaves a usable
		// active segment, not just a readable one.
		l3, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("budget %d: third open: %v", budget, err)
		}
		if _, err := l3.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("budget %d: append after recovery: %v", budget, err)
		}
		if err := l3.Close(); err != nil {
			t.Fatalf("budget %d: close after append: %v", budget, err)
		}
	}
	if !completed {
		t.Fatal("sweep never reached a budget that completes the workload")
	}
}

// TestCrashSweepCheckpoint kills the chain writers at every byte/step and
// verifies the atomic-rename contract: afterwards ReadCheckpoint returns
// either the previous chain or the extended/compacted one, intact — never a
// torn or corrupt hybrid.
func TestCrashSweepCheckpoint(t *testing.T) {
	base := &Checkpoint{Watermark: 7, Fingerprint: "fp", Ops: []CheckpointOp{{Refreshes: 1}}}
	delta := &Checkpoint{Watermark: 21, Fingerprint: "fp", Ops: []CheckpointOp{{Refreshes: 1}}}

	// Sweep the delta append: the chain reads back at either the old or the
	// extended watermark.
	completed := false
	for budget := int64(0); budget < 1<<20 && !completed; budget++ {
		dir := t.TempDir()
		if err := WriteCheckpointBase(nil, dir, base); err != nil {
			t.Fatal(err)
		}
		cfs := NewFaultFS(OSFS{}, Fault{Op: OpCrash, After: int(budget)})
		werr := WriteCheckpointDelta(cfs, dir, base.Watermark, delta)
		completed = werr == nil

		got, ok, rerr := ReadCheckpoint(nil, dir)
		if rerr != nil || !ok {
			t.Fatalf("budget %d: checkpoint unreadable after crash: ok=%v err=%v", budget, ok, rerr)
		}
		switch got.Watermark {
		case base.Watermark, delta.Watermark:
		default:
			t.Fatalf("budget %d: checkpoint watermark %d is neither old nor new", budget, got.Watermark)
		}
		if werr == nil && got.Watermark != delta.Watermark {
			t.Fatalf("budget %d: delta write succeeded but chain did not extend", budget)
		}
	}
	if !completed {
		t.Fatal("sweep never completed a delta write")
	}

	// Sweep the compaction: base replace plus covered-delta removal. A crash
	// between the rename and the removals leaves a stale delta the reader
	// must skip, so the merged view is always the 2-op chain or the 1-op
	// compacted image.
	compacted := &Checkpoint{Watermark: 21, Fingerprint: "fp", Ops: []CheckpointOp{{Refreshes: 2}}}
	completed = false
	for budget := int64(0); budget < 1<<20 && !completed; budget++ {
		dir := t.TempDir()
		if err := WriteCheckpointBase(nil, dir, base); err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpointDelta(nil, dir, base.Watermark, delta); err != nil {
			t.Fatal(err)
		}
		cfs := NewFaultFS(OSFS{}, Fault{Op: OpCrash, After: int(budget)})
		werr := WriteCheckpointBase(cfs, dir, compacted)
		completed = werr == nil

		got, ok, rerr := ReadCheckpoint(nil, dir)
		if rerr != nil || !ok {
			t.Fatalf("budget %d: checkpoint unreadable after compaction crash: ok=%v err=%v", budget, ok, rerr)
		}
		if got.Watermark != compacted.Watermark {
			t.Fatalf("budget %d: compaction crash moved the watermark to %d", budget, got.Watermark)
		}
		if n := len(got.Ops); n != 1 && n != 2 {
			t.Fatalf("budget %d: merged chain has %d ops, want the old 2 or compacted 1", budget, n)
		}
		if werr == nil && len(got.Ops) != 1 {
			t.Fatalf("budget %d: compaction succeeded but stale chain still merges in", budget)
		}
	}
	if !completed {
		t.Fatal("sweep never completed a compaction")
	}
}

// enospcWorkload appends batches with a Sync barrier after each, retrying a
// failed batch once through Repair — the discipline the durable engine
// follows when the disk hiccups instead of dying. Tiny segments force rolls,
// so the injected ENOSPC lands in segment-rotation paths too.
func enospcWorkload(t *testing.T, dir string, ffs *FaultFS) {
	t.Helper()
	const batches, perBatch = 4, 3
	opt := Options{SegmentBytes: 128, FS: ffs}
	l, err := Open(dir, opt)
	if err != nil {
		// The fault hit Open itself (mkdir, create, magic write, fsync). A
		// transient fault is exhausted now, so a retry must succeed and
		// repair whatever the first attempt tore.
		if ffs.Injected() == 0 {
			t.Fatalf("open failed without an injected fault: %v", err)
		}
		l, err = Open(dir, opt)
		if err != nil {
			t.Fatalf("reopen after transient open fault: %v", err)
		}
	}
	defer l.Close()
	appendBatch := func(b int) error {
		for i := 0; i < perBatch; i++ {
			if _, err := l.Append(payloadFor(b*perBatch + i)); err != nil {
				return err
			}
		}
		return l.Sync()
	}
	for b := 0; b < batches; b++ {
		if err := appendBatch(b); err != nil {
			// Repair rewinds to the synced prefix, discarding the batch's
			// partial appends, so the retry re-appends the whole batch —
			// each payload still lands exactly once.
			if err := l.Repair(); err != nil {
				t.Fatalf("batch %d: repair: %v", b, err)
			}
			if err := appendBatch(b); err != nil {
				t.Fatalf("batch %d: retry after repair: %v", b, err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A clean reopen sees every payload exactly once, in order.
	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer l2.Close()
	n := 0
	if err := l2.Replay(0, func(seq uint64, p []byte) error {
		if string(p) != string(payloadFor(n)) {
			return fmt.Errorf("record %d = %q", n, p)
		}
		n++
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != batches*perBatch {
		t.Fatalf("replayed %d records, want %d", n, batches*perBatch)
	}
}

// TestENOSPCRotationFaultSweep injects a transient ENOSPC at every index of
// every op class the rolling append workload touches — including the
// create/fsync/dirsync steps of segment rotation and torn short writes — and
// requires the Repair-and-retry discipline to land the full record set with
// no loss and no duplicates.
func TestENOSPCRotationFaultSweep(t *testing.T) {
	for _, op := range []FaultOp{OpWrite, OpSync, OpSyncDir, OpCreate, OpMkdir} {
		t.Run(op.String(), func(t *testing.T) {
			for after := 0; ; after++ {
				fault := Fault{Op: op, After: after, Err: ErrInjectedNoSpace, Times: 1}
				if op == OpWrite {
					// Tear a prefix of the failing write, as real ENOSPC does.
					fault.ShortBytes = after % 7
				}
				ffs := NewFaultFS(OSFS{}, fault)
				enospcWorkload(t, t.TempDir(), ffs)
				if ffs.Injected() == 0 {
					// The schedule points past the workload: every index of
					// this op class has been swept.
					return
				}
			}
		})
	}
}

// TestENOSPCCheckpointDeltaFaultSweep injects a transient ENOSPC at every
// step of a checkpoint-delta publication. The atomic-rename contract must
// hold — the chain reads back intact at the old or new watermark, never torn
// — and a retry after the transient fault must extend the chain.
func TestENOSPCCheckpointDeltaFaultSweep(t *testing.T) {
	base := &Checkpoint{Watermark: 7, Fingerprint: "fp", Ops: []CheckpointOp{{Refreshes: 1}}}
	delta := &Checkpoint{Watermark: 21, Fingerprint: "fp", Ops: []CheckpointOp{{Refreshes: 1, Key: "k-21"}}}
	for _, op := range []FaultOp{OpCreate, OpWrite, OpSync, OpRename, OpSyncDir} {
		t.Run(op.String(), func(t *testing.T) {
			for after := 0; ; after++ {
				dir := t.TempDir()
				if err := WriteCheckpointBase(nil, dir, base); err != nil {
					t.Fatal(err)
				}
				ffs := NewFaultFS(OSFS{},
					Fault{Op: op, After: after, Err: ErrInjectedNoSpace, Times: 1, ShortBytes: after % 5})
				werr := WriteCheckpointDelta(ffs, dir, base.Watermark, delta)
				if ffs.Injected() == 0 {
					if werr != nil {
						t.Fatalf("after %d: no fault injected but write failed: %v", after, werr)
					}
					return
				}
				got, ok, rerr := ReadCheckpoint(nil, dir)
				if rerr != nil || !ok {
					t.Fatalf("after %d: chain unreadable post-fault: ok=%v err=%v", after, ok, rerr)
				}
				switch got.Watermark {
				case base.Watermark, delta.Watermark:
				default:
					t.Fatalf("after %d: watermark %d is neither old nor new", after, got.Watermark)
				}
				if werr == nil && got.Watermark != delta.Watermark {
					t.Fatalf("after %d: write acked but chain not extended", after)
				}
				// The fault was transient: a retried publication (same parent,
				// same delta) must land and carry the op's idempotency key.
				if werr != nil {
					if err := WriteCheckpointDelta(ffs, dir, base.Watermark, delta); err != nil {
						t.Fatalf("after %d: retry failed: %v", after, err)
					}
				}
				got2, ok, rerr := ReadCheckpoint(nil, dir)
				if rerr != nil || !ok || got2.Watermark != delta.Watermark {
					t.Fatalf("after %d: retried chain: ok=%v err=%v wm=%d", after, ok, rerr, got2.Watermark)
				}
				if nops := len(got2.Ops); nops != 2 || got2.Ops[1].Key != "k-21" {
					t.Fatalf("after %d: merged chain ops=%d key=%q", after, nops, got2.Ops[len(got2.Ops)-1].Key)
				}
			}
		})
	}
}
