package wal

import (
	"errors"
	"os"
	"testing"
)

func TestFaultFSSchedule(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{},
		Fault{Op: OpWrite, After: 2, Err: ErrInjectedIO, Times: 2},
		Fault{Op: OpSync, After: 1, Err: ErrInjectedNoSpace, Times: 1},
	)
	f, err := ffs.OpenFile(dir+"/f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Writes 0 and 1 succeed, 2 and 3 fail, 4+ succeed again: transient
	// faults exhaust, unlike a crash.
	for i := 0; i < 6; i++ {
		_, err := f.Write([]byte("x"))
		wantFail := i == 2 || i == 3
		if (err != nil) != wantFail {
			t.Fatalf("write %d: err=%v, want failure=%v", i, err, wantFail)
		}
		if wantFail && !errors.Is(err, ErrInjectedIO) {
			t.Fatalf("write %d: err=%v, want EIO", i, err)
		}
	}
	// Sync counts independently of writes: sync 0 succeeds, sync 1 fails.
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 0: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedNoSpace) {
		t.Fatalf("sync 1: %v, want ENOSPC", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2: %v", err)
	}
	if got := ffs.Injected(); got != 3 {
		t.Fatalf("Injected = %d, want 3", got)
	}
	if got := ffs.Calls(OpWrite); got != 6 {
		t.Fatalf("Calls(OpWrite) = %d, want 6", got)
	}
	if got := ffs.Calls(OpSync); got != 3 {
		t.Fatalf("Calls(OpSync) = %d, want 3", got)
	}
}

func TestFaultFSPersistentFault(t *testing.T) {
	dir := t.TempDir()
	// Times <= 0: the disk never comes back.
	ffs := NewFaultFS(OSFS{}, Fault{Op: OpSync, After: 0, Err: ErrInjectedIO})
	f, err := ffs.OpenFile(dir+"/f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 5; i++ {
		if err := f.Sync(); !errors.Is(err, ErrInjectedIO) {
			t.Fatalf("sync %d: %v, want persistent EIO", i, err)
		}
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{},
		Fault{Op: OpWrite, After: 0, Err: ErrInjectedNoSpace, Times: 1, ShortBytes: 3})
	f, err := ffs.OpenFile(dir+"/f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("abcdef"))
	if !errors.Is(werr, ErrInjectedNoSpace) || n != 3 {
		t.Fatalf("short write: n=%d err=%v, want 3/ENOSPC", n, werr)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dir + "/f")
	if err != nil {
		t.Fatal(err)
	}
	// The torn prefix reached the backing file — exactly what a real
	// mid-write ENOSPC leaves behind.
	if string(raw) != "abc" {
		t.Fatalf("backing file holds %q, want torn prefix \"abc\"", raw)
	}
}

// faultedLog opens a log over a FaultFS in a temp dir and appends+syncs n
// acknowledged records.
func faultedLog(t *testing.T, n int, faults ...Fault) (string, *FaultFS, *Log) {
	t.Helper()
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{}, faults...)
	l, err := Open(dir, Options{SegmentBytes: 1 << 20, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatalf("seed append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("seed sync: %v", err)
	}
	return dir, ffs, l
}

// assertLogRecords closes nothing; it replays l and checks the records are
// exactly payloadFor(0..want-1).
func assertLogRecords(t *testing.T, l *Log, want int) {
	t.Helper()
	got, _ := collect(t, l, 0)
	if len(got) != want {
		t.Fatalf("log holds %d records, want %d", len(got), want)
	}
	for i, p := range got {
		if string(p) != string(payloadFor(i)) {
			t.Fatalf("record %d = %q", i, p)
		}
	}
}

func TestLogAppendFaultThenRepair(t *testing.T) {
	// Writes: magic (0), 3 seed appends (1-3), then the faulty one (4) tears
	// a 5-byte prefix into the file.
	dir, _, l := faultedLog(t, 3,
		Fault{Op: OpWrite, After: 4, Err: ErrInjectedIO, Times: 1, ShortBytes: 5})
	defer l.Close()

	if _, err := l.Append(payloadFor(3)); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("faulted append: %v, want EIO", err)
	}
	if !l.Failed() {
		t.Fatal("log not marked failed after append fault")
	}
	// The invariant lives in the log, not just the engine: no appends over an
	// unrepaired tail.
	if _, err := l.Append(payloadFor(3)); !errors.Is(err, ErrFailed) {
		t.Fatalf("append on failed log: %v, want ErrFailed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("sync on failed log: %v, want ErrFailed", err)
	}

	if err := l.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if l.Failed() {
		t.Fatal("still failed after repair")
	}
	// The retried append lands at the same sequence the torn one would have
	// taken, over a truncated (not torn) tail.
	seq, err := l.Append(payloadFor(3))
	if err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if seq != 3 {
		t.Fatalf("post-repair seq = %d, want 3", seq)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	assertLogRecords(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen agrees: the torn prefix never survives to recovery.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertLogRecords(t, l2, 4)
}

func TestLogSyncFaultDiscardsUnackedTail(t *testing.T) {
	// Sync 0 seals the segment header at create, sync 1 covers the seed;
	// sync 2 fails after two more (unacked) appends.
	dir, _, l := faultedLog(t, 2,
		Fault{Op: OpSync, After: 2, Err: ErrInjectedIO, Times: 1})
	defer l.Close()

	for i := 2; i < 4; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("faulted sync: %v, want EIO", err)
	}
	if err := l.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	// A failed fsync may have dropped any subset of the dirty pages, so
	// Repair rewinds to the synced prefix: the unacked appends are gone and
	// their sequence numbers are reusable.
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after repair = %d, want 2", got)
	}
	assertLogRecords(t, l, 2)
	for i := 2; i < 4; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertLogRecords(t, l2, 4)
}

func TestLogRollFaultThenRepair(t *testing.T) {
	// Tiny segments force a roll on the 3rd append; the roll's createSegment
	// dies (create 0 made the first segment, create 1 is the roll).
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{},
		Fault{Op: OpCreate, After: 1, Err: ErrInjectedNoSpace, Times: 1})
	l, err := Open(dir, Options{SegmentBytes: 64, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 2; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(payloadFor(2)); !errors.Is(err, ErrInjectedNoSpace) {
		t.Fatalf("roll append: %v, want ENOSPC", err)
	}
	if !l.Failed() {
		t.Fatal("log not failed after mid-roll fault")
	}
	if err := l.Repair(); err != nil {
		t.Fatalf("repair after failed roll: %v", err)
	}
	seq, err := l.Append(payloadFor(2))
	if err != nil {
		t.Fatalf("append after roll repair: %v", err)
	}
	if seq != 2 {
		t.Fatalf("post-roll-repair seq = %d, want 2", seq)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	assertLogRecords(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertLogRecords(t, l2, 3)
}

func TestLogRepairIdempotent(t *testing.T) {
	_, _, l := faultedLog(t, 1,
		Fault{Op: OpWrite, After: 2, Err: ErrInjectedIO, Times: 1})
	defer l.Close()
	if _, err := l.Append(payloadFor(1)); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("faulted append: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Repair(); err != nil {
			t.Fatalf("repair #%d: %v", i, err)
		}
	}
	if _, err := l.Append(payloadFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	assertLogRecords(t, l, 2)
}

func TestOpenSweepsTmpOrphans(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(payloadFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// An interrupted atomic publication leaves its scratch file behind; the
	// rename never happened, so it holds nothing durable.
	orphan := dir + "/" + ckptTempFile
	if err := os.WriteFile(orphan, []byte("half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with tmp orphan: %v", err)
	}
	defer l2.Close()
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp orphan not swept: stat err=%v", err)
	}
	assertLogRecords(t, l2, 1)
}

func TestFaultOpString(t *testing.T) {
	for op := FaultOp(0); op < numFaultOps; op++ {
		if s := op.String(); s == "" || s == "unknown" {
			t.Fatalf("FaultOp(%d).String() = %q", int(op), s)
		}
	}
	if s := numFaultOps.String(); s != "unknown" {
		t.Fatalf("out-of-range FaultOp String = %q", s)
	}
}

// TestFaultThenCrashComposes runs one schedule holding both fault kinds: a
// transient fsync EIO the log must heal from, then a crash budget that kills
// the process a few bytes into a later append. The log degrades, Repairs,
// keeps appending, dies at the byte, and a restarted process (a fresh OSFS)
// recovers exactly the synced prefix.
func TestFaultThenCrashComposes(t *testing.T) {
	hiccup := Fault{Op: OpSync, After: 2, Err: ErrInjectedIO, Times: 1}
	// healed drives a log through the hiccup: two acked seed records, two
	// unacked appends lost to the failed fsync, Repair, and the same two
	// landed again — four acked records.
	healed := func(faults ...Fault) (string, *FaultFS, *Log) {
		dir, ffs, l := faultedLog(t, 2, faults...)
		appendTwo := func() error {
			for i := 2; i < 4; i++ {
				if _, err := l.Append(payloadFor(i)); err != nil {
					return err
				}
			}
			return l.Sync()
		}
		if err := appendTwo(); !errors.Is(err, ErrInjectedIO) {
			t.Fatalf("faulted sync: %v, want EIO", err)
		}
		if !l.Failed() {
			t.Fatal("log not failed after the fsync fault")
		}
		if err := l.Repair(); err != nil {
			t.Fatalf("repair: %v", err)
		}
		if err := appendTwo(); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		return dir, ffs, l
	}

	// A crash-free pass measures where the healed log stands in mutation
	// units, so the real pass can die a few bytes into the very next append.
	_, ffs, l := healed(hiccup)
	units := ffs.Calls(OpCrash)
	l.Close()

	const torn = 5
	dir, ffs, l := healed(hiccup, Fault{Op: OpCrash, After: units + torn})
	defer l.Close()
	if _, err := l.Append(payloadFor(4)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append past the crash budget: %v, want ErrCrashed", err)
	}
	if got := ffs.Calls(OpCrash); got != units+torn {
		t.Fatalf("died after %d mutation units, want %d", got, units+torn)
	}
	if got := ffs.Injected(); got != 2 {
		t.Fatalf("%d faults fired, want the hiccup and the crash", got)
	}
	// Unlike the hiccup, the crash is final: nothing heals, nothing reads.
	if err := l.Repair(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("repair on a dead filesystem: %v, want ErrCrashed", err)
	}
	if _, err := ffs.ReadDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("readdir on a dead filesystem: %v, want ErrCrashed", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	assertLogRecords(t, l2, 4)
	if seq, err := l2.Append(payloadFor(4)); err != nil || seq != 4 {
		t.Fatalf("append after recovery: seq=%d err=%v, want 4", seq, err)
	}
}
