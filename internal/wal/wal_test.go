package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kbt/internal/triple"
)

// collect replays the whole log into a payload slice.
func collect(t *testing.T, l *Log, from uint64) ([][]byte, []uint64) {
	t.Helper()
	var payloads [][]byte
	var seqs []uint64
	if err := l.Replay(from, func(seq uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return payloads, seqs
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("payload-%03d", i))
		want = append(want, p)
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, seqs := collect(t, l, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: got %d payloads", len(got))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("seq[%d] = %d", i, s)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same contents, NextSeq carries on.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 100 {
		t.Fatalf("NextSeq after reopen = %d, want 100", l2.NextSeq())
	}
	got2, _ := collect(t, l2, 0)
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("reopened replay mismatch")
	}
	// Replay from a mid watermark skips exactly the covered prefix.
	tail, tailSeqs := collect(t, l2, 40)
	if !reflect.DeepEqual(tail, want[40:]) {
		t.Fatal("watermark replay mismatch")
	}
	if tailSeqs[0] != 40 {
		t.Fatalf("first tail seq = %d", tailSeqs[0])
	}
}

func TestLogSegmentRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rolls every few records.
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf("roll-%02d", i))
		want = append(want, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 3 {
		t.Fatalf("expected several segments, got %d", l.Segments())
	}
	got, _ := collect(t, l, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("multi-segment replay mismatch")
	}

	// Truncating at a watermark drops fully covered segments but never the
	// tail needed to replay from the watermark.
	before := l.Segments()
	if err := l.TruncateBefore(20); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= before {
		t.Fatalf("TruncateBefore removed nothing (%d -> %d segments)", before, l.Segments())
	}
	tail, seqs := collect(t, l, 20)
	if !reflect.DeepEqual(tail, want[20:]) {
		t.Fatal("post-truncate replay mismatch")
	}
	if seqs[0] != 20 {
		t.Fatalf("post-truncate first seq = %d", seqs[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 40 {
		t.Fatalf("NextSeq after truncate+reopen = %d", l2.NextSeq())
	}
}

// corruptLastSegment flips a byte inside the given record of the last
// segment file, returning the path.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range names {
		if _, ok := parseSegName(e.Name()); ok {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

func TestOpenTruncatesTornTail(t *testing.T) {
	for _, cut := range []int{1, 3, recHdrSize, recHdrSize + 2} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := lastSegmentPath(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Simulate a torn append: part of a sixth record reached disk.
			torn := append(append([]byte(nil), raw...), bytes.Repeat([]byte{0xAB}, cut)...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			got, _ := collect(t, l2, 0)
			if len(got) != 5 {
				t.Fatalf("torn-tail open kept %d records, want 5", len(got))
			}
			if l2.NextSeq() != 5 {
				t.Fatalf("NextSeq = %d", l2.NextSeq())
			}
			// The repair is physical: the file is back to its pre-tear bytes.
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(repaired, raw) {
				t.Fatal("torn tail not truncated to the valid prefix")
			}
			// Appends continue seamlessly after the repair.
			if _, err := l2.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			got3, _ := collect(t, l3, 0)
			if len(got3) != 6 || string(got3[5]) != "after" {
				t.Fatalf("post-repair append lost: %d records", len(got3))
			}
		})
	}
}

func TestOpenDetectsCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("victim-record-payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := lastSegmentPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record: CRC now mismatches, so the
	// first record and everything after it must be dropped as a tear — the
	// active segment cannot distinguish decay from a torn rewrite, but it
	// must never serve bytes that fail their checksum.
	raw[len(segMagic)+recHdrSize+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ := collect(t, l2, 0)
	if len(got) != 0 {
		t.Fatalf("CRC-corrupt record served: %d records", len(got))
	}
}

func TestOpenRejectsSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("sealed-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the FIRST (sealed) segment.
	first := filepath.Join(dir, segName(0))
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 32}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed corruption not detected: %v", err)
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	recs := []triple.Record{
		{Extractor: "E1", Pattern: "p", Website: "w.com", Page: "w.com/1",
			Subject: "s", Predicate: "pr", Object: "o", Confidence: 0.75},
		{Extractor: "E2", Website: "x.org", Page: "x.org/2",
			Subject: "s2", Predicate: "pr2", Object: "o2"},
		{Extractor: "tab\tsep", Pattern: "nl\n", Website: "w",
			Page: "p", Subject: "\x00bin", Predicate: "q", Object: "r",
			Confidence: math.SmallestNonzeroFloat64},
	}
	ent, err := DecodeEntry(EncodeBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	if ent.Kind != EntryBatch || !reflect.DeepEqual(ent.Records, recs) {
		t.Fatalf("batch round trip mismatch: %+v", ent)
	}
	ent, err = DecodeEntry(EncodeRefresh())
	if err != nil || ent.Kind != EntryRefresh || ent.Records != nil {
		t.Fatalf("refresh round trip: %+v, %v", ent, err)
	}
	for _, bad := range [][]byte{
		nil,
		{0},
		{9, 1, 2},
		{EntryRefresh, 0xFF},
		append([]byte{EntryBatch}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
		append([]byte(nil), EncodeBatch(recs)[:10]...),
		append(EncodeBatch(recs), 0xAA),
	} {
		if _, err := DecodeEntry(bad); err == nil {
			t.Fatalf("DecodeEntry(%x) accepted malformed input", bad)
		}
	}
}

func TestCheckpointChainRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCheckpoint(nil, dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	rec := func(i int) triple.Record {
		return triple.Record{Extractor: "E", Website: "w", Page: "p", Subject: fmt.Sprintf("s%d", i),
			Predicate: "q", Object: "o", Confidence: 0.5}
	}
	base := &Checkpoint{
		Watermark:   42,
		Fingerprint: "gran=website shards=8",
		Ops: []CheckpointOp{
			{Records: []triple.Record{rec(0), rec(1)}, Refreshes: 1},
			{Refreshes: 2},
		},
	}
	if err := WriteCheckpointBase(nil, dir, base); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("checkpoint base round trip mismatch: %+v", got)
	}
	// A part is sized before it is encoded and fills its one buffer exactly,
	// two-byte length prefixes included.
	long := &Checkpoint{Watermark: 1 << 40, Fingerprint: strings.Repeat("f", 200),
		Ops: []CheckpointOp{{Records: []triple.Record{rec(0)}, Refreshes: 300, Key: strings.Repeat("k", 130)}}}
	for _, ck := range []*Checkpoint{base, long} {
		if part := encodeCkptPart(7, ck); len(part) != cap(part) {
			t.Fatalf("checkpoint part of %d bytes was sized %d", len(part), cap(part))
		}
	}
	// Append two deltas: the read merges ops and advances the watermark.
	d1 := &Checkpoint{Watermark: 50, Fingerprint: base.Fingerprint,
		Ops: []CheckpointOp{{Records: []triple.Record{rec(2)}, Refreshes: 1}}}
	if err := WriteCheckpointDelta(nil, dir, 42, d1); err != nil {
		t.Fatal(err)
	}
	d2 := &Checkpoint{Watermark: 61, Fingerprint: base.Fingerprint,
		Ops: []CheckpointOp{{Records: []triple.Record{rec(3)}, Refreshes: 1}}}
	if err := WriteCheckpointDelta(nil, dir, 50, d2); err != nil {
		t.Fatal(err)
	}
	merged, ok, err := ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("merged read: ok=%v err=%v", ok, err)
	}
	if merged.Watermark != 61 || len(merged.Ops) != 4 || merged.Batches() != 3 {
		t.Fatalf("merged chain: watermark=%d ops=%d batches=%d", merged.Watermark, len(merged.Ops), merged.Batches())
	}
	if want := []triple.Record{rec(0), rec(1), rec(2), rec(3)}; !reflect.DeepEqual(merged.AllRecords(), want) {
		t.Fatalf("merged records: %+v", merged.AllRecords())
	}
	// A broken chain link is corruption, not silent truncation.
	dBad := &Checkpoint{Watermark: 70, Fingerprint: base.Fingerprint,
		Ops: []CheckpointOp{{Refreshes: 1}}}
	if err := WriteCheckpointDelta(nil, dir, 55, dBad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(nil, dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("broken chain link not detected: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, deltaFileName(70))); err != nil {
		t.Fatal(err)
	}
	// Compaction replaces the chain and removes covered deltas; a delta at
	// or below the new base watermark left behind by a crash is skipped.
	compacted := &Checkpoint{Watermark: 61, Fingerprint: base.Fingerprint,
		Ops: []CheckpointOp{{Records: merged.AllRecords(), Refreshes: 1}}}
	if err := WriteCheckpointBase(nil, dir, compacted); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if _, isDelta := parseDeltaName(e.Name()); isDelta {
			t.Fatalf("compaction left delta %s behind", e.Name())
		}
	}
	got2, _, err := ReadCheckpoint(nil, dir)
	if err != nil || !reflect.DeepEqual(got2, compacted) {
		t.Fatalf("compacted read: %+v, %v", got2, err)
	}
	// A stale delta (watermark <= base) reappearing is tolerated and skipped.
	if err := WriteCheckpointDelta(nil, dir, 42, d1); err != nil {
		t.Fatal(err)
	}
	got3, _, err := ReadCheckpoint(nil, dir)
	if err != nil || !reflect.DeepEqual(got3, compacted) {
		t.Fatalf("stale delta not skipped: %+v, %v", got3, err)
	}
	// Flip one payload byte: the published checkpoint was synced, so damage
	// is corruption, not a tear.
	path := filepath.Join(dir, CheckpointFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(nil, dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpoint not detected: %v", err)
	}
	// A part of another format version is not damage: it is refused by the
	// version policy, naming the version found and the one read. A magic
	// outside the family is still corruption.
	raw[len(raw)-1] ^= 0x01
	copy(raw, "kbtckp02")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadCheckpoint(nil, dir)
	if err == nil || errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), `"kbtckp02"`) || !strings.Contains(err.Error(), `"`+ckptMagic+`"`) {
		t.Fatalf("older-format checkpoint: got %v, want a version error naming both formats", err)
	}
	copy(raw, "notakbt!")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(nil, dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown magic not detected as corruption: %v", err)
	}
	// A delta with no base at all is likewise corruption.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(nil, dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("orphan delta not detected: %v", err)
	}
}

func TestKeyedAndProbeEntryCodec(t *testing.T) {
	recs := []triple.Record{
		{Extractor: "E1", Website: "w.com", Page: "w.com/1",
			Subject: "s", Predicate: "pr", Object: "o", Confidence: 0.5},
	}
	ent, err := DecodeEntry(EncodeKeyedBatch("client-key-1", recs))
	if err != nil {
		t.Fatal(err)
	}
	if ent.Kind != EntryKeyedBatch || ent.Key != "client-key-1" || !reflect.DeepEqual(ent.Records, recs) {
		t.Fatalf("keyed batch round trip: %+v", ent)
	}
	// An empty key degrades to a plain batch — old readers replay it fine.
	ent, err = DecodeEntry(EncodeKeyedBatch("", recs))
	if err != nil || ent.Kind != EntryBatch || ent.Key != "" {
		t.Fatalf("empty-key batch: %+v, %v", ent, err)
	}
	ent, err = DecodeEntry(EncodeProbe())
	if err != nil || ent.Kind != EntryProbe || ent.Key != "" || ent.Records != nil {
		t.Fatalf("probe round trip: %+v, %v", ent, err)
	}
	for _, bad := range [][]byte{
		{EntryProbe, 0x00},              // probe with trailing bytes
		{EntryKeyedBatch, 0x00, 0x00},   // keyed batch with an empty key
		{EntryKeyedBatch, 0x05, 'a'},    // key length past the payload
		EncodeKeyedBatch("k", recs)[:6], // truncated mid-key/batch
	} {
		if _, err := DecodeEntry(bad); err == nil {
			t.Fatalf("DecodeEntry(%x) accepted malformed input", bad)
		}
	}
}

func TestCheckpointOpKeyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := &Checkpoint{
		Watermark:   3,
		Fingerprint: "fp",
		Ops: []CheckpointOp{
			{Records: []triple.Record{{Extractor: "E", Website: "w", Page: "p",
				Subject: "s", Predicate: "q", Object: "o"}}, Key: "idem-1"},
			{Refreshes: 1},
		},
	}
	if err := WriteCheckpointBase(nil, dir, base); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpoint(nil, dir)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("keyed checkpoint round trip mismatch: %+v", got)
	}
}
