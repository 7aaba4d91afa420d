package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"kbt/internal/triple"
)

// A checkpoint is a chain: one base file plus zero or more delta files, each
// carrying an ordered list of replayable operations (ingest batches and
// refresh counts). Recovery replays the merged op sequence through the normal
// warm Ingest/Refresh machinery, which reproduces — bit for bit, by
// determinism — the state of the live engine that performed those same ops.
// Appending a delta therefore costs O(ops since the last checkpoint) instead
// of the O(corpus) cold recompile a monolithic record-prefix image forces,
// and the live engine is never re-anchored for it.
//
// Every part is written atomically: payload to a temp file, fsync, rename
// over the final name, directory fsync. A crash at any byte leaves either the
// previous chain or the extended one, never a torn hybrid. Compaction (see
// WriteCheckpointBase) replaces the chain with a single base; delta files it
// obsoletes are removed afterwards, and a crash between the base rename and
// the removals only leaves stale deltas whose watermarks the reader skips.
const (
	// ckptMagic is ckptMagicPrefix plus the two-digit format version. Pre-1.0,
	// a data directory is readable only by the format version that wrote it:
	// parts of any other version are refused, not converted.
	ckptMagic       = "kbtckp03"
	ckptMagicPrefix = "kbtckp"
	// CheckpointFile is the chain's base file name inside the data dir.
	CheckpointFile = "checkpoint"
	ckptTempFile   = "checkpoint.tmp"
	ckptDeltaExt   = ".delta"
	ckptDeltaPref  = "checkpoint-"
)

// CheckpointOp is one replayable state transition: an acknowledged ingest
// batch (possibly empty) followed by Refreshes successful refreshes. Rejected
// batches and markers that could not have produced state are not recorded —
// ops are exactly the transitions the live engine applied.
type CheckpointOp struct {
	Records []triple.Record
	// Table, when set, holds the op's records in place of Records: its rows
	// From up to To. They encode as Records would; a decoded op has Records.
	Table     *triple.Table
	From, To  int
	Refreshes int
	// Key is the client idempotency key the batch carried, if any. Recovery
	// re-seeds its dedup set from these, so a resend that races a restart is
	// still applied exactly once.
	Key string
}

// Checkpoint is the merged durable image of the engine's operation history.
type Checkpoint struct {
	// Watermark is the log sequence the tail replay starts from: every
	// entry below it is covered by Ops.
	Watermark uint64
	// Fingerprint identifies the engine options the ops were applied under;
	// recovery refuses a mismatch, since replaying the same ops under
	// different options would not reproduce the same model.
	Fingerprint string
	// Ops is the replayable operation sequence, in application order. After
	// a compaction it is a single op holding the full record prefix and one
	// refresh — the cold-anchor shape.
	Ops []CheckpointOp
}

// AllRecords flattens the chain's record sequence in ingest order.
func (ck *Checkpoint) AllRecords() []triple.Record {
	n := 0
	for i := range ck.Ops {
		n += len(ck.Ops[i].Records)
	}
	out := make([]triple.Record, 0, n)
	for i := range ck.Ops {
		out = append(out, ck.Ops[i].Records...)
	}
	return out
}

// Batches counts the ingest-batch ops in the chain — the quantity the
// durable engine's compaction cadence bounds, since recovery replay cost
// grows with distinct batches.
func (ck *Checkpoint) Batches() int {
	n := 0
	for i := range ck.Ops {
		if ck.Ops[i].len() > 0 {
			n++
		}
	}
	return n
}

// len is the number of records the op carries.
func (op *CheckpointOp) len() int {
	if op.Table != nil {
		return op.To - op.From
	}
	return len(op.Records)
}

// record returns the op's record j.
func (op *CheckpointOp) record(j int) triple.Record {
	if op.Table != nil {
		return op.Table.Record(op.From + j)
	}
	return op.Records[j]
}

// deltaFileName names the delta part sealed at watermark w.
func deltaFileName(w uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptDeltaPref, w, ckptDeltaExt)
}

// parseDeltaName extracts the watermark a delta file name encodes.
func parseDeltaName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptDeltaPref) || !strings.HasSuffix(name, ckptDeltaExt) {
		return 0, false
	}
	hex := name[len(ckptDeltaPref) : len(name)-len(ckptDeltaExt)]
	if len(hex) != 16 {
		return 0, false
	}
	w, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return w, true
}

// ckptHeaderLen is the part header: magic, payload CRC, payload length.
const ckptHeaderLen = len(ckptMagic) + 4 + 8

// encodeCkptPart encodes one chain part. A base part holds the whole record
// prefix, so it is sized first (one pass over the string lengths) and encoded
// once, into one buffer with the header in front.
func encodeCkptPart(prev uint64, ck *Checkpoint) []byte {
	size := ckptHeaderLen + uvarintLen(prev) + uvarintLen(ck.Watermark) +
		stringLen(ck.Fingerprint) + uvarintLen(uint64(len(ck.Ops)))
	for i := range ck.Ops {
		op := &ck.Ops[i]
		size += uvarintLen(uint64(op.len())) + uvarintLen(uint64(op.Refreshes)) + stringLen(op.Key)
		for j := range op.len() {
			r := op.record(j)
			size += recordLen(&r)
		}
	}

	buf := append(make([]byte, 0, size), ckptMagic...)[:ckptHeaderLen] // CRC and length are filled in last
	buf = binary.AppendUvarint(buf, prev)
	buf = binary.AppendUvarint(buf, ck.Watermark)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Fingerprint)))
	buf = append(buf, ck.Fingerprint...)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Ops)))
	for i := range ck.Ops {
		op := &ck.Ops[i]
		buf = binary.AppendUvarint(buf, uint64(op.len()))
		for j := range op.len() {
			buf = appendRecord(buf, op.record(j))
		}
		buf = binary.AppendUvarint(buf, uint64(op.Refreshes))
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
	}
	payload := buf[ckptHeaderLen:]
	binary.LittleEndian.PutUint32(buf[len(ckptMagic):], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(buf[len(ckptMagic)+4:], uint64(len(payload)))
	return buf
}

// writeCkptFile atomically publishes buf under name in dir.
func writeCkptFile(fsys FS, dir, name string, buf []byte) error {
	tmp := filepath.Join(dir, ckptTempFile)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: sync checkpoint dir: %w", err)
	}
	return nil
}

// WriteCheckpointBase atomically replaces the whole chain with ck as its
// single base part, then removes every delta file the new base covers. The
// removals are crash-safe by construction: a delta whose watermark is at or
// below the base's is skipped by ReadCheckpoint, so an interrupted cleanup
// never corrupts the chain — the next compaction simply removes it again.
func WriteCheckpointBase(fsys FS, dir string, ck *Checkpoint) error {
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := writeCkptFile(fsys, dir, CheckpointFile, encodeCkptPart(0, ck)); err != nil {
		return err
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: list checkpoint deltas: %w", err)
	}
	removed := false
	for _, name := range names {
		if w, ok := parseDeltaName(name); ok && w <= ck.Watermark {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("wal: remove stale delta: %w", err)
			}
			removed = true
		}
	}
	if removed {
		if err := fsys.SyncDir(dir); err != nil {
			return fmt.Errorf("wal: sync checkpoint dir: %w", err)
		}
	}
	return nil
}

// WriteCheckpointDelta atomically appends one delta part to the chain whose
// current watermark is prev. ck carries only the ops since prev and the new
// watermark; its fingerprint must match the chain's.
func WriteCheckpointDelta(fsys FS, dir string, prev uint64, ck *Checkpoint) error {
	if fsys == nil {
		fsys = OSFS{}
	}
	return writeCkptFile(fsys, dir, deltaFileName(ck.Watermark), encodeCkptPart(prev, ck))
}

// ReadCheckpoint loads and merges the chain from dir; ok is false when none
// has ever been published. Damage to a published part is an error — it was
// synced, so unlike a WAL tail there is no unacked suffix to drop. Deltas
// whose watermark does not extend the chain (leftovers of an interrupted
// compaction cleanup) are skipped; a delta that extends it but does not link
// to the chain's watermark is corruption.
func ReadCheckpoint(fsys FS, dir string) (ck *Checkpoint, ok bool, err error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	baseRaw, baseExists, err := readCkptFile(fsys, filepath.Join(dir, CheckpointFile))
	if err != nil {
		return nil, false, err
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) && !baseExists {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("wal: list checkpoint deltas: %w", err)
	}
	type deltaRef struct {
		w    uint64
		name string
	}
	var deltas []deltaRef
	for _, name := range names {
		if w, okName := parseDeltaName(name); okName {
			deltas = append(deltas, deltaRef{w, name})
		}
	}
	if !baseExists {
		if len(deltas) == 0 {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("%w: %d checkpoint delta(s) without a base", ErrCorrupt, len(deltas))
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].w < deltas[j].w })

	prev, ck, err := decodeCkptPart(baseRaw)
	if err != nil {
		return nil, false, err
	}
	if prev != 0 {
		return nil, false, fmt.Errorf("%w: checkpoint base links to watermark %d", ErrCorrupt, prev)
	}
	for _, d := range deltas {
		if d.w <= ck.Watermark {
			continue // obsoleted by a later base; cleanup was interrupted
		}
		raw, exists, err := readCkptFile(fsys, filepath.Join(dir, d.name))
		if err != nil {
			return nil, false, err
		}
		if !exists {
			return nil, false, fmt.Errorf("%w: checkpoint delta %s vanished", ErrCorrupt, d.name)
		}
		dPrev, part, err := decodeCkptPart(raw)
		if err != nil {
			return nil, false, fmt.Errorf("checkpoint delta %s: %w", d.name, err)
		}
		if part.Watermark != d.w {
			return nil, false, fmt.Errorf("%w: delta %s carries watermark %d", ErrCorrupt, d.name, part.Watermark)
		}
		if dPrev != ck.Watermark {
			return nil, false, fmt.Errorf("%w: delta %s links to watermark %d, chain is at %d", ErrCorrupt, d.name, dPrev, ck.Watermark)
		}
		if part.Fingerprint != ck.Fingerprint {
			return nil, false, fmt.Errorf("%w: delta %s fingerprint %q differs from chain %q", ErrCorrupt, d.name, part.Fingerprint, ck.Fingerprint)
		}
		ck.Ops = append(ck.Ops, part.Ops...)
		ck.Watermark = part.Watermark
	}
	return ck, true, nil
}

func readCkptFile(fsys FS, path string) (raw []byte, exists bool, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	defer f.Close()
	raw, err = io.ReadAll(f)
	if err != nil {
		return nil, false, fmt.Errorf("wal: read checkpoint: %w", err)
	}
	return raw, true, nil
}

func decodeCkptPart(raw []byte) (prev uint64, ck *Checkpoint, err error) {
	hdr := ckptHeaderLen
	if len(raw) < hdr {
		return 0, nil, fmt.Errorf("%w: checkpoint header", ErrCorrupt)
	}
	if magic := string(raw[:len(ckptMagic)]); magic != ckptMagic {
		if strings.HasPrefix(magic, ckptMagicPrefix) {
			return 0, nil, fmt.Errorf("wal: checkpoint was written at format version %q, this binary reads only %q (pre-1.0, a data directory is readable only by the version that wrote it)", magic, ckptMagic)
		}
		return 0, nil, fmt.Errorf("%w: checkpoint header", ErrCorrupt)
	}
	sum := binary.LittleEndian.Uint32(raw[len(ckptMagic):])
	plen := binary.LittleEndian.Uint64(raw[len(ckptMagic)+4:])
	payload := raw[hdr:]
	if plen != uint64(len(payload)) {
		return 0, nil, fmt.Errorf("%w: checkpoint length %d, have %d payload bytes", ErrCorrupt, plen, len(payload))
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil, fmt.Errorf("%w: checkpoint CRC mismatch", ErrCorrupt)
	}
	ck = &Checkpoint{}
	prev, payload, err = decodeUvarint(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: checkpoint chain link", ErrCorrupt)
	}
	ck.Watermark, payload, err = decodeUvarint(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: checkpoint watermark", ErrCorrupt)
	}
	ck.Fingerprint, payload, err = decodeString(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: checkpoint fingerprint", ErrCorrupt)
	}
	nOps, payload, err := decodeUvarint(payload)
	// An op encodes to at least 3 bytes (three zero uvarints); an impossible
	// count is rejected before any allocation it would size.
	if err != nil || nOps > uint64(len(payload)/3) {
		return 0, nil, fmt.Errorf("%w: checkpoint op count", ErrCorrupt)
	}
	if nOps > 0 {
		ck.Ops = make([]CheckpointOp, 0, nOps)
	}
	for i := uint64(0); i < nOps; i++ {
		var op CheckpointOp
		var nRecs uint64
		nRecs, payload, err = decodeUvarint(payload)
		if err != nil || nRecs > uint64(len(payload)/15) {
			return 0, nil, fmt.Errorf("%w: checkpoint op %d record count", ErrCorrupt, i)
		}
		if nRecs > 0 {
			op.Records = make([]triple.Record, 0, nRecs)
		}
		for j := uint64(0); j < nRecs; j++ {
			var rec triple.Record
			rec, payload, err = decodeRecord(payload)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: checkpoint op %d record %d", ErrCorrupt, i, j)
			}
			op.Records = append(op.Records, rec)
		}
		var refreshes uint64
		refreshes, payload, err = decodeUvarint(payload)
		if err != nil || refreshes > uint64(len(raw)) {
			return 0, nil, fmt.Errorf("%w: checkpoint op %d refresh count", ErrCorrupt, i)
		}
		op.Refreshes = int(refreshes)
		op.Key, payload, err = decodeString(payload)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: checkpoint op %d key", ErrCorrupt, i)
		}
		ck.Ops = append(ck.Ops, op)
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorrupt, len(payload))
	}
	return prev, ck, nil
}
