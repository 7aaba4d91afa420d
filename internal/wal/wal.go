package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrCorrupt reports damage in a sealed region of the log — bytes that a
// successful Sync (or a later segment's creation) promised were durable.
// Torn tails of the active segment are repaired silently; sealed corruption
// is unrecoverable and must stop recovery rather than resurrect a prefix
// that silently drops acknowledged records.
var ErrCorrupt = errors.New("wal: corrupt segment")

// ErrFailed reports that a previous append or sync failed and the log's tail
// may be torn. The log refuses further appends until Repair succeeds — the
// invariant "never append after an unrepaired tail" is enforced here, not
// just in the engine above.
var ErrFailed = errors.New("wal: log failed, repair required")

const (
	segMagic   = "kbtwal01"
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	recHdrSize = 8 // u32 length + u32 CRC32-Castagnoli
)

// MaxRecordBytes bounds a single record. Append refuses a larger payload
// before writing anything, and a length prefix above it is treated as
// torn/corrupt instead of allocated.
const MaxRecordBytes = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// SegmentBytes rolls to a new segment once the active one reaches this
	// size (default 4 MiB).
	SegmentBytes int64
	// NoSync skips every fsync. Benchmarks and tests only: a crash can then
	// tear acknowledged records.
	NoSync bool
	// FS is the filesystem (default OSFS).
	FS FS
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
}

// segment is one on-disk file of the log.
type segment struct {
	name  string
	base  uint64 // sequence number of its first record
	count uint64 // records it holds
	size  int64  // its bytes, when sealed (Log.size is the active one's)
}

// Log is an append-only segmented record log. Append/Sync/TruncateBefore/
// Close are safe for use by one writer goroutine; Replay may run on any
// goroutine but reads committed segments only, so callers coordinate it with
// concurrent appends themselves (the durable engine serialises both).
type Log struct {
	dir  string
	opt  Options
	segs []segment // ascending by base; last is active
	f    File      // active segment, positioned at its end
	size int64     // bytes in the active segment
	seq  uint64    // sequence number of the next record
	// dirty marks unsynced appends; sync state is what separates a torn
	// tail (repairable) from sealed corruption (fatal).
	dirty bool
	// failed is set when an append or sync errors: the active tail may hold
	// torn bytes, so appends are refused until Repair restores the synced
	// prefix. synced/syncedSeq/syncedCount describe that prefix — the state
	// as of the last successful Sync (or segment creation).
	failed      bool
	synced      int64
	syncedSeq   uint64
	syncedCount uint64
}

// Open opens (or creates) the log in dir, verifying every sealed segment and
// truncating the active segment's torn tail, if any. The repair is
// deterministic and idempotent: the surviving records are exactly the valid
// prefix of the active segment, so two opens of the same bytes agree.
func Open(dir string, opt Options) (*Log, error) {
	opt.fill()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	names, err := opt.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	l := &Log{dir: dir, opt: opt}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// Orphaned scratch file from an interrupted atomic publication
			// (e.g. a checkpoint write cut short by ENOSPC). The rename never
			// happened, so it holds nothing durable; sweep it rather than
			// leak disk across restarts.
			if err := opt.FS.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: sweep orphaned tmp %s: %w", name, err)
			}
			continue
		}
		base, ok := parseSegName(name)
		if !ok {
			continue
		}
		l.segs = append(l.segs, segment{name: name, base: base})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].base < l.segs[j].base })

	if len(l.segs) == 0 {
		if err := l.createSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	for i := range l.segs {
		last := i == len(l.segs)-1
		if err := l.openSegment(i, last); err != nil {
			return nil, err
		}
		if !last && l.segs[i].base+l.segs[i].count != l.segs[i+1].base {
			return nil, fmt.Errorf("%w: segment %s holds %d records but %s starts at seq %d",
				ErrCorrupt, l.segs[i].name, l.segs[i].count, l.segs[i+1].name, l.segs[i+1].base)
		}
	}
	active := l.segs[len(l.segs)-1]
	l.seq = active.base + active.count
	l.noteSynced()
	return l, nil
}

// noteSynced records the current tail as the durable prefix — called after a
// successful Sync, segment creation, or open-time repair.
func (l *Log) noteSynced() {
	l.synced = l.size
	l.syncedSeq = l.seq
	l.syncedCount = l.segs[len(l.segs)-1].count
}

// parseSegName extracts the base sequence from wal-%016x.seg.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	base, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

func segName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix)
}

// createSegment starts a fresh active segment whose first record will be seq.
// The magic and the directory entry are synced before the segment accepts
// appends, so a later torn magic can only mean external damage.
func (l *Log) createSegment(seq uint64) error {
	name := segName(seq)
	f, err := l.opt.FS.OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write magic: %w", err)
	}
	if err := l.syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return err
	}
	l.segs = append(l.segs, segment{name: name, base: seq})
	l.f = f
	l.size = int64(len(segMagic))
	l.seq = seq
	l.noteSynced()
	return nil
}

// openSegment scans segment i, counting its records. The last (active)
// segment is opened read-write and repaired: its valid prefix survives, the
// torn tail is truncated, and the file is left positioned for appends. A
// sealed segment must scan cleanly end to end.
func (l *Log) openSegment(i int, last bool) error {
	seg := &l.segs[i]
	path := filepath.Join(l.dir, seg.name)
	flag := os.O_RDONLY
	if last {
		flag = os.O_RDWR
	}
	f, err := l.opt.FS.OpenFile(path, flag, 0)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	count, validLen, serr := scanSegment(f, nil)
	if !last {
		defer f.Close()
		if serr != nil {
			return fmt.Errorf("%w: sealed segment %s: %v", ErrCorrupt, seg.name, serr)
		}
		seg.count, seg.size = count, validLen
		return nil
	}
	if serr != nil {
		if validLen == 0 && count == 0 {
			// The magic itself is short or wrong. A short file is a torn
			// creation (the roll crashed before the magic synced — nothing
			// was ever appended); rewrite it. A full-length bad magic means
			// the synced header was damaged afterwards.
			end, err := f.Seek(0, io.SeekEnd)
			if err != nil {
				f.Close()
				return fmt.Errorf("wal: seek: %w", err)
			}
			if end >= int64(len(segMagic)) {
				f.Close()
				return fmt.Errorf("%w: segment %s has an invalid magic", ErrCorrupt, seg.name)
			}
			if err := f.Truncate(0); err != nil {
				f.Close()
				return fmt.Errorf("wal: reset torn segment: %w", err)
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				f.Close()
				return fmt.Errorf("wal: seek: %w", err)
			}
			if _, err := f.Write([]byte(segMagic)); err != nil {
				f.Close()
				return fmt.Errorf("wal: rewrite magic: %w", err)
			}
			validLen = int64(len(segMagic))
		} else {
			// Torn record tail: drop it. Only unsynced bytes can be torn,
			// so nothing acknowledged is lost.
			if err := f.Truncate(validLen); err != nil {
				f.Close()
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		if err := l.syncFile(f); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: seek: %w", err)
	}
	seg.count = count
	l.f = f
	l.size = validLen
	return nil
}

// scanSegment reads records from the segment's start, invoking fn (when
// non-nil) with each payload, and returns the record count and the byte
// length of the valid prefix. A non-nil error describes why the scan stopped
// early — a torn tail on the active segment, corruption on a sealed one; the
// count/validLen cover the records before the damage either way.
func scanSegment(r io.Reader, fn func(payload []byte) error) (uint64, int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, fmt.Errorf("short magic: %w", err)
	}
	if string(magic) != segMagic {
		return 0, 0, errors.New("bad magic")
	}
	var (
		count    uint64
		validLen = int64(len(segMagic))
		hdr      [recHdrSize]byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return count, validLen, nil // clean end
			}
			return count, validLen, fmt.Errorf("short record header: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordBytes {
			return count, validLen, fmt.Errorf("record length %d exceeds limit %d", n, MaxRecordBytes)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return count, validLen, fmt.Errorf("short record payload: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return count, validLen, errors.New("record CRC mismatch")
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return count, validLen, err
			}
		}
		count++
		validLen += recHdrSize + int64(n)
	}
}

// NextSeq returns the sequence number the next Append will be assigned —
// the checkpoint watermark of "everything appended so far".
func (l *Log) NextSeq() uint64 { return l.seq }

// Append frames and writes one record, returning its sequence number. The
// record is not durable — must not be acknowledged — until the next Sync
// returns; batching several Appends per Sync is the group-commit path that
// keeps fsync off the per-record critical path.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.failed {
		return 0, ErrFailed
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes %d", len(payload), MaxRecordBytes)
	}
	if l.size >= l.opt.SegmentBytes && l.size > int64(len(segMagic)) {
		if err := l.roll(); err != nil {
			l.failed = true
			return 0, err
		}
	}
	buf := make([]byte, recHdrSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[recHdrSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		// The write may have landed a torn prefix; the file position is no
		// longer trustworthy. Poison the log until Repair truncates back to
		// the synced prefix.
		l.failed = true
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(buf))
	seq := l.seq
	l.seq++
	l.segs[len(l.segs)-1].count++
	l.dirty = true
	return seq, nil
}

// Sync makes every prior Append durable — the acknowledgement barrier.
func (l *Log) Sync() error {
	if l.failed {
		return ErrFailed
	}
	if !l.dirty {
		return nil
	}
	if err := l.syncFile(l.f); err != nil {
		// A failed fsync may have dropped any subset of the dirty pages;
		// retrying fsync proves nothing. The unsynced tail must be rewound.
		l.failed = true
		return err
	}
	l.dirty = false
	l.noteSynced()
	return nil
}

// roll seals the active segment and starts the next one. The old segment is
// synced first so the sealed-segments-scan-cleanly invariant holds: a sealed
// segment never has unsynced bytes to tear.
func (l *Log) roll() error {
	if err := l.Sync(); err != nil {
		return err
	}
	l.segs[len(l.segs)-1].size = l.size
	err := l.f.Close()
	// The segment was synced above, so it is sealed whatever Close says;
	// dropping the handle either way lets Repair recreate the next segment
	// instead of retrying operations on a half-closed file.
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return l.createSegment(l.seq)
}

// Failed reports whether the log has refused appends pending Repair.
func (l *Log) Failed() bool { return l.failed }

// Repair restores the log after a failed append, sync, or roll: the active
// segment is truncated back to its synced prefix (discarding any torn or
// unsynced bytes — nothing there was ever acknowledged) and the sequence
// state is rewound to match, so the next Append lands exactly where the
// durable history ends. Repair is idempotent; on success the log accepts
// appends again.
func (l *Log) Repair() error {
	if !l.failed {
		return nil
	}
	if l.f == nil {
		// A roll died between sealing the old segment and establishing the
		// new one. The new segment file may or may not exist (possibly with
		// a torn magic); remove any remnant and recreate it from scratch.
		path := filepath.Join(l.dir, segName(l.syncedSeq))
		if err := l.opt.FS.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: repair: remove torn segment: %w", err)
		}
		if err := l.createSegment(l.syncedSeq); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
		l.dirty = false
		l.failed = false
		return nil
	}
	if err := l.f.Truncate(l.synced); err != nil {
		return fmt.Errorf("wal: repair: truncate: %w", err)
	}
	if _, err := l.f.Seek(l.synced, io.SeekStart); err != nil {
		return fmt.Errorf("wal: repair: seek: %w", err)
	}
	if err := l.syncFile(l.f); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	l.size = l.synced
	l.seq = l.syncedSeq
	l.segs[len(l.segs)-1].count = l.syncedCount
	l.dirty = false
	l.failed = false
	return nil
}

// Replay streams the payloads of every record with sequence >= from, in
// order, to fn. Records below the checkpoint watermark in a partially
// covered segment are skipped by sequence, so TruncateBefore only ever needs
// to delete whole segments.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	if err := l.Sync(); err != nil {
		return err
	}
	for _, seg := range l.segs {
		if seg.base+seg.count <= from {
			continue
		}
		f, err := l.opt.FS.OpenFile(filepath.Join(l.dir, seg.name), os.O_RDONLY, 0)
		if err != nil {
			return fmt.Errorf("wal: open segment for replay: %w", err)
		}
		next := seg.base
		count, _, serr := scanSegment(f, func(payload []byte) error {
			seq := next
			next++
			if seq < from {
				return nil
			}
			return fn(seq, payload)
		})
		f.Close()
		if serr != nil {
			return serr
		}
		if count != seg.count {
			return fmt.Errorf("%w: segment %s replayed %d records, expected %d", ErrCorrupt, seg.name, count, seg.count)
		}
	}
	return nil
}

// TruncateBefore garbage-collects segments every record of which is below
// seq — the log-trimming step after a checkpoint at watermark seq. The
// active segment always survives (it carries the next-sequence state), so a
// partially covered segment's sub-watermark records are skipped by Replay
// instead of deleted.
func (l *Log) TruncateBefore(seq uint64) error {
	keepFrom := 0
	for i := 0; i < len(l.segs)-1; i++ {
		if l.segs[i+1].base <= seq {
			keepFrom = i + 1
		}
	}
	if keepFrom == 0 {
		return nil
	}
	for i := 0; i < keepFrom; i++ {
		if err := l.opt.FS.Remove(filepath.Join(l.dir, l.segs[i].name)); err != nil {
			// Drop what was removed so far and keep the rest: the surviving
			// set stays a contiguous suffix, and a later TruncateBefore (or
			// the next Open) retries the remainder.
			l.segs = append([]segment(nil), l.segs[i:]...)
			return fmt.Errorf("wal: remove covered segment: %w", err)
		}
	}
	l.segs = append([]segment(nil), l.segs[keepFrom:]...)
	return l.syncDir()
}

// Segments returns the number of on-disk segment files.
func (l *Log) Segments() int { return len(l.segs) }

// Bytes returns the size of the log on disk: the bytes of every segment file,
// the active one's unsynced appends included.
func (l *Log) Bytes() int64 {
	n := l.size
	for _, seg := range l.segs[:len(l.segs)-1] {
		n += seg.size
	}
	return n
}

// Close syncs and closes the active segment. A failed log skips the sync —
// its tail is already poisoned and a close-time fsync cannot unpoison it.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var serr error
	if !l.failed {
		serr = l.Sync()
	}
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

func (l *Log) syncFile(f File) error {
	if l.opt.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

func (l *Log) syncDir() error {
	if l.opt.NoSync {
		return nil
	}
	if err := l.opt.FS.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}
