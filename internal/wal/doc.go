// Package wal provides the durability substrate of the serving engine: an
// append-only segmented ingest log plus atomic checkpoint blobs, both
// CRC-checksummed, with a filesystem seam for crash-injection testing.
//
// The log stores opaque payload records, framed as
//
//	[u32 payload length][u32 CRC32-Castagnoli(payload)][payload]
//
// inside segment files named wal-<first seq, hex>.seg, each starting with an
// 8-byte magic. Records are assigned dense sequence numbers. Append buffers
// in the OS; Sync is the group-commit barrier — a record is durable (and may
// be acknowledged upstream) only once a Sync after its Append returned.
//
// Opening a log repairs the torn tail a crash can leave: the last segment is
// scanned record by record and truncated at the first short header, short
// payload, over-long length or CRC mismatch. Only unsynced — hence unacked —
// bytes can be torn, so truncation never drops acknowledged data; the same
// damage in a non-final segment (which was sealed by a later segment's
// creation) is real corruption and fails Open with ErrCorrupt. Repair is
// deterministic: reopening an already-repaired log changes nothing.
//
// Checkpoints (WriteCheckpoint/ReadCheckpoint) persist a record prefix and a
// log watermark atomically (temp file, fsync, rename, directory fsync).
// Recovery loads the checkpoint and replays only log records at or past the
// watermark; TruncateBefore then garbage-collects fully covered segments.
//
// All file access goes through the FS interface. OSFS is the real
// implementation; FaultFS wraps any FS with a fault schedule — transient or
// persistent per-operation errors, and a byte/operation budget after which
// every operation fails, simulating a crash at an exact write offset — the
// one injection harness behind the fault-healing and kill-at-any-point
// recovery tests.
package wal
