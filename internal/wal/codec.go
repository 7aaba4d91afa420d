package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"kbt/internal/triple"
)

// The log stores opaque payloads; this file defines the payloads the durable
// engine writes — its replayable state transitions:
//
//	EntryBatch      one acknowledged Ingest batch (the records themselves)
//	EntryRefresh    one Refresh call (a marker; replay re-runs the refresh)
//	EntryProbe      a health-probe no-op (ignored by replay)
//	EntryKeyedBatch an Ingest batch carrying a client idempotency key
//
// Strings are uvarint-length-prefixed raw bytes; confidences are IEEE-754
// bits, little-endian. Decoding is hardened against arbitrary bytes (the
// fuzz target feeds it the WAL reader's output): every length is checked
// against the remaining input before any allocation, and trailing garbage is
// an error rather than silently ignored.
const (
	EntryBatch      byte = 1
	EntryRefresh    byte = 2
	EntryProbe      byte = 3
	EntryKeyedBatch byte = 4
)

// Entry is one decoded log payload.
type Entry struct {
	Kind    byte
	Key     string          // EntryKeyedBatch only: client idempotency key
	Records []triple.Record // EntryBatch / EntryKeyedBatch only
}

// EncodeBatch encodes an ingest batch entry.
func EncodeBatch(recs []triple.Record) []byte {
	buf := []byte{EntryBatch}
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = appendRecord(buf, recs[i])
	}
	return buf
}

// EncodeKeyedBatch encodes an ingest batch tagged with a client idempotency
// key. An empty key degrades to the plain batch encoding, so unkeyed clients
// pay nothing.
func EncodeKeyedBatch(key string, recs []triple.Record) []byte {
	if key == "" {
		return EncodeBatch(recs)
	}
	buf := []byte{EntryKeyedBatch}
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = appendRecord(buf, recs[i])
	}
	return buf
}

// EncodeRefresh encodes a refresh-marker entry.
func EncodeRefresh() []byte { return []byte{EntryRefresh} }

// EncodeProbe encodes a health-probe entry: an append+fsync round-trip that
// proves the disk is writable again. Replay skips it.
func EncodeProbe() []byte { return []byte{EntryProbe} }

// DecodeEntry parses one log payload. It never panics on malformed input.
func DecodeEntry(b []byte) (Entry, error) {
	if len(b) == 0 {
		return Entry{}, errors.New("wal: empty entry")
	}
	kind, rest := b[0], b[1:]
	switch kind {
	case EntryRefresh:
		if len(rest) != 0 {
			return Entry{}, fmt.Errorf("wal: refresh entry carries %d trailing bytes", len(rest))
		}
		return Entry{Kind: EntryRefresh}, nil
	case EntryProbe:
		if len(rest) != 0 {
			return Entry{}, fmt.Errorf("wal: probe entry carries %d trailing bytes", len(rest))
		}
		return Entry{Kind: EntryProbe}, nil
	case EntryBatch, EntryKeyedBatch:
		var key string
		var err error
		if kind == EntryKeyedBatch {
			key, rest, err = decodeString(rest)
			if err != nil {
				return Entry{}, fmt.Errorf("wal: batch key: %w", err)
			}
			if key == "" {
				return Entry{}, errors.New("wal: keyed batch with empty key")
			}
		}
		n, rest, err := decodeUvarint(rest)
		if err != nil {
			return Entry{}, fmt.Errorf("wal: batch count: %w", err)
		}
		// A record encodes to at least 15 bytes (seven empty strings plus
		// the confidence); an impossible count is rejected before any
		// allocation it would size.
		if n > uint64(len(rest)/15) {
			return Entry{}, fmt.Errorf("wal: batch count %d exceeds payload capacity", n)
		}
		recs := make([]triple.Record, 0, n)
		for i := uint64(0); i < n; i++ {
			var rec triple.Record
			rec, rest, err = decodeRecord(rest)
			if err != nil {
				return Entry{}, fmt.Errorf("wal: batch record %d: %w", i, err)
			}
			recs = append(recs, rec)
		}
		if len(rest) != 0 {
			return Entry{}, fmt.Errorf("wal: batch entry carries %d trailing bytes", len(rest))
		}
		return Entry{Kind: kind, Key: key, Records: recs}, nil
	default:
		return Entry{}, fmt.Errorf("wal: unknown entry kind %d", kind)
	}
}

func appendRecord(buf []byte, r triple.Record) []byte {
	for _, s := range [...]string{r.Extractor, r.Pattern, r.Website, r.Page, r.Subject, r.Predicate, r.Object} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Confidence))
}

// The encoded sizes of a uvarint, a length-prefixed string and a record.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func recordLen(r *triple.Record) int {
	return 8 + stringLen(r.Extractor) + stringLen(r.Pattern) + stringLen(r.Website) + stringLen(r.Page) +
		stringLen(r.Subject) + stringLen(r.Predicate) + stringLen(r.Object)
}

func decodeRecord(b []byte) (triple.Record, []byte, error) {
	var fields [7]string
	var err error
	for i := range fields {
		fields[i], b, err = decodeString(b)
		if err != nil {
			return triple.Record{}, nil, err
		}
	}
	if len(b) < 8 {
		return triple.Record{}, nil, errors.New("short confidence")
	}
	conf := math.Float64frombits(binary.LittleEndian.Uint64(b))
	return triple.Record{
		Extractor: fields[0], Pattern: fields[1],
		Website: fields[2], Page: fields[3],
		Subject: fields[4], Predicate: fields[5], Object: fields[6],
		Confidence: conf,
	}, b[8:], nil
}

func decodeString(b []byte) (string, []byte, error) {
	n, rest, err := decodeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("bad uvarint")
	}
	return v, b[n:], nil
}
