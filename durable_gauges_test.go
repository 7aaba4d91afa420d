package kbt

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
	"weak"

	"kbt/internal/triple"
	"kbt/internal/websim"
)

// segmentFileBytes sums the sizes of the log's segment files in dir.
func segmentFileBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestDurableLogBytesAndCheckpointAge pins the two storage gauges of
// HealthStatus. LogBytes is the size of every segment file on disk: it grows
// with each ingest, across a segment roll, and falls when a checkpoint
// truncates the segments it covers. CheckpointAge runs on the engine's clock
// from the last checkpoint this process completed, and is zero before the
// first; a restart starts it over.
func TestDurableLogBytesAndCheckpointAge(t *testing.T) {
	opt := durableTestOptions()
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	dopt := DurableOptions{segmentBytes: 256, now: func() time.Time { return now }}
	d, err := OpenDurable(dir, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, wantAge time.Duration) {
		t.Helper()
		h := d.Health()
		if disk := segmentFileBytes(t, dir); h.LogBytes != disk {
			t.Fatalf("%s: LogBytes = %d, the segment files hold %d", when, h.LogBytes, disk)
		}
		if h.CheckpointAge != wantAge {
			t.Fatalf("%s: CheckpointAge = %v, want %v", when, h.CheckpointAge, wantAge)
		}
	}
	check("fresh", 0)
	prev := d.Health().LogBytes
	for b := 0; b < 4; b++ {
		if err := d.Ingest(durableBatch(5*b, 5)...); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
		check(fmt.Sprintf("batch %d", b), 0)
		if got := d.Health().LogBytes; got <= prev {
			t.Fatalf("batch %d: LogBytes %d did not grow from %d", b, got, prev)
		}
		prev = d.Health().LogBytes
	}
	if n := d.log.Segments(); n < 2 {
		t.Fatalf("%d log segments, want the ingests to roll at least once", n)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("at the checkpoint", 0)
	if got := d.Health().LogBytes; got >= prev {
		t.Fatalf("LogBytes = %d after the checkpoint truncated the covered segments, %d before", got, prev)
	}
	now = now.Add(1500 * time.Millisecond)
	check("1.5 s after the checkpoint", 1500*time.Millisecond)
	if err := d.Ingest(durableBatch(20, 5)...); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second)
	check("an ingest later", 2500*time.Millisecond)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDurable(dir, opt, dopt); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	check("after a restart", 0)
}

// maxDurableLiveBytesPerRecord bounds TestDurableRetainsNoBatchText's live
// heap growth per ingested record. A durable engine that kept the records and
// their batch text measured 520 bytes a record there, one that keeps id
// columns 345.
const maxDurableLiveBytesPerRecord = 430

// TestDurableRetainsNoBatchText is the engine's retention test
// (TestEngineRetainsNoBatchText in internal/engine) through the durable
// facade, across compactions: a websim stream in batches of 100 whose labels
// are substrings of one string per batch, a refresh after each, and a
// compaction every 20 batches, which writes its base from the engine's table
// and re-estimates it cold. Once the last compaction has run, no batch
// string from before it is reachable, and the live heap grows by less than
// maxDurableLiveBytesPerRecord per record. A second stream runs with no
// cadence and compaction off, so no checkpoint ever writes the ops it notes:
// each batch's string is unreachable once its refresh has returned.
func TestDurableRetainsNoBatchText(t *testing.T) {
	p := websim.DefaultParams().Scale(0.5)
	p.Seed = 1
	w, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	stream := w.Dataset.Records
	opt := durableTestOptions()
	d, err := OpenDurable(t.TempDir(), opt, DurableOptions{compactAfterBatches: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const batch = 100
	var arenas []weak.Pointer[byte]
	compactions, compacted := 0, 0 // the batches the last compaction covered
	before := liveHeap()
	for lo := 0; lo < len(stream); lo += batch {
		xs, arena := arenaExtractions(stream[lo:min(lo+batch, len(stream))])
		arenas = append(arenas, arena)
		if err := d.Ingest(xs...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
		if d.chainBatches == 1 && d.newBatches == 0 {
			compactions, compacted = compactions+1, len(arenas)
		}
	}
	if compactions < 3 {
		t.Fatalf("%d compactions in %d batches, want at least 3", compactions, len(arenas))
	}
	growth := float64(liveHeap()) - float64(before)
	for b, arena := range arenas[:compacted] {
		if arena.Value() != nil {
			t.Fatalf("batch %d's string is still reachable after a compaction covered it", b)
		}
	}
	perRecord := growth / float64(len(stream))
	t.Logf("%d records, %d compactions: %.0f bytes live per record", len(stream), compactions, perRecord)
	if perRecord > maxDurableLiveBytesPerRecord {
		t.Errorf("the durable engine keeps %.0f bytes live per ingested record, want at most %d", perRecord, maxDurableLiveBytesPerRecord)
	}

	nd, err := OpenDurable(t.TempDir(), opt, DurableOptions{compactAfterBatches: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	for lo := 0; lo < min(len(stream), 20*batch); lo += batch {
		xs, arena := arenaExtractions(stream[lo:min(lo+batch, len(stream))])
		if err := nd.Ingest(xs...); err != nil {
			t.Fatal(err)
		}
		if _, err := nd.Refresh(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		if arena.Value() != nil {
			t.Fatalf("batch %d's string is still reachable after its refresh, with no checkpoint since", lo/batch)
		}
	}
	runtime.KeepAlive(stream)
}

// arenaExtractions is recs as extractions whose seven labels are substrings
// of one string, as the HTTP server's canonical decoder builds a batch, with a
// weak pointer to that string's bytes.
func arenaExtractions(recs []triple.Record) ([]Extraction, weak.Pointer[byte]) {
	var b strings.Builder
	for i := range recs {
		r := &recs[i]
		for _, s := range [...]string{r.Extractor, r.Pattern, r.Website, r.Page, r.Subject, r.Predicate, r.Object} {
			b.WriteString(s)
		}
	}
	arena, at := b.String(), 0
	field := func(s string) string {
		at += len(s)
		return arena[at-len(s) : at]
	}
	out := make([]Extraction, len(recs))
	for i := range recs {
		r := &recs[i]
		out[i] = Extraction{
			Extractor: field(r.Extractor), Pattern: field(r.Pattern), Website: field(r.Website), Page: field(r.Page),
			Subject: field(r.Subject), Predicate: field(r.Predicate), Object: field(r.Object), Confidence: r.Confidence,
		}
	}
	return out, weak.Make(unsafe.StringData(arena))
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
