package core

import (
	"runtime"
	"testing"

	"kbt/internal/triple"
	"kbt/internal/websim"
)

// Bounds of TestCompiledStateHeapPerRecord, bytes of live heap per record of
// the websim scale-1 corpus (seed 1, 21,846 records) at finest granularity.
// With int ids a snapshot kept 167.7 and its EM state 104.8 (171.7 and 107.2
// under the race detector); with the int32 ids every table and index stores,
// 129.5 and 93.1 (136.4 and 96.4). Each bound sits between.
const (
	maxSnapshotBytesPerRecord = 150
	maxEMStateBytesPerRecord  = 100
)

// TestCompiledStateHeapPerRecord bounds the live heap, after a collection,
// that a compiled snapshot and the EM state NewEM builds on it keep per
// record: what decides how large a corpus one process can hold. The table
// they are built from is live on both sides of each reading, so outside both.
func TestCompiledStateHeapPerRecord(t *testing.T) {
	tab := websimTable(t, 1)
	n := float64(tab.Len())
	h0 := liveHeap()
	snap := tab.Compile(triple.SourceKeyFinest, triple.ExtractorKeyFinest)
	h1 := liveHeap()
	em, err := NewEM(snap, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h2 := liveHeap()
	snapPer, emPer := float64(h1-h0)/n, float64(h2-h1)/n
	t.Logf("%d records, %d observations, %d candidate triples: snapshot %.1f and EM state %.1f bytes live per record",
		tab.Len(), len(snap.Obs), len(snap.Triples), snapPer, emPer)
	if snapPer > maxSnapshotBytesPerRecord {
		t.Errorf("a compiled snapshot keeps %.1f bytes live per record, want at most %d", snapPer, maxSnapshotBytesPerRecord)
	}
	if emPer > maxEMStateBytesPerRecord {
		t.Errorf("NewEM's state keeps %.1f bytes live per record, want at most %d", emPer, maxEMStateBytesPerRecord)
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(em)
}

// websimTable returns the web simulator's corpus at the scale, seed 1, as a
// table; the corpus itself is garbage once it returns.
func websimTable(t *testing.T, scale float64) *triple.Table {
	p := websim.DefaultParams().Scale(scale)
	p.Seed = 1
	w, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return triple.TableOf(w.Dataset.Records)
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // the first may leave objects a cleanup or finaliser frees
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
