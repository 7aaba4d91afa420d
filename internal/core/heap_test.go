package core

import (
	"runtime"
	"testing"

	"kbt/internal/triple"
	"kbt/internal/websim"
)

// Bounds of TestCompiledStateHeapPerRecord, bytes of live heap per record of
// the websim scale-1 corpus (seed 1, 21,846 records). At finest granularity,
// with int ids a snapshot kept 167.7 and its EM state 104.8 (171.7 and 107.2
// under the race detector); with the int32 ids every table and index stores,
// 129.5 and 93.1 (136.4 and 96.4). The fusion store's snapshot, streamed,
// kept 144.9 (a label list and a string-keyed intern map of its own per kind
// of unit). Since a snapshot holds ids and reads its labels from its table, a
// finest snapshot keeps 92.9 and the streamed store's 108.3 (99.8 and 121.7
// under the race detector). Each bound sits 20.5 above its reading, as the
// first did.
const (
	maxSnapshotBytesPerRecord         = 113
	maxStreamedSnapshotBytesPerRecord = 129
	maxEMStateBytesPerRecord          = 100
)

// TestCompiledStateHeapPerRecord bounds the live heap, after a collection,
// that a compiled snapshot and the EM state NewEM builds on it keep per
// record: what decides how large a corpus one process can hold. The table
// they are built from is live on both sides of each reading, so outside both.
//
// Beside it, the fusion store's build (ProvenanceKey, ExtractorKeyName): a
// table grown as a serving engine grows its own, compiled at its first
// 5,000 rows and then extended by every 100 it gains. The table is outside
// this reading too: it is the heap the same growth keeps without a snapshot.
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

	stream := func(build bool) (*triple.Table, *triple.Snapshot) {
		const first, batch = 5000, 100
		grown := &triple.Table{}
		var s *triple.Snapshot
		from := 0
		for i := range tab.Len() {
			grown.Add(tab.Record(i))
			if k := i + 1; k < first || (k-first)%batch != 0 && k != tab.Len() {
				continue
			}
			c := grown.Clip()
			switch {
			case !build:
			case s == nil:
				s = c.Compile(triple.ProvenanceKey, triple.ExtractorKeyName)
			default:
				s = s.ExtendTable(c, from)
			}
			from = c.Len()
		}
		return grown, s
	}
	h3 := liveHeap()
	bare, _ := stream(false)
	h4 := liveHeap()
	grown, prov := stream(true)
	h5 := liveHeap()
	provPer := (float64(h5-h4) - float64(h4-h3)) / n
	t.Logf("fusion store's snapshot, streamed: %d units, %d observations: %.1f bytes live per record", prov.NumSources(), len(prov.Obs), provPer)
	if provPer > maxStreamedSnapshotBytesPerRecord {
		t.Errorf("the streamed fusion snapshot keeps %.1f bytes live per record, want at most %d", provPer, maxStreamedSnapshotBytesPerRecord)
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(em)
	runtime.KeepAlive(bare)
	runtime.KeepAlive(grown)
	runtime.KeepAlive(prov)
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
