package engine

import (
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"kbt/internal/triple"
	"kbt/internal/websim"
)

// websimStream returns the web simulator's corpus at the scale, seed 1.
func websimStream(t testing.TB, scale float64) []triple.Record {
	p := websim.DefaultParams().Scale(scale)
	p.Seed = 1
	w, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w.Dataset.Records
}

// arenaBatch copies recs into records whose seven labels are substrings of
// one string, as the HTTP server's canonical decoder builds a batch, and
// returns them with a weak pointer to that string's bytes.
func arenaBatch(recs []triple.Record) ([]triple.Record, weak.Pointer[byte]) {
	var buf []byte
	for i := range recs {
		r := &recs[i]
		for _, s := range [...]string{r.Extractor, r.Pattern, r.Website, r.Page, r.Subject, r.Predicate, r.Object} {
			buf = append(buf, s...)
		}
	}
	arena, at := string(buf), 0
	field := func(s string) string {
		at += len(s)
		return arena[at-len(s) : at]
	}
	out := make([]triple.Record, len(recs))
	for i := range recs {
		r := &recs[i]
		out[i] = triple.Record{
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
	runtime.GC() // the first may leave objects a cleanup or finaliser frees
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// maxLiveBytesPerRecord bounds TestEngineRetainsNoBatchText's live-heap
// growth per ingested record, the whole model (snapshots, EM state,
// posteriors, copy tracker, fusion store) included. An engine that kept the
// records and their batch text measured 796 bytes a record there, one that
// keeps id columns 627.
const maxLiveBytesPerRecord = 700

// TestEngineRetainsNoBatchText streams a websim corpus into an engine with
// every layer on, in batches of 100 whose labels are substrings of one string
// per batch, refreshing after each. Once Ingest has returned, the engine holds
// no record of the batch and no label that is part of its string: the first
// batch's string is collected before any refresh, and the live heap grows by
// less than maxLiveBytesPerRecord per record.
func TestEngineRetainsNoBatchText(t *testing.T) {
	stream := websimStream(t, 0.5)
	opt := DefaultOptions()
	opt.CopyDetect, opt.CopyDiscount, opt.Fusion = true, true, true
	eng := New(opt)
	const batch = 100
	before := liveHeap()
	for lo := 0; lo < len(stream); lo += batch {
		recs, arena := arenaBatch(stream[lo:min(lo+batch, len(stream))])
		if err := eng.Ingest(recs...); err != nil {
			t.Fatal(err)
		}
		if lo == 0 {
			runtime.GC()
			if arena.Value() != nil {
				t.Error("the first batch's string is still reachable once its Ingest returned")
			}
		}
		if _, err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	growth := float64(liveHeap()) - float64(before)
	perRecord := growth / float64(len(stream))
	t.Logf("%d records: %.0f bytes live per record", len(stream), perRecord)
	if perRecord > maxLiveBytesPerRecord {
		t.Errorf("the engine keeps %.0f bytes live per ingested record, want at most %d", perRecord, maxLiveBytesPerRecord)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(stream)
}
