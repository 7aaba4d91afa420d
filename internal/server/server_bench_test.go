package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"kbt"
)

func benchEngine(b *testing.B) *kbt.Engine {
	b.Helper()
	opt := kbt.DefaultEngineOptions()
	opt.Shards = 16
	opt.MinSupport = 1
	opt.MinReportableTriples = 0
	opt.Tol = 1e-4
	eng, err := kbt.NewEngine(opt)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchPayloads pre-marshals a cycle of ingest bodies: each batch spreads
// over many websites so a multi-lane server actually partitions it.
func benchPayloads(b *testing.B, count, per int) [][]byte {
	b.Helper()
	payloads := make([][]byte, count)
	for p := range payloads {
		batch := make([]kbt.Extraction, per)
		for i := range batch {
			j := p*per + i
			batch[i] = kbt.Extraction{
				Extractor: fmt.Sprintf("E%d", j%3),
				Website:   fmt.Sprintf("w%d.example", j%16),
				Page:      fmt.Sprintf("w%d.example/p%d", j%16, j%7),
				Subject:   fmt.Sprintf("s%d", j%97),
				Predicate: "born",
				Object:    fmt.Sprintf("o%d", j%5),
			}
		}
		raw, err := json.Marshal(batch)
		if err != nil {
			b.Fatal(err)
		}
		payloads[p] = raw
	}
	return payloads
}

// BenchmarkServerIngest measures concurrent POST /v1/ingest throughput with
// periodic automatic refreshes, single-worker versus multi-lane. The lanes
// win is refresh/ingest overlap: with one lane the worker refreshes inline
// and every queued batch stalls behind the EM pass; with several, the
// refresher runs beside the lanes and ingest keeps draining: expect lanes=4
// at ≥2x lanes=1 once GOMAXPROCS >= 4. The end-to-end benchmark (bench/)
// serves with -lanes 1, so this is where the Lanes knob is measured.
func BenchmarkServerIngest(b *testing.B) {
	payloads := benchPayloads(b, 64, 64)
	for _, lanes := range []int{1, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			srv := New(benchEngine(b), Options{Lanes: lanes, Queue: 256, RefreshEvery: 4})
			defer srv.Close()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					req := httptest.NewRequest(http.MethodPost, "/v1/ingest",
						bytes.NewReader(payloads[int(i)%len(payloads)]))
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("ingest = %d: %s", rec.Code, rec.Body.String())
					}
				}
			})
		})
	}
}
