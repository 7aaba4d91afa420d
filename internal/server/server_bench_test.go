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

// benchEngine builds the engine a BenchmarkServerIngest cell serves: in memory,
// or kbt.OpenDurable on a fresh directory with every batch fsync-ed — what
// kbt serve -data runs.
func benchEngine(b *testing.B, durable bool) Engine {
	b.Helper()
	opt := kbt.DefaultEngineOptions()
	opt.Shards = 16
	opt.MinSupport = 1
	opt.MinReportableTriples = 0
	opt.Tol = 1e-4
	if durable {
		d, err := kbt.OpenDurable(b.TempDir(), opt, kbt.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { d.Close() })
		return d
	}
	eng, err := kbt.NewEngine(opt)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchPayloads pre-marshals a cycle of ingest bodies, each spread over many
// websites.
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
// periodic automatic refreshes, one ingest worker versus four, on the
// in-memory engine and on the durable one. In memory the lanes win is
// refresh/ingest overlap: with one lane the worker refreshes inline and every
// queued batch stalls behind the EM pass; with several, the refresher runs
// beside the workers and ingest keeps draining. The durable engine serialises
// ingest, fsync and refresh under one lock, so there lanes=4 should read the
// same as lanes=1 — and no worse. The end-to-end benchmark (bench/) serves
// with -lanes 1, so this is where the Lanes knob is measured.
func BenchmarkServerIngest(b *testing.B) {
	payloads := benchPayloads(b, 64, 64)
	for _, engine := range []string{"memory", "durable"} {
		for _, lanes := range []int{1, 4} {
			b.Run(fmt.Sprintf("engine=%s/lanes=%d", engine, lanes), func(b *testing.B) {
				srv := New(benchEngine(b, engine == "durable"), Options{Lanes: lanes, Queue: 256, RefreshEvery: 4})
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
}
