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

// settledBody is one ingest body of the end-to-end benchmark's serve_settled
// stream, as its client sends it: json.Marshal of 148 records, twelve items of
// four group sites read by three extractors, a third of the items with a
// hallucinated value.
func settledBody() []byte {
	var batch []kbt.Extraction
	add := func(e, w, subj, obj string, conf float64) {
		batch = append(batch, kbt.Extraction{
			Extractor: e, Pattern: "pat", Website: w, Page: w + "/x",
			Subject: subj, Predicate: "pred1f2e-" + subj[len(subj)-7:], Object: obj, Confidence: conf,
		})
	}
	for i := 0; i < 12; i++ {
		subj := fmt.Sprintf("S1f2e-%07d", 40000+i)
		sites := [4]string{"a", "b", "c", "d"}
		for s, site := range sites {
			w := fmt.Sprintf("g%06d-%s.com", 10000+i/4, site)
			obj := "v" + subj
			if s >= 2 && i%10 < 3+4*(s-2) {
				obj = "w" + subj
			}
			add("E1", w, subj, obj, 1)
			add("E2", w, subj, obj, 0.9)
			add("E3", w, subj, obj, 0.8)
		}
		if i%3 == 0 {
			add("E3", fmt.Sprintf("g%06d-a.com", 10000+i/4), subj, "halluc"+subj, 0.8)
		}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		panic(err)
	}
	return body
}

// BenchmarkIngestDecode decodes the serve_settled body through the
// hand-written fast path and through the encoding/json path it falls back
// to; the difference is what the fast path takes off every ack.
func BenchmarkIngestDecode(b *testing.B) {
	body := settledBody()
	for _, path := range []struct {
		name   string
		decode func([]byte) ([]kbt.Extraction, bool)
	}{
		{"fast", decodeCanonical},
		{"encoding-json", func(body []byte) ([]kbt.Extraction, bool) {
			batch, err := decodeJSON(body)
			return batch, err == nil
		}},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if batch, ok := path.decode(body); !ok || len(batch) != 148 {
					b.Fatalf("decoded %d records, ok %v", len(batch), ok)
				}
			}
		})
	}
}

// BenchmarkServerIngest measures concurrent POST /v1/ingest throughput, on
// the in-memory engine and on the durable one. Every batch is applied,
// refreshed and only then acked by the one ingest worker, so the concurrent
// clients queue behind it; with -data the batch's fsync is on that path too.
// The end-to-end benchmark (bench/) serves over one closed-loop connection,
// so this is where concurrent ingest is measured.
func BenchmarkServerIngest(b *testing.B) {
	payloads := benchPayloads(b, 64, 64)
	for _, engine := range []string{"memory", "durable"} {
		b.Run("engine="+engine, func(b *testing.B) {
			srv := New(benchEngine(b, engine == "durable"), Options{Queue: 256})
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
