package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzIngestBody posts arbitrary bytes to /v1/ingest on a fresh engine, with
// one to three lanes. Whatever the body: the handler does not panic, it
// answers 200 or 400 and nothing else, and a body is applied whole or not at
// all — a 200's "ingested" is exactly how much the engine grew, a 400 grew it
// by nothing.
// testdata/fuzz/FuzzIngestBody seeds it.
func FuzzIngestBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, lanes uint8) {
		eng := testEngine(t)
		srv := New(eng, Options{Lanes: 1 + int(lanes%3), RefreshEvery: -1})
		defer srv.Close()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var reply struct {
				Ingested int `json:"ingested"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 reply %q: %v", rec.Body, err)
			}
			if reply.Ingested < 1 || reply.Ingested != eng.Len() {
				t.Fatalf("200 says ingested=%d, engine grew by %d", reply.Ingested, eng.Len())
			}
		case http.StatusBadRequest:
			if eng.Len() != 0 {
				t.Fatalf("400 %s, yet the engine grew by %d", rec.Body, eng.Len())
			}
		default:
			t.Fatalf("status %d %s, want 200 or 400", rec.Code, rec.Body)
		}
	})
}
