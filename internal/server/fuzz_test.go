package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzIngestBody posts arbitrary bytes to /v1/ingest on a fresh engine.
// Whatever the body: the handler does not panic, it answers 200 or 400 and
// nothing else, and a body is applied whole or not at all — a 200's
// "ingested" is exactly how much the engine grew, a 400 grew it by nothing.
// testdata/fuzz/FuzzIngestBody seeds it.
func FuzzIngestBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		eng := testEngine(t)
		srv := New(eng, Options{})
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

// FuzzIngestDecode is the hand-written decoder's differential check against
// encoding/json: every body decodeCanonical accepts, decodeJSON (today's
// settings: unknown fields refused, nothing after the array) accepts too,
// with a reflect.DeepEqual batch. So the fast path never accepts a body the
// handler would refuse, and never decodes one differently.
// testdata/fuzz/FuzzIngestDecode seeds it with FuzzIngestBody's seeds,
// README's curl bodies and the grammar's edges; the bench's canonical body is
// added here.
func FuzzIngestDecode(f *testing.F) {
	f.Add(settledBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		fast, ok := decodeCanonical(body)
		if !ok {
			return
		}
		ref, err := decodeJSON(body)
		if err != nil {
			t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", body, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%q: fast path decoded\n%#v\nencoding/json\n%#v", body, fast, ref)
		}
	})
}

// TestCanonicalGrammar pins which bodies take the fast path: json.Marshal
// output over valid UTF-8 records does, whatever its whitespace; anything
// needing encoding/json's leniency or refusal does not.
func TestCanonicalGrammar(t *testing.T) {
	one := func(fields string) string {
		return `[{"Extractor":"E","Website":"w.com","Page":"w.com/p",` + fields + `}]`
	}
	for _, tc := range []struct {
		name, body string
		fast       bool
	}{
		{"settled body", string(settledBody()), true},
		{"readme curl", "[{\"Extractor\":\"patterns-v1\",\"Website\":\"wiki.com\",\n  \"Page\":\"wiki.com/p1\",\"Subject\":\"obama\",\"Predicate\":\"nationality\",\"Object\":\"USA\"}]", true},
		{"whitespace everywhere", " \t[ {\r\n\"Subject\" : \"s\" , \"Confidence\" :0.5 } , { } ]\n ", true},
		{"empty array", "[]", true},
		{"raw e acute", one(`"Subject":"café"`), true},
		{"confidence -0", one(`"Confidence":-0`), true},
		{"confidence 1E-400", one(`"Confidence":1E-400`), true},
		{"confidence 2.5e+1", one(`"Confidence":2.5e+1`), true},
		{"null", "null", false},
		{"null field", one(`"Subject":null`), false},
		{"escaped quote", one(`"Subject":"s\"q"`), false},
		{"escape u00e9", one(`"Subject":"caf\u00e9"`), false},
		{"control byte", one("\"Subject\":\"s\x01\""), false},
		{"invalid utf-8", one("\"Subject\":\"s\xff\""), false},
		{"lower-case key", one(`"subject":"s"`), false},
		{"long-s key", one(`"ſubject":"s"`), false},
		{"unknown key", one(`"Nope":"x"`), false},
		{"duplicate key", one(`"Subject":"s","Subject":"t"`), false},
		{"nested value", one(`"Subject":["s"]`), false},
		{"string confidence", one(`"Confidence":"0.5"`), false},
		{"confidence 1e309", one(`"Confidence":1e309`), false},
		{"confidence 01", one(`"Confidence":01`), false},
		{"confidence .5", one(`"Confidence":.5`), false},
		{"confidence 1.", one(`"Confidence":1.`), false},
		{"trailing comma", `[{"Subject":"s"},]`, false},
		{"object comma", `[{"Subject":"s",}]`, false},
		{"data after the array", one(`"Subject":"s"`) + " []", false},
		{"truncated", strings.TrimSuffix(one(`"Subject":"s"`), "]"), false},
	} {
		if _, ok := decodeCanonical([]byte(tc.body)); ok != tc.fast {
			t.Errorf("%s: fast path took it = %v, want %v", tc.name, ok, tc.fast)
		}
	}
}
