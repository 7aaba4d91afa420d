package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"kbt"
)

// copierBatch plants five mostly-independent sites, an "orig" site with a
// distinctive mistake on every third item, and a "copier" echoing orig
// verbatim. Two extractors corroborate every record so extraction
// correctness stays high even for false values.
func copierBatch() []kbt.Extraction {
	const nItems = 40
	var out []kbt.Extraction
	value := func(site, i int) string {
		switch {
		case site < 5 && (i+site)%7 == 0:
			return fmt.Sprintf("err%d", site)
		case site >= 5 && i%3 == 0:
			return "wrong"
		default:
			return fmt.Sprintf("true%d", i)
		}
	}
	for site := 0; site < 7; site++ {
		website := fmt.Sprintf("site%d.com", site)
		if site == 5 {
			website = "orig.com"
		} else if site == 6 {
			website = "copier.com"
		}
		for i := 0; i < nItems; i++ {
			for _, extractor := range []string{"E1", "E2"} {
				out = append(out, kbt.Extraction{
					Extractor: extractor, Website: website, Page: website + "/x",
					Subject: fmt.Sprintf("S%d", i), Predicate: "p",
					Object: value(site, i), Confidence: 0.9,
				})
			}
		}
	}
	return out
}

// TestCopyDepsAndFusedEndpoints drives the new layer queries end to end on an
// engine with both layers enabled: the 503 before the first generation, the
// planted copier pair on /v1/copy-deps (with ?k= truncation) and the fused
// posterior lookup with its 404s.
func TestCopyDepsAndFusedEndpoints(t *testing.T) {
	opt := kbt.DefaultEngineOptions()
	opt.MinSupport = 1
	opt.CopyDetect = true
	opt.Fusion = true
	eng, err := kbt.NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (*http.Response, errorReply) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var envelope errorReply
		if resp.StatusCode != http.StatusOK {
			decodeInto(t, resp, &envelope)
		}
		return resp, envelope
	}

	// Layers enabled but no generation published yet: retryable 503.
	for _, path := range []string{"/v1/copy-deps", "/v1/fused?item=S1%7Cp"} {
		resp, envelope := get(path)
		if resp.StatusCode != http.StatusServiceUnavailable || envelope.Code != "no_generation" {
			t.Fatalf("pre-generation %s = %d %+v, want 503 no_generation", path, resp.StatusCode, envelope)
		}
	}

	resp := postJSON(t, ts, "/v1/ingest", copierBatch())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	waitRefreshed(t, ts)

	resp, _ = get("/v1/copy-deps")
	var deps []kbt.CopyDependence
	decodeInto(t, resp, &deps)
	if resp.StatusCode != http.StatusOK || len(deps) == 0 {
		t.Fatalf("copy-deps = %d, %d deps", resp.StatusCode, len(deps))
	}
	found := false
	for _, d := range deps {
		pair := map[string]bool{d.SourceA: true, d.SourceB: true}
		if pair["orig.com"] && pair["copier.com"] {
			found = true
			if d.Posterior < 0.9 || d.SharedFalse == 0 {
				t.Fatalf("orig/copier dependence %+v, want posterior ≥ 0.9 with shared false values", d)
			}
		}
	}
	if !found {
		t.Fatalf("planted orig/copier pair missing: %+v", deps)
	}
	resp, _ = get("/v1/copy-deps?k=1")
	var one []kbt.CopyDependence
	decodeInto(t, resp, &one)
	if resp.StatusCode != http.StatusOK || len(one) != 1 || one[0] != deps[0] {
		t.Fatalf("copy-deps?k=1 = %d, %+v, want [%+v]", resp.StatusCode, one, deps[0])
	}

	item := url.QueryEscape("S1|p")
	resp, _ = get("/v1/fused?item=" + item)
	var fi kbt.FusedItem
	decodeInto(t, resp, &fi)
	if resp.StatusCode != http.StatusOK || fi.Subject != "S1" || fi.Predicate != "p" || !fi.Covered {
		t.Fatalf("fused = %d, %+v, want covered S1/p", resp.StatusCode, fi)
	}
	if len(fi.Values) == 0 || fi.Values[0].Object != "true1" {
		t.Fatalf("fused values = %+v, want true1 first", fi.Values)
	}

	resp, envelope := get("/v1/fused?item=" + url.QueryEscape("no-such|p"))
	if resp.StatusCode != http.StatusNotFound || envelope.Code != "unknown_item" {
		t.Fatalf("unknown item = %d %+v, want 404 unknown_item", resp.StatusCode, envelope)
	}
	resp, envelope = get("/v1/fused?item=bare-label")
	if resp.StatusCode != http.StatusNotFound || envelope.Code != "unknown_item" {
		t.Fatalf("separator-free item = %d %+v, want 404 unknown_item", resp.StatusCode, envelope)
	}

}
