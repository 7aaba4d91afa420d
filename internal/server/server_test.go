package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kbt"
)

func testOptions() kbt.EngineOptions {
	opt := kbt.DefaultEngineOptions()
	opt.Shards = 4
	opt.DomainSize = 5
	opt.Iterations = 3
	opt.MinSupport = 1
	opt.MinReportableTriples = 0
	opt.Tol = 1e-6
	return opt
}

func testEngine(t *testing.T) *kbt.Engine {
	t.Helper()
	eng, err := kbt.NewEngine(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testBatch(first, n int) []kbt.Extraction {
	batch := make([]kbt.Extraction, n)
	for i := range batch {
		j := first + i
		obj := fmt.Sprintf("o%d", j%3)
		if j%7 == 0 {
			obj = "oX"
		}
		batch[i] = kbt.Extraction{
			Extractor: fmt.Sprintf("E%d", j%3),
			Website:   fmt.Sprintf("w%d.com", j%4),
			Page:      fmt.Sprintf("w%d.com/p%d", j%4, j%2),
			Subject:   fmt.Sprintf("s%d", j%5),
			Predicate: "born",
			Object:    obj,
		}
	}
	return batch
}

func postJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// waitRefreshed polls /v1/stats until a generation is published and nothing
// is pending.
func waitRefreshed(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Refreshed bool `json:"refreshed"`
			Pending   int  `json:"pending"`
			Queued    int  `json:"queued"`
		}
		decodeInto(t, resp, &st)
		if st.Refreshed && st.Pending == 0 && st.Queued == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never published a generation")
}

func TestIngestQueryRoundTrip(t *testing.T) {
	srv := New(testEngine(t), Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Before any data: health is fine, queries are 503.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/top-sources")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-generation top-sources = %d, want 503", resp.StatusCode)
	}

	resp = postJSON(t, ts, "/v1/ingest", testBatch(0, 24))
	var ack map[string]int
	decodeInto(t, resp, &ack)
	if resp.StatusCode != http.StatusOK || ack["ingested"] != 24 {
		t.Fatalf("ingest = %d, ack %v", resp.StatusCode, ack)
	}
	waitRefreshed(t, ts)

	resp, err = http.Get(ts.URL + "/v1/top-sources?k=2")
	if err != nil {
		t.Fatal(err)
	}
	var srcs []kbt.Source
	decodeInto(t, resp, &srcs)
	if resp.StatusCode != http.StatusOK || len(srcs) != 2 {
		t.Fatalf("top-sources = %d, %d sources", resp.StatusCode, len(srcs))
	}
	resp, err = http.Get(ts.URL + "/v1/top-triples")
	if err != nil {
		t.Fatal(err)
	}
	var trs []kbt.TripleVerdict
	decodeInto(t, resp, &trs)
	if resp.StatusCode != http.StatusOK || len(trs) == 0 {
		t.Fatalf("top-triples = %d, %d triples", resp.StatusCode, len(trs))
	}
	for _, tv := range trs {
		if tv.Probability < 0 || tv.Probability > 1 {
			t.Fatalf("triple %v has probability %v", tv, tv.Probability)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/source?name=" + srcs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	var src kbt.Source
	decodeInto(t, resp, &src)
	if resp.StatusCode != http.StatusOK || src != srcs[0] {
		t.Fatalf("source = %d, %+v, want %+v", resp.StatusCode, src, srcs[0])
	}
	resp, err = http.Get(ts.URL + "/v1/source?name=no-such-site.example")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown source = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsReply
	decodeInto(t, resp, &st)
	if st.Records != 24 || !st.Refreshed || st.Refresh == nil || st.LastError != "" {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBadRequests pins the status code AND the machine-readable envelope
// code of every error path: each non-2xx body must decode into
// {"error": ..., "code": ...} with both fields populated.
// validBatchJSON is a well-formed one-record ingest body.
const validBatchJSON = `[{"Extractor":"E","Website":"w.com","Page":"w.com/p","Subject":"s","Predicate":"p","Object":"o"}]`

func TestBadRequests(t *testing.T) {
	srv := New(testEngine(t), Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
		code                     string
	}{
		{"garbage body", "POST", "/v1/ingest", "{not json", http.StatusBadRequest, "malformed_batch"},
		{"object not array", "POST", "/v1/ingest", `{"Subject":"s"}`, http.StatusBadRequest, "malformed_batch"},
		{"unknown field", "POST", "/v1/ingest", `[{"Nope":"x"}]`, http.StatusBadRequest, "malformed_batch"},
		{"two arrays", "POST", "/v1/ingest", validBatchJSON + " " + validBatchJSON, http.StatusBadRequest, "malformed_batch"},
		{"trailing garbage", "POST", "/v1/ingest", validBatchJSON + "]", http.StatusBadRequest, "malformed_batch"},
		{"empty batch", "POST", "/v1/ingest", `[]`, http.StatusBadRequest, "empty_batch"},
		{"invalid record", "POST", "/v1/ingest",
			`[{"Extractor":"E","Website":"w.com","Page":"w.com/p","Predicate":"p","Object":"o"}]`,
			http.StatusBadRequest, "invalid_record"}, // empty Subject: engine validation refuses
		{"ingest GET", "GET", "/v1/ingest", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"refresh GET", "GET", "/v1/refresh", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"top-sources POST", "POST", "/v1/top-sources", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"top-triples POST", "POST", "/v1/top-triples", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"source POST", "POST", "/v1/source?name=w.com", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"healthz POST", "POST", "/v1/healthz", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"stats DELETE", "DELETE", "/v1/stats", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad k", "GET", "/v1/top-sources?k=many", "", http.StatusBadRequest, "bad_query"},
		{"top-sources negative k", "GET", "/v1/top-sources?k=-5", "", http.StatusBadRequest, "bad_query"},
		{"top-triples negative k", "GET", "/v1/top-triples?k=-5", "", http.StatusBadRequest, "bad_query"},
		{"no generation", "GET", "/v1/top-triples", "", http.StatusServiceUnavailable, "no_generation"},
		{"source without name", "GET", "/v1/source", "", http.StatusBadRequest, "bad_query"},
		{"refresh empty engine", "POST", "/v1/refresh", "", http.StatusConflict, "refresh_failed"},
		{"copy-deps POST", "POST", "/v1/copy-deps", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"copy-deps disabled", "GET", "/v1/copy-deps", "", http.StatusConflict, "copydetect_disabled"},
		{"copy-deps bad k", "GET", "/v1/copy-deps?k=many", "", http.StatusBadRequest, "bad_query"},
		{"copy-deps negative k", "GET", "/v1/copy-deps?k=-5", "", http.StatusBadRequest, "bad_query"},
		{"fused POST", "POST", "/v1/fused?item=s%7Cp", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"fused without item", "GET", "/v1/fused", "", http.StatusBadRequest, "bad_query"},
		{"fused disabled", "GET", "/v1/fused?item=s%7Cp", "", http.StatusConflict, "fusion_disabled"},
		{"unknown path", "GET", "/v1/no-such-endpoint", "", http.StatusNotFound, "not_found"},
		{"unknown root path", "GET", "/nope", "", http.StatusNotFound, "not_found"},
		{"unversioned ingest", "POST", "/ingest", `[]`, http.StatusNotFound, "not_found"},
		{"unversioned top-sources", "GET", "/top-sources", "", http.StatusNotFound, "not_found"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var envelope errorReply
			decodeInto(t, resp, &envelope)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if envelope.Code != tc.code || envelope.Error == "" {
				t.Fatalf("envelope = %+v, want code %q and a message", envelope, tc.code)
			}
		})
	}
	// HEAD carries no body to hold the envelope, but it is refused all the
	// same: a GET endpoint serves GET only.
	resp, err := http.Head(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("HEAD /v1/stats = %d, want 405", resp.StatusCode)
	}
}

// TestBodyBoundIsEightMiB pins the request body bound: an ingest body of
// exactly 8 MiB is applied, one byte more is refused whole with 400
// malformed_batch. A Content-Length that lies, claiming more than the bound
// or less than the body sends, changes neither answer, and the buffer it
// presizes never exceeds the bound.
func TestBodyBoundIsEightMiB(t *testing.T) {
	for _, tc := range []struct {
		size, want, records int
		claim               int64 // Content-Length, when not the body's own
	}{
		{8 << 20, http.StatusOK, 1, 0}, {8<<20 + 1, http.StatusBadRequest, 0, 0},
		{8 << 20, http.StatusOK, 1, 1 << 40}, {8<<20 + 1, http.StatusBadRequest, 0, 1 << 40},
		{8 << 20, http.StatusOK, 1, 64}, {8<<20 + 1, http.StatusBadRequest, 0, 64},
	} {
		eng := testEngine(t)
		srv := New(eng, Options{})
		// The one record of validBatchJSON, behind enough blanks to make the
		// body tc.size bytes long.
		body := "[" + strings.Repeat(" ", tc.size-len(validBatchJSON)) + validBatchJSON[1:]
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
		if tc.claim != 0 {
			req.ContentLength = tc.claim
		}
		if n := presize(req.ContentLength); n > maxBodyBytes {
			t.Fatalf("Content-Length %d presizes %d bytes, over the bound", req.ContentLength, n)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		srv.Close()
		if rec.Code != tc.want {
			t.Fatalf("%d-byte body (Content-Length %d) = %d %s, want %d", len(body), req.ContentLength, rec.Code, rec.Body, tc.want)
		}
		if tc.want != http.StatusOK {
			var envelope errorReply
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Code != "malformed_batch" {
				t.Fatalf("%d-byte body: envelope %s, want code malformed_batch", len(body), rec.Body)
			}
		}
		if got := eng.Len(); got != tc.records {
			t.Fatalf("%d-byte body: engine holds %d records, want %d", len(body), got, tc.records)
		}
	}
}

// flakyRefreshEngine fails its first Refresh and hands every later one to
// the engine it wraps.
type flakyRefreshEngine struct {
	Engine
	failed atomic.Bool
}

func (f *flakyRefreshEngine) Refresh() (*kbt.Result, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, errors.New("injected refresh failure")
	}
	return f.Engine.Refresh()
}

// TestLastErrorTracksEveryRefresh pins the refresh bookkeeping: a batch whose
// refresh fails is still acked 200 — it is applied — with the failure in
// /v1/stats' last_error, and a successful POST /v1/refresh clears it.
func TestLastErrorTracksEveryRefresh(t *testing.T) {
	srv := New(&flakyRefreshEngine{Engine: testEngine(t)}, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	stats := func() statsReply {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st statsReply
		decodeInto(t, resp, &st)
		return st
	}

	if code := drain(postJSON(t, ts, "/v1/ingest", testBatch(0, 12))); code != http.StatusOK {
		t.Fatalf("ingest whose refresh fails = %d, want 200", code)
	}
	if st := stats(); st.Records != 12 || st.Refreshed || st.LastError != "injected refresh failure" {
		t.Fatalf("stats after the failed refresh = %+v, want 12 records, no generation, the failure as last_error", st)
	}
	if code := drain(postJSON(t, ts, "/v1/refresh", nil)); code != http.StatusOK {
		t.Fatalf("refresh = %d, want 200", code)
	}
	if st := stats(); !st.Refreshed || st.Pending != 0 || st.LastError != "" {
		t.Fatalf("stats after a successful refresh = %+v, want published, nothing pending, last_error cleared", st)
	}
}

// ingestCall is one write the server handed to its engine.
type ingestCall struct {
	key   string
	batch []kbt.Extraction
}

// recordingEngine records every batch the ingest workers hand over, in call
// order, before doing anything with it. With a gate, each call then waits for
// a token (or for the gate to close), so tests can hold workers busy and fill
// the queue deterministically; with reject set, the call refuses its batch
// without applying it, as engine validation would.
type recordingEngine struct {
	*kbt.Engine
	gate chan struct{}

	mu     sync.Mutex
	calls  []ingestCall
	reject error
}

func (e *recordingEngine) Ingest(batch ...kbt.Extraction) error { return e.IngestKeyed("", batch...) }

func (e *recordingEngine) IngestKeyed(key string, batch ...kbt.Extraction) error {
	e.mu.Lock()
	e.calls = append(e.calls, ingestCall{key, batch})
	reject := e.reject
	e.mu.Unlock()
	if e.gate != nil {
		<-e.gate
	}
	if reject != nil {
		return reject
	}
	return e.Engine.IngestKeyed(key, batch...)
}

func (e *recordingEngine) setReject(err error) {
	e.mu.Lock()
	e.reject = err
	e.mu.Unlock()
}

func (e *recordingEngine) snapshot() []ingestCall {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ingestCall(nil), e.calls...)
}

// postKeyed posts batch to /v1/ingest, with an Idempotency-Key header when
// key is not empty.
func postKeyed(t *testing.T, ts *httptest.Server, key string, batch []kbt.Extraction) *http.Response {
	t.Helper()
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// drain reads resp to the end and returns its status code.
func drain(resp *http.Response) int {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestQueueFullReturns429(t *testing.T) {
	ge := &recordingEngine{Engine: testEngine(t), gate: make(chan struct{})}
	srv := New(ge, Options{Queue: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Three in-flight posts: one held by the worker at the gate, two
	// filling the queue. Each post blocks in its handler waiting for the
	// ack, so they run in goroutines.
	acks := make(chan *http.Response, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			acks <- postJSON(t, ts, "/v1/ingest", testBatch(i*10, 4))
		}(i)
	}
	// Wait until the queue is saturated: worker holds one job, two queued.
	waitFor(t, "queue never filled", func() bool { return len(srv.queue) == 2 })

	resp := postJSON(t, ts, "/v1/ingest", testBatch(99, 4))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 queue_full response missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("429 Retry-After = %q, want a positive integer of seconds", ra)
	}

	close(ge.gate) // release the worker; the three admitted posts all ack
	for i := 0; i < 3; i++ {
		resp := <-acks
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted ingest %d = %d, want 200", i, resp.StatusCode)
		}
	}
	srv.Close()
	if got := ge.Len(); got != 12 {
		t.Fatalf("engine holds %d records after drain, want 12", got)
	}
}

func laneRecord(website string, i int) kbt.Extraction {
	return kbt.Extraction{
		Extractor: "E0",
		Website:   website,
		Page:      website + "/p",
		Subject:   fmt.Sprintf("s%d", i),
		Predicate: "born",
		Object:    "o",
	}
}

// TestBatchAppliedWhole pins the unit of ingest: whether or not the request
// carries an Idempotency-Key, a batch spanning many websites reaches the
// engine as one IngestKeyed call holding every record in request order, and
// its 2xx follows that call's return. A batch the server refuses — queue
// full, or the engine rejecting it — has applied nothing.
func TestBatchAppliedWhole(t *testing.T) {
	batch := make([]kbt.Extraction, 24)
	for i := range batch {
		batch[i] = laneRecord(fmt.Sprintf("site%d.com", i%12), i)
	}
	const lanes = 1 // the one ingest worker
	for _, key := range []string{"", "batch-1"} {
		t.Run(fmt.Sprintf("lanes=%d/key=%q", lanes, key), func(t *testing.T) {
			re := &recordingEngine{Engine: testEngine(t), gate: make(chan struct{})}
			srv := New(re, Options{Queue: 1})
			ts := httptest.NewServer(srv)
			release := sync.OnceFunc(func() { close(re.gate) })
			defer func() { release(); srv.Close(); ts.Close() }()
			await := func(ch chan *http.Response) *http.Response {
				t.Helper()
				select {
				case resp := <-ch:
					return resp
				case <-time.After(5 * time.Second):
					t.Fatal("no response")
					return nil
				}
			}

			acks := make(chan *http.Response, 1)
			go func() { acks <- postKeyed(t, ts, key, batch) }()
			waitFor(t, "batch never reached the engine", func() bool { return len(re.snapshot()) > 0 })
			select {
			case <-acks:
				t.Fatal("batch acked before its engine call returned")
			case <-time.After(100 * time.Millisecond):
			}
			want := []ingestCall{{key, batch}}
			if got := re.snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch reached the engine as %d calls %v, want one call with all %d records in request order",
					len(got), got, len(batch))
			}
			re.gate <- struct{}{}
			if code := drain(await(acks)); code != http.StatusOK {
				t.Fatalf("ingest = %d, want 200", code)
			}

			// An engine that rejects the batch: 400, after one more call.
			re.setReject(errors.New("record 7: empty Subject"))
			go func() { acks <- postKeyed(t, ts, key, batch) }()
			re.gate <- struct{}{}
			var envelope errorReply
			resp := await(acks)
			decodeInto(t, resp, &envelope)
			if resp.StatusCode != http.StatusBadRequest || envelope.Code != "invalid_record" {
				t.Fatalf("rejected ingest = %d %+v, want 400 invalid_record", resp.StatusCode, envelope)
			}
			re.setReject(nil)

			// A full queue: every worker held at the gate, one more batch
			// queued behind them. The spanning batch is refused with 429
			// and never reaches the engine.
			held := make(chan *http.Response, lanes+1)
			for i := 0; i <= lanes; i++ {
				one := []kbt.Extraction{laneRecord("held.com", i)}
				go func() { held <- postKeyed(t, ts, "", one) }()
			}
			waitFor(t, "workers and queue never filled", func() bool {
				return len(re.snapshot()) == 2+lanes && len(srv.queue) == 1
			})
			resp = postKeyed(t, ts, key, batch)
			if code := drain(resp); code != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("ingest into a full queue = %d (Retry-After %q), want 429 with one",
					code, resp.Header.Get("Retry-After"))
			}
			release()
			for i := 0; i <= lanes; i++ {
				if code := drain(await(held)); code != http.StatusOK {
					t.Fatalf("held ingest %d = %d, want 200", i, code)
				}
			}
			if got := len(re.snapshot()); got != 3+lanes {
				t.Fatalf("engine saw %d calls, want %d: the 429 costs none, the 400 one", got, 3+lanes)
			}
			if got, want := re.Len(), len(batch)+lanes+1; got != want {
				t.Fatalf("engine holds %d records, want %d: a refused batch applies nothing", got, want)
			}
		})
	}
}

// gatedRefreshEngine holds every Refresh at a gate: it signals started, then
// waits for a token (or for the gate to close) before refreshing.
type gatedRefreshEngine struct {
	Engine
	started chan struct{}
	gate    chan struct{}
}

func (g *gatedRefreshEngine) Refresh() (*kbt.Result, error) {
	g.started <- struct{}{}
	<-g.gate
	return g.Engine.Refresh()
}

// TestOneLaneAckIsPublished pins what a 2xx means: the batch is applied and
// the refresh after it has published, so the client's first /v1/stats after
// the ack already counts the batch with nothing pending.
func TestOneLaneAckIsPublished(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%t/lanes=1", durable), func(t *testing.T) {
			var eng Engine = testEngine(t)
			if durable {
				d, err := kbt.OpenDurable(t.TempDir(), testOptions(), kbt.DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				eng = d
			}
			ge := &gatedRefreshEngine{Engine: eng, started: make(chan struct{}, 16), gate: make(chan struct{})}
			srv := New(ge, Options{})
			ts := httptest.NewServer(srv)
			release := sync.OnceFunc(func() { close(ge.gate) })
			defer func() { release(); srv.Close(); ts.Close() }()
			awaitStarted := func() {
				t.Helper()
				select {
				case <-ge.started:
				case <-time.After(5 * time.Second):
					t.Fatal("the batch's refresh never started")
				}
			}

			sent := 0
			for b := 0; b < 3; b++ {
				batch := testBatch(b*10, 10)
				acks := make(chan int, 1)
				go func() { acks <- drain(postJSON(t, ts, "/v1/ingest", batch)) }()
				awaitStarted()
				select {
				case code := <-acks:
					t.Fatalf("ingest %d answered %d before its refresh published", b, code)
				case <-time.After(100 * time.Millisecond):
				}
				ge.gate <- struct{}{}
				if code := <-acks; code != http.StatusOK {
					t.Fatalf("ingest %d = %d, want 200", b, code)
				}
				sent += len(batch)
				resp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Fatal(err)
				}
				var st statsReply
				decodeInto(t, resp, &st)
				if st.Records < sent || st.Pending != 0 || !st.Refreshed {
					t.Fatalf("first stats after ack %d: records %d pending %d refreshed %v, want records >= %d, nothing pending",
						b, st.Records, st.Pending, st.Refreshed, sent)
				}
			}
		})
	}
}

// TestConcurrentIngestAndQuery hammers ingest and the read endpoints
// together (run under -race in CI). Every query
// response must be one internally coherent generation: sources sorted
// most-trustworthy-first, the k-prefix consistent with itself,
// probabilities in range — the same invariants the engine's
// generation-coherence test pins, observed through the HTTP surface.
func TestConcurrentIngestAndQuery(t *testing.T) {
	// lanes=1: the one ingest worker.
	t.Run("lanes=1", func(t *testing.T) {
		srv := New(testEngine(t), Options{Queue: 128})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp := postJSON(t, ts, "/v1/ingest", testBatch(0, 30))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		waitRefreshed(t, ts)

		const writers, readers, rounds = 2, 4, 20
		var wg sync.WaitGroup
		errc := make(chan error, writers+readers)
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(wr int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					resp := postJSON(t, ts, "/v1/ingest", testBatch(1000+wr*1000+i*10, 5))
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						errc <- fmt.Errorf("writer %d: ingest = %d", wr, resp.StatusCode)
						return
					}
				}
			}(wr)
		}
		for rd := 0; rd < readers; rd++ {
			wg.Add(1)
			go func(rd int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					resp, err := http.Get(ts.URL + "/v1/top-sources")
					if err != nil {
						errc <- err
						return
					}
					var srcs []kbt.Source
					if err := json.NewDecoder(resp.Body).Decode(&srcs); err != nil {
						resp.Body.Close()
						errc <- fmt.Errorf("reader %d: %v", rd, err)
						return
					}
					resp.Body.Close()
					if len(srcs) == 0 {
						errc <- fmt.Errorf("reader %d: empty source view", rd)
						return
					}
					for j := range srcs {
						if srcs[j].KBT < 0 || srcs[j].KBT > 1 {
							errc <- fmt.Errorf("reader %d: KBT %v out of range", rd, srcs[j].KBT)
							return
						}
						if j > 0 && (srcs[j].KBT > srcs[j-1].KBT ||
							(srcs[j].KBT == srcs[j-1].KBT && srcs[j].Name < srcs[j-1].Name)) {
							errc <- fmt.Errorf("reader %d: source view out of order at %d", rd, j)
							return
						}
					}
					resp, err = http.Get(ts.URL + "/v1/top-triples?k=5")
					if err != nil {
						errc <- err
						return
					}
					var trs []kbt.TripleVerdict
					if err := json.NewDecoder(resp.Body).Decode(&trs); err != nil {
						resp.Body.Close()
						errc <- fmt.Errorf("reader %d: %v", rd, err)
						return
					}
					resp.Body.Close()
					for _, tv := range trs {
						if tv.Probability < 0 || tv.Probability > 1 {
							errc <- fmt.Errorf("reader %d: probability %v", rd, tv.Probability)
							return
						}
					}
				}
			}(rd)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	})
}

// TestIngestClockCountsEveryAck reads /v1/stats' ingest block beside a
// stream of ingests (run under -race in CI). Every read counts at least the
// batches acked before it and at most those posted by its end, the count and
// the phase totals never fall, and once the writers are done the count is
// the number of acks.
func TestIngestClockCountsEveryAck(t *testing.T) {
	srv := New(testEngine(t), Options{Queue: 128})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	clock := func() (ingestReply, error) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			return ingestReply{}, err
		}
		defer resp.Body.Close()
		var st statsReply
		err = json.NewDecoder(resp.Body).Decode(&st)
		return st.Ingest, err
	}

	const writers, readers, rounds = 2, 3, 15
	var posted, acked atomic.Int64
	var wg, rg sync.WaitGroup
	errc := make(chan error, writers+readers)
	stop := make(chan struct{})
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body, _ := json.Marshal(testBatch(wr*1000+i*10, 5))
				posted.Add(1)
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				if code := drain(resp); code != http.StatusOK {
					errc <- fmt.Errorf("writer %d: ingest = %d", wr, code)
					return
				}
				acked.Add(1)
			}
		}(wr)
	}
	for rd := 0; rd < readers; rd++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			var prev ingestReply
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := acked.Load()
				c, err := clock()
				hi := posted.Load()
				if err != nil {
					errc <- err
					return
				}
				if c.Batches < lo || c.Batches > hi {
					errc <- fmt.Errorf("clock counts %d batches, want between %d acked and %d posted", c.Batches, lo, hi)
					return
				}
				if c.Batches < prev.Batches || c.ReadMS < prev.ReadMS || c.DecodeMS < prev.DecodeMS ||
					c.QueueWaitMS < prev.QueueWaitMS || c.ApplyMS < prev.ApplyMS ||
					c.RefreshMS < prev.RefreshMS || c.ReplyMS < prev.ReplyMS {
					errc <- fmt.Errorf("clock went back: %+v after %+v", c, prev)
					return
				}
				prev = c
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	c, err := clock()
	if err != nil {
		t.Fatal(err)
	}
	if c.Batches != writers*rounds || c.Batches != acked.Load() {
		t.Fatalf("clock counts %d batches after %d acks", c.Batches, acked.Load())
	}
	if c.DecodeMS <= 0 || c.ApplyMS <= 0 || c.RefreshMS <= 0 || c.ReadMS < 0 || c.QueueWaitMS < 0 || c.ReplyMS < 0 {
		t.Fatalf("phase totals %+v: decode, apply and refresh must have taken time", c)
	}
}

// TestShutdownIngestReturns503WithRetryAfter pins the shutdown refusal: once
// Close has begun, ingest is refused with a retryable 503 carrying a
// Retry-After header, not a hung request or a plain error.
func TestShutdownIngestReturns503WithRetryAfter(t *testing.T) {
	srv := New(testEngine(t), Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Close()

	resp := postJSON(t, ts, "/v1/ingest", testBatch(0, 4))
	var envelope errorReply
	decodeInto(t, resp, &envelope)
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Code != "shutting_down" {
		t.Fatalf("post-Close ingest = %d %+v, want 503 shutting_down", resp.StatusCode, envelope)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shutdown 503 missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("shutdown Retry-After = %q, want a positive integer of seconds", ra)
	}
}

// TestClosedEngineWritesReturn503 pins the other half of a shutdown: the
// server is still up but its durable engine was closed under it. Ingest and
// refresh refuse alike — 503 engine_closed with a Retry-After — since a
// closed engine says nothing about the request.
func TestClosedEngineWritesReturn503(t *testing.T) {
	d, err := kbt.OpenDurable(t.TempDir(), kbt.DefaultEngineOptions(), kbt.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		path string
		body any
	}{{"/v1/ingest", testBatch(0, 4)}, {"/v1/refresh", nil}} {
		resp := postJSON(t, ts, tc.path, tc.body)
		var envelope errorReply
		decodeInto(t, resp, &envelope)
		if resp.StatusCode != http.StatusServiceUnavailable || envelope.Code != "engine_closed" {
			t.Errorf("%s on a closed engine = %d %+v, want 503 engine_closed", tc.path, resp.StatusCode, envelope)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s on a closed engine: 503 without Retry-After", tc.path)
		}
	}
}

// TestStatsReportsLogGauges: /v1/stats carries a durable engine's log size on
// disk and its last checkpoint's age as Health reports them, and omits the
// age before the first checkpoint.
func TestStatsReportsLogGauges(t *testing.T) {
	d, err := kbt.OpenDurable(t.TempDir(), testOptions(), kbt.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := New(d, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	stats := func() statsReply {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st statsReply
		decodeInto(t, resp, &st)
		return st
	}

	if resp := postJSON(t, ts, "/v1/ingest", testBatch(0, 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	st := stats()
	if h := d.Health(); st.LogBytes != h.LogBytes || st.LogBytes == 0 || st.CheckpointAgeMS != 0 {
		t.Fatalf("before a checkpoint: log_bytes %d, checkpoint_age_ms %g; Health has %d, want the age omitted",
			st.LogBytes, st.CheckpointAgeMS, h.LogBytes)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if st := stats(); st.LogBytes != d.Health().LogBytes || st.CheckpointAgeMS < 2 {
		t.Fatalf("after a checkpoint: log_bytes %d (Health %d), checkpoint_age_ms %g, want at least 2",
			st.LogBytes, d.Health().LogBytes, st.CheckpointAgeMS)
	}
}

// faultyEngine wraps the in-memory engine with an injectable health report
// and write-path error, standing in for a degraded DurableEngine.
type faultyEngine struct {
	*kbt.Engine
	mu        sync.Mutex
	health    kbt.HealthStatus
	ingestErr error
}

func (f *faultyEngine) setFault(state kbt.HealthState, retry time.Duration, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.health.State = state
	f.health.RetryAfter = retry
	if err != nil {
		f.health.Faults++
		f.health.LastFault = err.Error()
	}
	f.ingestErr = err
}

func (f *faultyEngine) gate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ingestErr
}

func (f *faultyEngine) Ingest(batch ...kbt.Extraction) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Engine.Ingest(batch...)
}

func (f *faultyEngine) IngestKeyed(key string, batch ...kbt.Extraction) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Engine.IngestKeyed(key, batch...)
}

func (f *faultyEngine) Refresh() (*kbt.Result, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Engine.Refresh()
}

func (f *faultyEngine) Health() kbt.HealthStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.health
	h.WALBytes = 4096
	h.CheckpointWatermark = 17
	return h
}

// TestReadOnlyWritesReturn503 pins the degraded-mode write contract: while
// the engine refuses writes with ErrReadOnly, ingest and refresh both map to
// 503 read_only with the engine's probe delay as Retry-After, and reads keep
// serving the last generation. Healing clears the gate.
func TestReadOnlyWritesReturn503(t *testing.T) {
	fe := &faultyEngine{Engine: testEngine(t)}
	srv := New(fe, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Seed a generation while healthy.
	resp := postJSON(t, ts, "/v1/ingest", testBatch(0, 12))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts, "/v1/refresh", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed refresh = %d", resp.StatusCode)
	}

	fe.setFault(kbt.StateDegraded, 2500*time.Millisecond,
		fmt.Errorf("%w: injected disk fault", kbt.ErrReadOnly))

	resp = postJSON(t, ts, "/v1/ingest", testBatch(100, 4))
	var envelope errorReply
	decodeInto(t, resp, &envelope)
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Code != "read_only" {
		t.Fatalf("read-only ingest = %d %+v, want 503 read_only", resp.StatusCode, envelope)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("ingest Retry-After = %q, want %q (2.5s probe delay rounded up)", got, "3")
	}
	resp = postJSON(t, ts, "/v1/refresh", nil)
	decodeInto(t, resp, &envelope)
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Code != "read_only" {
		t.Fatalf("read-only refresh = %d %+v, want 503 read_only", resp.StatusCode, envelope)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("refresh Retry-After = %q, want %q", got, "3")
	}

	// Reads still serve the last generation.
	resp, err := http.Get(ts.URL + "/v1/top-sources")
	if err != nil {
		t.Fatal(err)
	}
	var srcs []kbt.Source
	decodeInto(t, resp, &srcs)
	if resp.StatusCode != http.StatusOK || len(srcs) == 0 {
		t.Fatalf("degraded top-sources = %d, %d sources, want 200 and data", resp.StatusCode, len(srcs))
	}

	// Healing clears the gate: the deferred batch applies.
	fe.setFault(kbt.StateHealthy, 0, nil)
	resp = postJSON(t, ts, "/v1/ingest", testBatch(100, 4))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-heal ingest = %d, want 200", resp.StatusCode)
	}
}

// TestHealthzReportsEngineState pins /v1/healthz against a health-reporting
// engine through all three states: 200 healthy, 503 degraded, 503 readonly —
// non-healthy always with a Retry-After header.
func TestHealthzReportsEngineState(t *testing.T) {
	fe := &faultyEngine{Engine: testEngine(t)}
	srv := New(fe, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	check := func(wantStatus int, wantState, wantRetry string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var reply healthReply
		decodeInto(t, resp, &reply)
		if resp.StatusCode != wantStatus || reply.Status != wantState {
			t.Fatalf("healthz = %d %+v, want %d %q", resp.StatusCode, reply, wantStatus, wantState)
		}
		if got := resp.Header.Get("Retry-After"); got != wantRetry {
			t.Fatalf("healthz Retry-After = %q, want %q", got, wantRetry)
		}
	}

	check(http.StatusOK, "healthy", "")

	fe.setFault(kbt.StateDegraded, 4*time.Second,
		fmt.Errorf("%w: wal: fsync: input/output error", kbt.ErrReadOnly))
	check(http.StatusServiceUnavailable, "degraded", "4")

	fe.setFault(kbt.StateSealed, 0,
		fmt.Errorf("%w: wal: corrupt segment", kbt.ErrReadOnly))
	check(http.StatusServiceUnavailable, "readonly", "1")
}

// TestStatsReportsHealthBlock pins the /v1/stats health block: present (with
// counters and storage watermarks) on a health-reporting engine, absent on a
// plain in-memory engine.
func TestStatsReportsHealthBlock(t *testing.T) {
	fe := &faultyEngine{Engine: testEngine(t)}
	srv := New(fe, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fe.setFault(kbt.StateDegraded, time.Second,
		fmt.Errorf("%w: injected disk fault", kbt.ErrReadOnly))
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsReply
	decodeInto(t, resp, &st)
	if st.Health != "degraded" || st.Faults != 1 || st.LastFault == "" {
		t.Fatalf("stats health block = %+v, want degraded with 1 fault", st)
	}
	if st.WALBytes != 4096 || st.CheckpointWatermark != 17 {
		t.Fatalf("stats watermarks = wal %d, ckpt %d, want 4096 and 17", st.WALBytes, st.CheckpointWatermark)
	}

	plain := New(testEngine(t), Options{})
	defer plain.Close()
	tsPlain := httptest.NewServer(plain)
	defer tsPlain.Close()
	resp, err = http.Get(tsPlain.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stPlain statsReply
	decodeInto(t, resp, &stPlain)
	if stPlain.Health != "" || stPlain.Faults != 0 || stPlain.WALBytes != 0 {
		t.Fatalf("plain-engine stats grew a health block: %+v", stPlain)
	}
}

// TestIdempotencyKeyRoutesWholeBatch pins the keyed-ingest contract: the
// Idempotency-Key header reaches the engine with the whole batch in one
// IngestKeyed call, and a resend of the same key acks without growing the
// engine.
func TestIdempotencyKeyRoutesWholeBatch(t *testing.T) {
	kr := &recordingEngine{Engine: testEngine(t)}
	srv := New(kr, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	batch := []kbt.Extraction{
		laneRecord("a.com", 0), laneRecord("b.com", 1), laneRecord("a.com", 2),
		laneRecord("b.com", 3), laneRecord("a.com", 4), laneRecord("b.com", 5),
	}

	resp := postKeyed(t, ts, "batch-1", batch)
	var ack map[string]int
	decodeInto(t, resp, &ack)
	if resp.StatusCode != http.StatusOK || ack["ingested"] != len(batch) {
		t.Fatalf("keyed ingest = %d, ack %v", resp.StatusCode, ack)
	}
	if calls := kr.snapshot(); len(calls) != 1 || calls[0].key != "batch-1" || len(calls[0].batch) != len(batch) {
		t.Fatalf("keyed batch reached the engine as %v, want one whole IngestKeyed call", calls)
	}
	if got := kr.Len(); got != len(batch) {
		t.Fatalf("engine holds %d records, want %d", got, len(batch))
	}

	// Resend of the acked key: 2xx ack, nothing re-applied.
	resp = postKeyed(t, ts, "batch-1", batch)
	decodeInto(t, resp, &ack)
	if resp.StatusCode != http.StatusOK || ack["ingested"] != len(batch) {
		t.Fatalf("keyed resend = %d, ack %v, want the same 200 ack", resp.StatusCode, ack)
	}
	if got := kr.Len(); got != len(batch) {
		t.Fatalf("resend grew the engine to %d records, want %d", got, len(batch))
	}
}

// TestStatsCountsCappedRefreshes: /v1/stats' refresh block carries the
// engine's cumulative counts of refreshes that stopped at the iteration cap:
// after each acked ingest (which has refreshed) the count of the estimate's
// is the number of refreshes so far that reported themselves unconverged.
func TestStatsCountsCappedRefreshes(t *testing.T) {
	srv := New(testEngine(t), Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	capped := 0
	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts, "/v1/ingest", testBatch(8*i, 8))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d = %d", i, resp.StatusCode)
		}
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st statsReply
		decodeInto(t, resp, &st)
		if st.Refresh == nil {
			t.Fatalf("ingest %d: no refresh block", i)
		}
		if !st.Refresh.Converged {
			capped++
		}
		if st.Refresh.CappedRefreshes != capped || st.Refresh.CappedFusionRefreshes != 0 {
			t.Fatalf("ingest %d: capped refreshes %d (fusion %d), want %d (0)",
				i, st.Refresh.CappedRefreshes, st.Refresh.CappedFusionRefreshes, capped)
		}
	}
	if capped == 0 {
		t.Fatal("fixture: every refresh converged within 3 iterations")
	}
}
