package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"kbt"
)

const (
	visibleTimeout = 10 * time.Second // a wait this long is a counted failure, not a hang
	pollEvery      = time.Millisecond
	traceHeader    = "X-Bench-Trace" // "<trace id>:<client span id>", read by the traced handler
)

// conn is one persistent HTTP connection: a client whose transport may hold
// exactly one. The benchmark owns two, one for ingest and its visibility
// polls, one for the paced queries.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(addr string) *conn {
	return &conn{
		base: "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   visibleTimeout,
		},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx reply; anything else —
// a refusal, an error status, a transport error — is an error.
func (c *conn) do(method, path string, body []byte, header map[string]string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *conn) get(path string) ([]byte, error) { return c.do(http.MethodGet, path, nil, nil) }

// statsView is the part of /v1/stats the visibility wait reads.
type statsView struct {
	Records int `json:"records"`
	Pending int `json:"pending"`
}

// encodedBatch is one ingest request, encoded during set-up.
type encodedBatch struct {
	key     string
	body    []byte
	records int
}

func encodeBatches(prefix string, batches [][]kbt.Extraction) ([]encodedBatch, error) {
	out := make([]encodedBatch, len(batches))
	for i, b := range batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		out[i] = encodedBatch{key: prefix + strconv.Itoa(i), body: body, records: len(b)}
	}
	return out, nil
}

// cycleSample is what the feeder measured for one batch.
type cycleSample struct {
	ackMS, visibleMS float64
	polls            int
}

// feeder is the closed-loop ingest client: one connection, one batch in
// flight; the next is sent only once the previous is visible.
type feeder struct {
	c    *conn
	tr   *tracer
	sent int // records acknowledged so far
}

// cycle posts one keyed batch, waits for the ack, then polls /v1/stats on the
// same connection until the batch is part of a published generation.
func (f *feeder) cycle(b encodedBatch, traceID int32) (cycleSample, error) {
	var s cycleSample
	start := time.Now()
	root := f.tr.begin("client.ingest", 0, traceID)
	hdr := map[string]string{"Content-Type": "application/json", "Idempotency-Key": b.key}
	if f.tr != nil {
		hdr[traceHeader] = fmt.Sprintf("%d:%d", traceID, root)
	}
	_, err := f.c.do(http.MethodPost, "/v1/ingest", b.body, hdr)
	f.tr.end(root)
	if err != nil {
		return s, err
	}
	s.ackMS = float64(time.Since(start)) / 1e6
	f.sent += b.records

	wait := f.tr.begin("client.visible_wait", 0, traceID)
	defer f.tr.end(wait)
	for {
		body, err := f.c.get("/v1/stats")
		if err != nil {
			return s, err
		}
		s.polls++
		var st statsView
		if err := json.Unmarshal(body, &st); err != nil {
			return s, fmt.Errorf("stats reply: %w", err)
		}
		if st.Records >= f.sent && st.Pending == 0 {
			s.visibleMS = float64(time.Since(start)) / 1e6
			return s, nil
		}
		if time.Since(start) > visibleTimeout {
			return s, fmt.Errorf("batch %s not visible after %v", b.key, visibleTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// querySample is one paced query: its latency from the time it was due, and
// how late the generator actually sent it.
type querySample struct {
	endpoint      string
	latMS, lateMS float64
}

// querier is the open-loop read client: queries are due at a fixed rate on
// one connection and timed from their due time, so a stall in the server
// shows in every query it delayed, not only in the one it caught.
type querier struct {
	c         *conn
	tr        *tracer
	rate      int
	endpoints []string
	sites     []string
	items     []string

	samples []querySample
	failed  int
}

func (q *querier) path(i int) (endpoint, path string) {
	endpoint = q.endpoints[i%len(q.endpoints)]
	switch endpoint {
	case epTopSources:
		path = "/v1/top-sources?k=10"
	case epSource:
		path = "/v1/source?name=" + url.QueryEscape(q.sites[i%len(q.sites)])
	case epFused:
		path = "/v1/fused?item=" + url.QueryEscape(q.items[i%len(q.items)])
	case epTopTriples:
		path = "/v1/top-triples?k=10"
	case epCopyDeps:
		path = "/v1/copy-deps?k=10"
	}
	return endpoint, path
}

// run issues queries until stop is set. Trace ids of queries are negative, so
// they never collide with a batch's.
func (q *querier) run(stop *atomic.Bool) {
	start := time.Now()
	interval := time.Second / time.Duration(q.rate)
	for i := 0; !stop.Load(); i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		endpoint, path := q.path(i)
		sent := time.Now()
		traceID := int32(-1 - i)
		root := q.tr.begin("client.query", 0, traceID)
		var hdr map[string]string
		if q.tr != nil {
			hdr = map[string]string{traceHeader: fmt.Sprintf("%d:%d", traceID, root)}
		}
		_, err := q.c.do(http.MethodGet, path, nil, hdr)
		q.tr.end(root)
		if err != nil {
			q.failed++
			continue
		}
		q.samples = append(q.samples, querySample{
			endpoint: endpoint,
			latMS:    float64(time.Since(due)) / 1e6,
			lateMS:   float64(sent.Sub(due)) / 1e6,
		})
	}
}
