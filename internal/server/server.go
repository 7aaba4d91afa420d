// Package server is the HTTP/JSON front end on a kbt engine: batched,
// backpressured ingest through one bounded queue of whole batches, and
// lock-free reads of the current generation — queries never block a running
// refresh, because the engine's read path is an atomic generation load.
//
// The API is versioned under /v1/; any other path is a 404. Every non-2xx
// response carries the uniform JSON envelope {"error": <message>, "code":
// <machine code>}.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kbt"
)

// Engine is what the server serves: the shared method set of kbt.Engine and
// kbt.DurableEngine.
type Engine interface {
	Ingest(batch ...kbt.Extraction) error
	IngestKeyed(key string, batch ...kbt.Extraction) error
	Validate(batch ...kbt.Extraction) error
	Len() int
	Pending() int
	Refresh() (*kbt.Result, error)
	Current() (*kbt.Result, bool)
	TopSources(k int) ([]kbt.Source, bool)
	TopTriples(k int) ([]kbt.TripleVerdict, bool)
	CopyDeps() ([]kbt.CopyDependence, error)
	Fused(item string) (kbt.FusedItem, error)
	Stats() (kbt.RefreshStats, bool)
}

// HealthReporter is the optional capability a durable engine adds: health
// state, fault/heal counters and storage watermarks. /v1/healthz and
// /v1/stats surface it when present; a plain in-memory engine is always
// reported healthy.
type HealthReporter interface {
	Health() kbt.HealthStatus
}

// Options configures New.
type Options struct {
	// Lanes is deprecated: 0 or 1 only, and New panics on any other value.
	// The server drains its queue with one worker. The field is deleted
	// with ROADMAP.md item 2(e), once the end-to-end benchmark stops setting
	// it.
	Lanes int
	// Queue bounds the number of batches admitted but not yet taken by the
	// worker; a POST /v1/ingest that finds the queue full is refused with
	// 429 (default 64).
	Queue int
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 8 << 20

// job is one admitted batch: the records in request order, the client's
// idempotency key ("" when the request carried none), when it was admitted
// and where the worker reports the engine's verdict to the waiting handler.
type job struct {
	batch    []kbt.Extraction
	key      string
	admitted time.Time
	done     chan error
}

// ingestClock is the ingest path on the process's own clock: the cumulative
// wall time of each phase, in nanoseconds, over every batch the server
// admitted and answered, and the count of those batches. A batch adds to it
// with atomics only, so the clock neither allocates nor locks, and
// /v1/stats reads it without waiting. The worker adds a batch's queue wait,
// apply and refresh before it hands the verdict back; the handler adds the
// read, decode and reply and counts the batch last, so a count always has
// its batches' phases in the totals beside it.
type ingestClock struct {
	batches                                        atomic.Int64
	read, decode, queueWait, apply, refresh, reply atomic.Int64
}

// Server is an http.Handler. Ingest funnels through one bounded queue — the
// backpressure boundary — drained by one worker; queries go straight to the
// engine's lock-free read path.
type Server struct {
	eng   Engine
	queue chan job

	mu       sync.Mutex
	lastErr  string // outcome of the most recent refresh, "" when it succeeded
	stopping bool

	clock ingestClock

	workerDone chan struct{}
	mux        *http.ServeMux
}

// New starts a server (and its ingest worker) on eng.
func New(eng Engine, opt Options) *Server {
	if opt.Lanes != 0 && opt.Lanes != 1 {
		panic(fmt.Sprintf("server: Lanes = %d, want 0 or 1", opt.Lanes))
	}
	if opt.Queue <= 0 {
		opt.Queue = 64
	}
	s := &Server{
		eng:        eng,
		queue:      make(chan job, opt.Queue),
		workerDone: make(chan struct{}),
		mux:        http.NewServeMux(),
	}
	s.handle(http.MethodPost, "/v1/ingest", s.handleIngest)
	s.handle(http.MethodPost, "/v1/refresh", s.handleRefresh)
	s.handle(http.MethodGet, "/v1/top-sources", s.handleTopSources)
	s.handle(http.MethodGet, "/v1/top-triples", s.handleTopTriples)
	s.handle(http.MethodGet, "/v1/source", s.handleSource)
	s.handle(http.MethodGet, "/v1/copy-deps", s.handleCopyDeps)
	s.handle(http.MethodGet, "/v1/fused", s.handleFused)
	s.handle(http.MethodGet, "/v1/healthz", s.handleHealthz)
	s.handle(http.MethodGet, "/v1/stats", s.handleStats)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "unknown path "+r.URL.Path)
	})
	go s.worker()
	return s
}

// handle registers h for exactly one method of a /v1 path; any other method
// (HEAD on a GET endpoint included) gets the method_not_allowed envelope, so
// each handler body starts at its real work.
func (s *Server) handle(method, path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", method+" only")
			return
		}
		h(w, r)
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the queue (every admitted batch is still applied, refreshed
// and acked) and stops the worker.
func (s *Server) Close() {
	s.mu.Lock()
	first := !s.stopping
	s.stopping = true
	s.mu.Unlock()
	if first {
		close(s.queue)
	}
	<-s.workerDone
}

// worker applies admitted batches, each in one engine call (both engines
// define an empty key as a plain Ingest), then refreshes, and only then
// acks: a 2xx /v1/ingest response is an applied — on a durable engine,
// fsync-ed — and published batch, so the client's next read sees it scored.
// A refresh failure does not change the batch's ack — the batch is applied
// either way — and shows up as last_error in /v1/stats.
func (s *Server) worker() {
	defer close(s.workerDone)
	for j := range s.queue {
		taken := time.Now()
		s.clock.queueWait.Add(int64(taken.Sub(j.admitted)))
		err := s.eng.IngestKeyed(j.key, j.batch...)
		applied := time.Now()
		s.clock.apply.Add(int64(applied.Sub(taken)))
		if err == nil {
			s.refresh()
			s.clock.refresh.Add(int64(time.Since(applied)))
		}
		j.done <- err
	}
}

// refresh runs one engine refresh and records its outcome as last_error:
// set on a failure, cleared on a success. The worker's refresh after every
// batch and POST /v1/refresh both go through it.
func (s *Server) refresh() error {
	_, err := s.eng.Refresh()
	s.mu.Lock()
	if err != nil {
		s.lastErr = err.Error()
	} else {
		s.lastErr = ""
	}
	s.mu.Unlock()
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorReply is the uniform non-2xx body: a human-readable message plus a
// stable machine-readable code (method_not_allowed, malformed_batch,
// empty_batch, invalid_record, queue_full, shutting_down, engine_closed,
// read_only, refresh_failed, bad_query, no_generation, unknown_source,
// unknown_item, copydetect_disabled, fusion_disabled, not_found).
type errorReply struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorReply{Error: msg, Code: code})
}

// writeRetryError is writeError plus a Retry-After header: every 429 and 503
// the server emits tells the client when trying again is worthwhile.
func writeRetryError(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, status, code, msg)
}

// retrySecs rounds a probe delay up to whole seconds, at least 1.
func retrySecs(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryAfterSeconds picks the Retry-After for a fault-driven refusal: the
// engine's time-to-next-probe when it reports health, else a flat 1s.
func (s *Server) retryAfterSeconds() int {
	if hr, ok := s.eng.(HealthReporter); ok {
		if h := hr.Health(); h.RetryAfter > 0 {
			return retrySecs(h.RetryAfter)
		}
	}
	return 1
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed_batch", "malformed batch: "+err.Error())
		return
	}
	read := time.Now()
	batch, ok := decodeCanonical(body)
	if !ok {
		if batch, err = decodeJSON(body); err != nil {
			writeError(w, http.StatusBadRequest, "malformed_batch", err.Error())
			return
		}
	}
	decoded := time.Now()
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "empty batch")
		return
	}
	// An Idempotency-Key header makes the batch retry-safe: the engine acks
	// (without re-applying) a key it has already durably applied.
	j := job{batch: batch, key: r.Header.Get("Idempotency-Key"), admitted: decoded, done: make(chan error, 1)}
	// Admission happens under mu so Close (which also takes mu before
	// closing the queue) can never race a send on a closed channel.
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		writeRetryError(w, http.StatusServiceUnavailable, "shutting_down", "shutting down", 1)
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		writeRetryError(w, http.StatusTooManyRequests, "queue_full", "ingest queue full, retry later", 1)
		return
	}
	err = <-j.done
	answered := time.Now()
	if err != nil {
		// Anything but a storage refusal is the engine's validation: it
		// checks the whole batch before applying any of it.
		s.writeEngineError(w, err, http.StatusBadRequest, "invalid_record")
	} else {
		writeJSON(w, http.StatusOK, map[string]int{"ingested": len(batch)})
	}
	// The reply sits in the connection's buffer until the handler returns,
	// so a client holding its answer finds the batch counted.
	s.clock.read.Add(int64(read.Sub(start)))
	s.clock.decode.Add(int64(decoded.Sub(read)))
	s.clock.reply.Add(int64(time.Since(answered)))
	s.clock.batches.Add(1)
}

// readBody reads a request body whole, under the 8 MiB bound; exceeding it
// is a read error. The buffer is presized from the client's Content-Length,
// capped at the bound: net/http hands a Content-Length body's last bytes over
// together with io.EOF, so a truthful client's body lands in one allocation,
// and a lying one only makes it grow.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := make([]byte, 0, presize(r.ContentLength))
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// presize is the body buffer's initial capacity for a client-set
// Content-Length: the length itself, never above the body bound (and 512
// bytes when the length is unknown).
func presize(contentLength int64) int {
	if contentLength < 0 {
		return 512
	}
	return int(min(contentLength, maxBodyBytes))
}

// decodeJSON is the encoding/json decode of an ingest body: one array of
// extractions, no unknown field, and nothing after it. It decodes every body
// decodeCanonical declines and is the reference that path agrees with; its
// errors are the malformed_batch messages.
func decodeJSON(body []byte) ([]kbt.Extraction, error) {
	var batch []kbt.Extraction
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return nil, errors.New("malformed batch: " + err.Error())
	}
	// The body is one array and nothing else: a second value, or garbage,
	// after it would otherwise be dropped behind a 200.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("malformed batch: data after the array")
	}
	return batch, nil
}

// writeEngineError answers a failed write-path call (ingest or refresh). The
// two refusals that are about the engine rather than the request are mapped
// the same on both endpoints, and both are retryable: read_only is a storage
// fault the engine is probing its way out of — with an Idempotency-Key,
// retryable even when this very request's fate is ambiguous — and
// engine_closed a shutdown. Any other error gets the endpoint's own status
// and code.
func (s *Server) writeEngineError(w http.ResponseWriter, err error, status int, code string) {
	switch {
	case errors.Is(err, kbt.ErrReadOnly):
		writeRetryError(w, http.StatusServiceUnavailable, "read_only", err.Error(), s.retryAfterSeconds())
	case errors.Is(err, kbt.ErrEngineClosed):
		writeRetryError(w, http.StatusServiceUnavailable, "engine_closed", err.Error(), 1)
	default:
		writeError(w, status, code, err.Error())
	}
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if err := s.refresh(); err != nil {
		s.writeEngineError(w, err, http.StatusConflict, "refresh_failed")
		return
	}
	stats, _ := s.eng.Stats()
	writeJSON(w, http.StatusOK, stats)
}

// parseK reads ?k=N (0 or absent = all; negative is refused).
func parseK(r *http.Request) (int, error) {
	q := r.URL.Query().Get("k")
	if q == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(q)
	if err != nil || k < 0 {
		return 0, fmt.Errorf("bad k %q", q)
	}
	return k, nil
}

func (s *Server) handleTopSources(w http.ResponseWriter, r *http.Request) {
	k, err := parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	srcs, ok := s.eng.TopSources(k)
	if !ok {
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
		return
	}
	writeJSON(w, http.StatusOK, srcs)
}

func (s *Server) handleTopTriples(w http.ResponseWriter, r *http.Request) {
	k, err := parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	trs, ok := s.eng.TopTriples(k)
	if !ok {
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
		return
	}
	writeJSON(w, http.StatusOK, trs)
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing name parameter")
		return
	}
	res, ok := s.eng.Current()
	if !ok {
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
		return
	}
	src, ok := res.SourceByName(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_source", "unknown source "+name)
		return
	}
	writeJSON(w, http.StatusOK, src)
}

// writeLayerError maps the engine's layer-query sentinel errors onto the
// uniform envelope: a disabled layer is a 409 (the request conflicts with
// the server's configuration, and retrying won't help), a missing
// generation is the usual retryable 503, and an unknown item is a 404.
func writeLayerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, kbt.ErrCopyDetectDisabled):
		writeError(w, http.StatusConflict, "copydetect_disabled", err.Error())
	case errors.Is(err, kbt.ErrFusionDisabled):
		writeError(w, http.StatusConflict, "fusion_disabled", err.Error())
	case errors.Is(err, kbt.ErrNoGeneration):
		writeRetryError(w, http.StatusServiceUnavailable, "no_generation", "no generation published yet", 1)
	case errors.Is(err, kbt.ErrUnknownItem):
		writeError(w, http.StatusNotFound, "unknown_item", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (s *Server) handleCopyDeps(w http.ResponseWriter, r *http.Request) {
	k, err := parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	deps, err := s.eng.CopyDeps()
	if err != nil {
		writeLayerError(w, err)
		return
	}
	if k > 0 && k < len(deps) {
		deps = deps[:k]
	}
	writeJSON(w, http.StatusOK, deps)
}

func (s *Server) handleFused(w http.ResponseWriter, r *http.Request) {
	item := r.URL.Query().Get("item")
	if item == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing item parameter")
		return
	}
	fi, err := s.eng.Fused(item)
	if err != nil {
		writeLayerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fi)
}

// healthReply is the /v1/healthz document. Status is healthy|degraded|
// readonly; a non-healthy report comes with a 503 and a Retry-After, so load
// balancers and retrying clients need no body parsing to do the right thing.
type healthReply struct {
	Status    string `json:"status"`
	Faults    uint64 `json:"faults,omitempty"`
	Heals     uint64 `json:"heals,omitempty"`
	LastFault string `json:"last_fault,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reply := healthReply{Status: kbt.StateHealthy.String()}
	if hr, ok := s.eng.(HealthReporter); ok {
		h := hr.Health()
		reply.Status = h.State.String()
		reply.Faults = h.Faults
		reply.Heals = h.Heals
		reply.LastFault = h.LastFault
		if h.State != kbt.StateHealthy {
			w.Header().Set("Retry-After", strconv.Itoa(retrySecs(h.RetryAfter)))
			writeJSON(w, http.StatusServiceUnavailable, reply)
			return
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// statsReply is the /v1/stats document. Refresh is the last refresh's
// kbt.RefreshStats, whose CappedRefreshes and CappedFusionRefreshes count
// every refresh since the engine was built. The health block (health through
// checkpoint_age_ms) appears only when the engine reports health — i.e.
// when serving a durable engine.
type statsReply struct {
	Records   int               `json:"records"`
	Pending   int               `json:"pending"`
	Queued    int               `json:"queued"`
	Refreshed bool              `json:"refreshed"`
	Refresh   *kbt.RefreshStats `json:"refresh,omitempty"`
	Ingest    ingestReply       `json:"ingest"`
	LastError string            `json:"last_error,omitempty"`

	Health              string  `json:"health,omitempty"`
	Faults              uint64  `json:"faults,omitempty"`
	Heals               uint64  `json:"heals,omitempty"`
	LastFault           string  `json:"last_fault,omitempty"`
	WALBytes            int64   `json:"wal_bytes,omitempty"`
	CheckpointWatermark uint64  `json:"checkpoint_watermark,omitempty"`
	LogBytes            int64   `json:"log_bytes,omitempty"`
	CheckpointAgeMS     float64 `json:"checkpoint_age_ms,omitempty"`
}

// ingestReply is /v1/stats' ingest block: the ingest clock's batch count and
// its cumulative phase totals in milliseconds. Read is the body read, decode
// the batch decode, queue_wait from admission until the worker takes the
// batch, apply its IngestKeyed call, refresh the refresh after it, and reply
// the writing of the answer.
type ingestReply struct {
	Batches     int64   `json:"batches"`
	ReadMS      float64 `json:"read_ms"`
	DecodeMS    float64 `json:"decode_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ApplyMS     float64 `json:"apply_ms"`
	RefreshMS   float64 `json:"refresh_ms"`
	ReplyMS     float64 `json:"reply_ms"`
}

// snapshot reads the clock: the count first, so every batch it counts has its
// phases in the totals read after it.
func (c *ingestClock) snapshot() ingestReply {
	ms := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / 1e6 }
	return ingestReply{
		Batches:     c.batches.Load(),
		ReadMS:      ms(&c.read),
		DecodeMS:    ms(&c.decode),
		QueueWaitMS: ms(&c.queueWait),
		ApplyMS:     ms(&c.apply),
		RefreshMS:   ms(&c.refresh),
		ReplyMS:     ms(&c.reply),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var reply statsReply
	// Each read below is a snapshot of its own, taken in this order — health
	// first, counters after — so no counter in a reply is older than the
	// health block beside it.
	if hr, ok := s.eng.(HealthReporter); ok {
		h := hr.Health()
		reply.Health = h.State.String()
		reply.Faults = h.Faults
		reply.Heals = h.Heals
		reply.LastFault = h.LastFault
		reply.WALBytes = h.WALBytes
		reply.CheckpointWatermark = h.CheckpointWatermark
		reply.LogBytes = h.LogBytes
		reply.CheckpointAgeMS = float64(h.CheckpointAge) / float64(time.Millisecond)
	}
	reply.Records = s.eng.Len()
	reply.Pending = s.eng.Pending()
	if st, ok := s.eng.Stats(); ok {
		reply.Refreshed = true
		reply.Refresh = &st
	}
	reply.Queued = len(s.queue)
	reply.Ingest = s.clock.snapshot()
	s.mu.Lock()
	reply.LastError = s.lastErr
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}
