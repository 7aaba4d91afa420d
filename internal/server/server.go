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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
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
	// Lanes is the number of workers draining the ingest queue (default 1).
	// A batch is never split: whichever worker takes it hands it to the
	// engine in one call — one validation, one log entry and one fsync on a
	// durable engine — so a refused batch has applied nothing, at any value.
	// More than one moves the automatic refresh off the ingest path (see
	// RefreshEvery) and lets small batches pass a large one still being
	// validated; what must be serial, the engine serialises itself.
	Lanes int
	// Queue bounds the number of batches admitted but not yet taken by a
	// worker; a POST /v1/ingest that finds the queue full is refused with
	// 429 (default 64).
	Queue int
	// RefreshEvery refreshes after every N applied batches (default 1;
	// negative disables automatic refreshes — POST /v1/refresh still
	// works). With one lane the refresh runs inline on the ingest worker;
	// with more it runs on a dedicated refresher goroutine so the workers
	// keep draining while the model re-estimates (the engine supports
	// concurrent Ingest during Refresh), and due refreshes arriving while
	// one is already running coalesce into a single follow-up pass.
	RefreshEvery int
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
}

func (o *Options) fill() {
	if o.Lanes <= 0 {
		o.Lanes = 1
	}
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.RefreshEvery == 0 {
		o.RefreshEvery = 1
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
}

// job is one admitted batch: the records in request order, the client's
// idempotency key ("" when the request carried none) and where the worker
// reports the engine's verdict to the waiting handler.
type job struct {
	batch []kbt.Extraction
	key   string
	done  chan error
}

// Server is an http.Handler. Ingest funnels through one bounded queue — the
// backpressure boundary — drained by Options.Lanes workers; queries go
// straight to the engine's lock-free read path.
type Server struct {
	eng   Engine
	opt   Options
	queue chan job

	mu       sync.Mutex
	applied  int    // batches applied since the last automatic refresh
	lastErr  string // most recent background refresh failure, "" when none
	stopping bool

	wg            sync.WaitGroup // ingest workers
	kick          chan struct{}  // nil with one lane (inline refresh)
	refresherDone chan struct{}
	stopped       chan struct{}
	mux           *http.ServeMux
}

// New starts a server (and its ingest workers) on eng.
func New(eng Engine, opt Options) *Server {
	opt.fill()
	s := &Server{
		eng:           eng,
		opt:           opt,
		queue:         make(chan job, opt.Queue),
		refresherDone: make(chan struct{}),
		stopped:       make(chan struct{}),
		mux:           http.NewServeMux(),
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
	for i := 0; i < opt.Lanes; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opt.Lanes > 1 {
		s.kick = make(chan struct{}, 1)
		go s.refresher()
	} else {
		close(s.refresherDone)
	}
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

// Close drains the queue (every admitted batch is still applied and acked),
// stops the workers, and lets a running background refresh finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		<-s.stopped
		return
	}
	s.stopping = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	if s.kick != nil {
		close(s.kick)
	}
	<-s.refresherDone
	close(s.stopped)
}

// worker applies admitted batches, each in one engine call (both engines
// define an empty key as a plain Ingest), and acks only once that call has
// returned: a 2xx /v1/ingest response is an applied — on a durable engine,
// fsync-ed — batch, never a merely admitted one.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		err := s.eng.IngestKeyed(j.key, j.batch...)
		j.done <- err
		if err == nil {
			s.batchApplied()
		}
	}
}

// batchApplied does the refresh bookkeeping after a batch acked.
func (s *Server) batchApplied() {
	s.mu.Lock()
	s.applied++
	refresh := s.opt.RefreshEvery > 0 && s.applied >= s.opt.RefreshEvery
	if refresh {
		s.applied = 0
	}
	s.mu.Unlock()
	if !refresh {
		return
	}
	if s.kick == nil {
		s.refreshNow()
		return
	}
	select {
	case s.kick <- struct{}{}: // refresher picks it up
	default: // one already pending; it will cover this batch too
	}
}

func (s *Server) refreshNow() {
	_, rerr := s.eng.Refresh()
	s.mu.Lock()
	if rerr != nil {
		s.lastErr = rerr.Error()
	} else {
		s.lastErr = ""
	}
	s.mu.Unlock()
}

func (s *Server) refresher() {
	defer close(s.refresherDone)
	for range s.kick {
		s.refreshNow()
	}
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
	var batch []kbt.Extraction
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, "malformed_batch", "malformed batch: "+err.Error())
		return
	}
	// The body is one array and nothing else: a second value, or garbage,
	// after it would otherwise be dropped behind a 200.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeError(w, http.StatusBadRequest, "malformed_batch", "malformed batch: data after the array")
		return
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "empty batch")
		return
	}
	// An Idempotency-Key header makes the batch retry-safe: the engine acks
	// (without re-applying) a key it has already durably applied.
	j := job{batch: batch, key: r.Header.Get("Idempotency-Key"), done: make(chan error, 1)}
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
	if err := <-j.done; err != nil {
		// Anything but a storage refusal is the engine's validation: it
		// checks the whole batch before applying any of it.
		s.writeEngineError(w, err, http.StatusBadRequest, "invalid_record")
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"ingested": len(batch)})
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
	if _, err := s.eng.Refresh(); err != nil {
		s.writeEngineError(w, err, http.StatusConflict, "refresh_failed")
		return
	}
	stats, _ := s.eng.Stats()
	writeJSON(w, http.StatusOK, stats)
}

// parseK reads ?k=N (0 or absent = all).
func parseK(r *http.Request) (int, error) {
	q := r.URL.Query().Get("k")
	if q == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(q)
	if err != nil {
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

// statsReply is the /v1/stats document. The health block (health through
// checkpoint_watermark) appears only when the engine reports health — i.e.
// when serving a durable engine.
type statsReply struct {
	Records   int               `json:"records"`
	Pending   int               `json:"pending"`
	Queued    int               `json:"queued"`
	Lanes     int               `json:"lanes"`
	Refreshed bool              `json:"refreshed"`
	Refresh   *kbt.RefreshStats `json:"refresh,omitempty"`
	LastError string            `json:"last_error,omitempty"`

	Health              string `json:"health,omitempty"`
	Faults              uint64 `json:"faults,omitempty"`
	Heals               uint64 `json:"heals,omitempty"`
	LastFault           string `json:"last_fault,omitempty"`
	WALBytes            int64  `json:"wal_bytes,omitempty"`
	CheckpointWatermark uint64 `json:"checkpoint_watermark,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := statsReply{
		Records: s.eng.Len(),
		Pending: s.eng.Pending(),
		Queued:  len(s.queue),
		Lanes:   s.opt.Lanes,
	}
	if st, ok := s.eng.Stats(); ok {
		reply.Refreshed = true
		reply.Refresh = &st
	}
	if hr, ok := s.eng.(HealthReporter); ok {
		h := hr.Health()
		reply.Health = h.State.String()
		reply.Faults = h.Faults
		reply.Heals = h.Heals
		reply.LastFault = h.LastFault
		reply.WALBytes = h.WALBytes
		reply.CheckpointWatermark = h.CheckpointWatermark
	}
	s.mu.Lock()
	reply.LastError = s.lastErr
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}
