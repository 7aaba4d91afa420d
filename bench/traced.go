package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kbt"
	"kbt/internal/server"
	"kbt/internal/triple"
)

// tracedEngine is the server.Engine the traced run hands to server.New: a
// *kbt.DurableEngine with a span around each call. The server never tells its
// engine which request a call belongs to, but the benchmark has one batch and
// one query in flight at most, so "the ingest request being served" and "the
// query being served" identify the parent.
type tracedEngine struct {
	d   *kbt.DurableEngine
	tr  *tracer
	dir string

	curIngest, curQuery atomic.Int64 // trace id <<32 | handler span id

	// Written by the one lane worker only, read after the server stopped.
	refreshes   int
	hasChain    bool
	checkpoints int
	compactions int

	published   atomic.Bool // a generation was published and nothing has read it yet
	mu          sync.Mutex
	firstViewMS []float64 // duration of the first read after each publication
}

func pack(trace, id int32) int64       { return int64(trace)<<32 | int64(uint32(id)) }
func unpack(v int64) (trace, id int32) { return int32(v >> 32), int32(uint32(v)) }

func (e *tracedEngine) ingestSpan(name string) int32 {
	trace, parent := unpack(e.curIngest.Load())
	return e.tr.begin(name, parent, trace)
}

func (e *tracedEngine) Ingest(batch ...kbt.Extraction) error { return e.IngestKeyed("", batch...) }

func (e *tracedEngine) IngestKeyed(key string, batch ...kbt.Extraction) error {
	defer e.tr.end(e.ingestSpan("kbt.ingest_keyed"))
	return e.d.IngestKeyed(key, batch...)
}

// Refresh refreshes and then, on every checkpointEvery-th refresh, takes the
// checkpoint the binary's -checkpoint-every cadence would have taken inside
// the same call — explicitly, so that it has a span of its own. A checkpoint
// that leaves no delta file behind rewrote the base: a compaction.
func (e *tracedEngine) Refresh() (*kbt.Result, error) {
	id := e.ingestSpan("kbt.refresh")
	res, err := e.d.Refresh()
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	e.published.Store(true)
	e.refreshes++
	if e.refreshes%checkpointEvery != 0 {
		return res, nil
	}
	trace, parent := unpack(e.curIngest.Load())
	start := time.Since(e.tr.t0)
	if err := e.d.Checkpoint(); err != nil {
		return nil, err
	}
	end := time.Since(e.tr.t0)
	deltas, err := filepath.Glob(filepath.Join(e.dir, "checkpoint-*.delta"))
	if err != nil {
		return nil, err
	}
	name := "kbt.checkpoint"
	if e.hasChain && len(deltas) == 0 {
		name = "kbt.compact"
		e.compactions++
	} else {
		e.checkpoints++
	}
	e.hasChain = true
	e.tr.add(span{Parent: parent, Trace: trace, Name: name, Start: int64(start), End: int64(end)})
	if cur, ok := e.d.Current(); ok {
		res = cur // a compaction re-anchored the engine; serve what recovery would
	}
	return res, nil
}

// read wraps one query-path call in a span and notes the first read after a
// publication: views memoised per generation are built by whoever asks first.
func (e *tracedEngine) read(name string, call func()) {
	trace, parent := unpack(e.curQuery.Load())
	id := e.tr.begin(name, parent, trace)
	start := time.Now()
	call()
	ms := msSince(start)
	e.tr.end(id)
	if e.published.Swap(false) {
		e.mu.Lock()
		e.firstViewMS = append(e.firstViewMS, ms)
		e.mu.Unlock()
	}
}

func (e *tracedEngine) TopSources(k int) (out []kbt.Source, ok bool) {
	e.read("kbt.top_sources", func() { out, ok = e.d.TopSources(k) })
	return out, ok
}

func (e *tracedEngine) TopTriples(k int) (out []kbt.TripleVerdict, ok bool) {
	e.read("kbt.top_triples", func() { out, ok = e.d.TopTriples(k) })
	return out, ok
}

func (e *tracedEngine) CopyDeps() (out []kbt.CopyDependence, err error) {
	e.read("kbt.copy_deps", func() { out, err = e.d.CopyDeps() })
	return out, err
}

func (e *tracedEngine) Fused(item string) (out kbt.FusedItem, err error) {
	e.read("kbt.fused", func() { out, err = e.d.Fused(item) })
	return out, err
}

// The remaining calls are lookups the handlers make on the way; they get no
// span of their own and show up as handler self time.
func (e *tracedEngine) Validate(batch ...kbt.Extraction) error { return e.d.Validate(batch...) }
func (e *tracedEngine) Len() int                               { return e.d.Len() }
func (e *tracedEngine) Pending() int                           { return e.d.Pending() }
func (e *tracedEngine) Current() (*kbt.Result, bool)           { return e.d.Current() }
func (e *tracedEngine) Stats() (kbt.RefreshStats, bool)        { return e.d.Stats() }
func (e *tracedEngine) Health() kbt.HealthStatus               { return e.d.Health() }

// tracedHandler opens a server.<endpoint> span around server.Server, as a
// child of the client span named in the request's trace header.
type tracedHandler struct {
	inner http.Handler
	eng   *tracedEngine
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var trace, parent int32
	if _, err := fmt.Sscanf(r.Header.Get(traceHeader), "%d:%d", &trace, &parent); err != nil {
		trace, parent = 0, 0 // preload and the final checks carry no trace
	}
	endpoint := strings.ReplaceAll(strings.TrimPrefix(r.URL.Path, "/v1/"), "-", "_")
	id := h.eng.tr.begin("server."+endpoint, parent, trace)
	switch endpoint {
	case "ingest":
		h.eng.curIngest.Store(pack(trace, id))
	case "stats":
	default:
		h.eng.curQuery.Store(pack(trace, id))
	}
	h.inner.ServeHTTP(w, r)
	h.eng.tr.end(id)
}

// tracedServer is server.New over a durable engine, hosted by the benchmark
// behind its span-recording wrappers on a loopback port of its own.
type tracedServer struct {
	eng  *tracedEngine
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan error
}

func startTracedServer(w workload, dir string, tr *tracer) (*tracedServer, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := kbt.OpenDurable(dir, w.engineOptions(), kbt.DurableOptions{})
	if err != nil {
		return nil, err
	}
	ts := &tracedServer{eng: &tracedEngine{d: d, tr: tr, dir: dir}, done: make(chan error, 1)}
	ts.srv = server.New(ts.eng, server.Options{Lanes: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ts.srv.Close()
		d.Close()
		return nil, err
	}
	ts.addr = ln.Addr().String()
	ts.hs = &http.Server{Handler: &tracedHandler{inner: ts.srv, eng: ts.eng}}
	go func() { ts.done <- ts.hs.Serve(ln) }()
	return ts, nil
}

// stop shuts the listener, drains the lanes and closes the engine; it returns
// once the serving goroutine has exited.
func (ts *tracedServer) stop() error {
	_ = ts.hs.Close() // Serve's own error, read below, is what matters
	if err := <-ts.done; err != http.ErrServerClosed {
		return err
	}
	ts.srv.Close()
	return ts.eng.d.Close()
}

// spanMetrics derives the server and kbt layers' metrics from the traced
// run's spans. Spans of the preload carry trace 0 and are left out.
func spanMetrics(r *report, spans []span, eng *tracedEngine, ingestBodyBytes, ingestRecords int) {
	self := selfTimes(spans)
	byTrace := make(map[int32]map[string]span)
	var handlerMS, selfMS, queryUS []float64
	measured := spans[:0:0]
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		measured = append(measured, s)
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = make(map[string]span)
		}
		byTrace[s.Trace][s.Name] = s
		switch {
		case s.Name == "server.ingest":
			handlerMS = append(handlerMS, s.ms())
			selfMS = append(selfMS, float64(self[s.ID])/1e6)
		case s.Trace < 0 && strings.HasPrefix(s.Name, "server."):
			queryUS = append(queryUS, s.ms()*1e3)
		}
	}
	var preEngineMS []float64
	for _, m := range byTrace {
		h, ok1 := m["server.ingest"]
		k, ok2 := m["kbt.ingest_keyed"]
		if ok1 && ok2 {
			preEngineMS = append(preEngineMS, float64(k.Start-h.Start)/1e6)
		}
	}
	us := func(name string) float64 {
		xs := durationsMS(measured, name)
		return median(xs) * 1e3
	}
	r.set("server.ingest_handler_ms_p50", median(handlerMS))
	r.set("server.ingest_self_ms_p50", median(selfMS))
	r.set("server.pre_engine_ms_p50", median(preEngineMS))
	r.set("server.query_handler_us_p50", median(queryUS))
	r.set("server.body_bytes_per_record", float64(ingestBodyBytes)/float64(ingestRecords))
	r.set("kbt.ingest_keyed_ms_p50", median(durationsMS(measured, "kbt.ingest_keyed")))
	refresh := durationsMS(measured, "kbt.refresh")
	r.set("kbt.refresh_ms_p50", median(refresh))
	r.set("kbt.refresh_ms_p95", percentile(refresh, 95))
	r.set("kbt.checkpoint_ms_p50", median(durationsMS(spans, "kbt.checkpoint")))
	r.set("kbt.compact_ms_p50", median(durationsMS(spans, "kbt.compact")))
	r.set("kbt.checkpoints", float64(eng.checkpoints))
	r.set("kbt.compactions", float64(eng.compactions))
	r.set("kbt.top_sources_us_p50", us("kbt.top_sources"))
	r.set("kbt.top_triples_us_p50", us("kbt.top_triples"))
	r.set("kbt.fused_us_p50", us("kbt.fused"))
	r.set("kbt.copy_deps_us_p50", us("kbt.copy_deps"))
	r.set("kbt.first_view_after_publish_ms_p50", median(eng.firstViewMS))
}

// tracerCapacity holds a minute of the busiest workload's spans several times
// over; trace.dropped says if it ever did not.
const tracerCapacity = 1 << 18

// tsvPreloadRecords is how much of the base the TSV preload measurement feeds
// `kbt serve -data DIR file.tsv`, which logs and fsyncs once per record.
const tsvPreloadRecords = 5000

// traceServe is the per-layer run of a serve workload. It drives the real
// binary untraced over the cycles (the client layer, and the baseline for the
// tracing overhead), repeats them against the in-process traced server, and
// replays the same batches through the packages below the facade.
func traceServe(env *runEnv, w workload, seed int64, cycles int, r *report) error {
	in, ls, err := setUpServe(env, w, seed, cycles)
	if err != nil {
		return err
	}
	defer ls.stop()
	sv, loop, err := driveBinary(env, w, in, ls, 3, r)
	if err != nil {
		return err
	}
	untracedVisible := r.Metrics["visible_ms_p25"]
	ls.stop()

	// The same input against the traced server.
	tr := newTracer(tracerCapacity)
	dir := filepath.Join(env.work, "traced")
	ts, err := startTracedServer(w, dir, tr)
	if err != nil {
		return err
	}
	f := &feeder{c: newConn(ts.addr), tr: tr}
	if err := preloadOverHTTP(f, in.preload); err != nil {
		_ = ts.stop()
		return err
	}
	traced := runLoop(ts.addr, w, in, f, tr, nil)
	if err := noteLoop(r, in, traced); err != nil {
		_ = ts.stop()
		return err
	}
	tsv, err := fetchServed(f.c, w, in)
	if err == nil && loop.failed() == 0 && traced.failed() == 0 {
		if err := compareServed(sv, tsv); err != nil {
			r.fail("binary differs from the traced in-process server: %v", err)
		}
	}
	var byName []float64
	if res, ok := ts.eng.d.Current(); ok {
		for i := 0; i < 1000; i++ {
			start := time.Now()
			res.SourceByName(in.st.sites[i%len(in.st.sites)])
			byName = append(byName, float64(time.Since(start))/1e3)
		}
	}
	f.c.close()
	if serr := ts.stop(); serr != nil {
		return serr
	}
	if err != nil {
		return err
	}
	r.set("kbt.source_by_name_us_p50", median(byName))
	start := time.Now()
	d, err := kbt.OpenDurable(dir, w.engineOptions(), kbt.DurableOptions{})
	if err != nil {
		return err
	}
	r.set("kbt.recover_s", time.Since(start).Seconds())
	if err := d.Close(); err != nil {
		return err
	}

	spans := tr.spans()
	bodyBytes := 0
	for _, b := range in.cycles {
		bodyBytes += len(b.body)
	}
	spanMetrics(r, spans, ts.eng, bodyBytes, traced.records)
	var tracedVisible []float64
	for _, s := range traced.cycles {
		tracedVisible = append(tracedVisible, s.visibleMS)
	}
	r.set("trace.overhead_pct", (percentile(tracedVisible, 25)-untracedVisible)/untracedVisible*100)
	r.set("trace.spans", float64(len(spans)))
	r.set("trace.dropped", float64(tr.dropped.Load()))
	if tr.dropped.Load() > 0 {
		r.fail("the tracer dropped %d spans", tr.dropped.Load())
	}
	if err := writeTrace(filepath.Join(env.out, "trace_"+w.Name+".json"), spans); err != nil {
		return err
	}

	// Below the facade: the same batches through each package.
	preload := make([][]triple.Record, len(in.st.preload))
	var base []triple.Record
	for i, b := range in.st.preload {
		preload[i] = toRecords(b)
		base = append(base, preload[i]...)
	}
	batches := make([][]triple.Record, len(in.st.cycles))
	keys := make([]string, len(in.cycles))
	for i, b := range in.st.cycles {
		batches[i] = toRecords(b)
		keys[i] = in.cycles[i].key
	}
	if err := replayTSV(r, base); err != nil {
		return err
	}
	if err := replaySnapshots(r, w, base, batches); err != nil {
		return err
	}
	if err := replayEngine(r, w, preload, batches); err != nil {
		return err
	}
	if err := replayWAL(r, filepath.Join(env.work, "wal"), keys, batches); err != nil {
		return err
	}
	return tsvPreload(env, w, r, base)
}

// noteLoop adds a loop's operations to the report's counts.
func noteLoop(r *report, in *serveInput, loop loopResult) error {
	r.Attempted += len(in.cycles) + len(loop.queries) + loop.failedQueries
	r.Failed += loop.failed()
	if loop.firstErr != nil {
		r.fail("first failed operation: %v", loop.firstErr)
	}
	if loop.records == 0 || len(loop.queries) == 0 {
		return fmt.Errorf("nothing measured: %v", loop.firstErr)
	}
	r.Ops["cycles"] = len(in.cycles)
	r.Ops["records_ingested"] = loop.records
	return nil
}

// tsvPreload times `kbt serve -data DIR file.tsv` draining a TSV argument,
// which appends and fsyncs once per record.
func tsvPreload(env *runEnv, w workload, r *report, base []triple.Record) error {
	n := min(tsvPreloadRecords, len(base))
	path := filepath.Join(env.work, "preload.tsv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := triple.WriteTSV(f, &triple.Dataset{Records: base[:n]}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	dir := filepath.Join(env.work, "tsvdata")
	start := time.Now()
	proc, err := startServer(env.bin, append(w.serveArgs(dir), path)...)
	if err != nil {
		return err
	}
	r.set("cmd.preload_tsv_records_per_s", float64(n)/time.Since(start).Seconds())
	proc.kill()
	return nil
}
