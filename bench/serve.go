package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"kbt"
)

// serveInput is everything one serve run sends, generated and encoded from
// the seed during set-up.
type serveInput struct {
	st      *stream
	preload []encodedBatch
	cycles  []encodedBatch
}

func makeServeInput(w workload, seed int64, cycles int) (*serveInput, error) {
	st := buildStream(seed, w.gen, w.groupItems, w.baseRecords, w.preloadSize, cycles, w.batchSize)
	pre, err := encodeBatches("base-", st.preload)
	if err != nil {
		return nil, err
	}
	cyc, err := encodeBatches("cycle-", st.cycles)
	if err != nil {
		return nil, err
	}
	return &serveInput{st: st, preload: pre, cycles: cyc}, nil
}

func (w workload) engineOptions() kbt.EngineOptions {
	opt := kbt.DefaultEngineOptions()
	opt.Shards = w.shards
	opt.Iterations = serveIters
	opt.Tol = serveTol
	opt.MinSupport = w.minSupport
	opt.CopyDetect = w.layer6
	opt.Fusion = w.layer6
	return opt
}

// serveArgs are the flags of the binary that match engineOptions.
func (w workload) serveArgs(dataDir string) []string {
	args := []string{"serve", "-listen", "127.0.0.1:0", "-data", dataDir, "-lanes", "1",
		"-iters", strconv.Itoa(serveIters), "-tol", strconv.FormatFloat(serveTol, 'g', -1, 64),
		"-checkpoint-every", strconv.Itoa(checkpointEvery),
		"-shards", strconv.Itoa(w.shards), "-min-support", strconv.Itoa(w.minSupport)}
	if w.layer6 {
		args = append(args, "-copydetect", "-fusion")
	}
	return args
}

// preloadOverHTTP sends the base in keyed batches and waits until the last one
// is part of a published generation.
func preloadOverHTTP(f *feeder, pre []encodedBatch) error {
	for _, b := range pre {
		if _, err := f.cycle(b, 0); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// loopResult is what the two connections measured over the cycles.
type loopResult struct {
	wallS                       float64
	cycles                      []cycleSample
	queries                     []querySample
	records                     int
	failedCycles, failedQueries int
	firstErr                    error
}

func (l loopResult) failed() int { return l.failedCycles + l.failedQueries }

// runLoop drives the measured cycles: the feeder on one connection and the
// paced queries on the other, until the last batch is visible. window, if
// set, is called between cycles after every sampleWindow of them with the
// records ingested so far.
func runLoop(addr string, w workload, in *serveInput, f *feeder, tr *tracer, window func(records int)) loopResult {
	q := &querier{c: newConn(addr), tr: tr, rate: w.queryRate, endpoints: w.endpoints,
		sites: in.st.sites, items: in.st.items}
	defer q.c.close()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.run(&stop)
	}()

	var res loopResult
	start := time.Now()
	for i, b := range in.cycles {
		s, err := f.cycle(b, int32(i+1))
		if err != nil {
			res.failedCycles++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		res.records += b.records
		res.cycles = append(res.cycles, s)
		if window != nil && (i+1)%sampleWindow == 0 {
			window(res.records)
		}
	}
	res.wallS = time.Since(start).Seconds()
	stop.Store(true)
	<-done
	res.queries = q.samples
	res.failedQueries = q.failed
	if q.failed > 0 && res.firstErr == nil {
		res.firstErr = fmt.Errorf("%d queries failed", q.failed)
	}
	return res
}

// served is the state a server publishes, as the benchmark compares it.
type served struct {
	topSources []byte // raw body of top-sources?k=0: restarts must reproduce it byte for byte
	sources    []kbt.Source
	copyDeps   []kbt.CopyDependence
	fused      map[string]kbt.FusedItem
}

// fusedSample is the number of fused items a layer-6 check compares.
const fusedSample = 50

func fetchServed(c *conn, w workload, in *serveInput) (*served, error) {
	body, err := c.get("/v1/top-sources?k=0")
	if err != nil {
		return nil, err
	}
	sv := &served{topSources: body}
	if err := json.Unmarshal(body, &sv.sources); err != nil {
		return nil, err
	}
	if !w.layer6 {
		return sv, nil
	}
	if body, err = c.get("/v1/copy-deps"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &sv.copyDeps); err != nil {
		return nil, err
	}
	sv.fused = make(map[string]kbt.FusedItem)
	for _, item := range sampleItems(in.st.items) {
		if body, err = c.get("/v1/fused?item=" + url.QueryEscape(item)); err != nil {
			return nil, err
		}
		var fi kbt.FusedItem
		if err := json.Unmarshal(body, &fi); err != nil {
			return nil, err
		}
		sv.fused[item] = fi
	}
	return sv, nil
}

func sampleItems(items []string) []string {
	step := max(1, len(items)/fusedSample)
	var out []string
	for i := 0; i < len(items) && len(out) < fusedSample; i += step {
		out = append(out, items[i])
	}
	return out
}

const exactTol = 1e-9

// compareServed reports the first difference beyond exactTol between what
// the binary published and what an in-process durable engine, opened with the
// same options and fed the same keyed-ingest/refresh sequence, did.
func compareServed(got, want *served) error {
	if len(got.sources) != len(want.sources) {
		return fmt.Errorf("server ranks %d sources, reference %d", len(got.sources), len(want.sources))
	}
	for i, g := range got.sources {
		r := want.sources[i]
		if g.Name != r.Name || g.Reportable != r.Reportable ||
			math.Abs(g.KBT-r.KBT) > exactTol || math.Abs(g.ExpectedTriples-r.ExpectedTriples) > exactTol {
			return fmt.Errorf("rank %d: server %+v, reference %+v", i, g, r)
		}
	}
	if len(got.copyDeps) != len(want.copyDeps) {
		return fmt.Errorf("server reports %d copy pairs, reference %d", len(got.copyDeps), len(want.copyDeps))
	}
	for i, g := range got.copyDeps {
		r := want.copyDeps[i]
		if g.SourceA != r.SourceA || g.SourceB != r.SourceB || g.SharedFalse != r.SharedFalse ||
			g.SharedTrue != r.SharedTrue || g.Differ != r.Differ || math.Abs(g.Posterior-r.Posterior) > exactTol {
			return fmt.Errorf("copy pair %d: server %+v, reference %+v", i, g, r)
		}
	}
	for item, r := range want.fused {
		g, ok := got.fused[item]
		if !ok || len(g.Values) != len(r.Values) || g.Covered != r.Covered || math.Abs(g.RestMass-r.RestMass) > exactTol {
			return fmt.Errorf("fused %s: server %+v, reference %+v", item, g, r)
		}
		for k := range g.Values {
			if g.Values[k].Object != r.Values[k].Object || math.Abs(g.Values[k].Probability-r.Values[k].Probability) > exactTol {
				return fmt.Errorf("fused %s value %d: server %+v, reference %+v", item, k, g.Values[k], r.Values[k])
			}
		}
	}
	return nil
}

// coldRefreshes bounds how often the cold engine of meanDevVsBatch refreshes
// while the copy-discount feedback settles.
const coldRefreshes = 20

// meanDevVsBatch is the mean difference in KBT between the served ranking and
// a cold estimation over the same final corpus: a fresh in-memory engine with
// the server's options, given every record at once — its first refresh is
// what EstimateKBT computes at website granularity — and refreshed until it
// reports nothing left to do, which with Layer 6 on is when the copy discounts
// have settled. The warm engine and the cold one agree to five decimals on
// almost every source; on the broad-reach corpus a few dozen narrow sites
// settle at another fixed point of the model (0.6-0.75 warm against the 0.95
// clamp cold), which is why this is a mean and not a maximum.
func meanDevVsBatch(w workload, in *serveInput, sv *served) (float64, error) {
	cold, err := kbt.NewEngine(w.engineOptions())
	if err != nil {
		return 0, err
	}
	for _, b := range in.st.batches() {
		if err := cold.Ingest(b...); err != nil {
			return 0, err
		}
	}
	var res *kbt.Result
	for i := 0; i < coldRefreshes; i++ {
		if res, err = cold.Refresh(); err != nil {
			return 0, err
		}
		if st, _ := cold.Stats(); st.NoOp {
			break
		}
	}
	dev := 0.0
	for _, s := range sv.sources {
		b, ok := res.SourceByName(s.Name)
		if !ok {
			return 0, fmt.Errorf("cold estimation has no source %q", s.Name)
		}
		dev += math.Abs(b.KBT - s.KBT)
	}
	return dev / float64(len(sv.sources)), nil
}

// meanDevBound is the fixed loose bound on meanDevVsBatch, set from the first
// measurements (README.md): the largest seen was 0.011.
const meanDevBound = 0.05

// liveServer is a started, preloaded server and the feeder connected to it.
type liveServer struct {
	proc     *serverProc
	dir      string
	args     []string
	f        *feeder
	preloadS float64
}

// stop kills the server and waits for it; stopping twice is harmless.
func (ls *liveServer) stop() {
	if ls.proc == nil {
		return
	}
	ls.f.c.close()
	ls.proc.kill()
	ls.proc = nil
}

// setUpServe does one complete set-up: generate and encode the input, start
// the binary on an empty data directory, preload the base over HTTP and wait
// for its first generation.
func setUpServe(env *runEnv, w workload, seed int64, cycles int) (*serveInput, *liveServer, error) {
	in, err := makeServeInput(w, seed, cycles)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(env.work, "data")
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	ls := &liveServer{dir: dir, args: w.serveArgs(dir)}
	if ls.proc, err = startServer(env.bin, ls.args...); err != nil {
		return nil, nil, err
	}
	ls.f = &feeder{c: newConn(ls.proc.addr)}
	start := time.Now()
	if err := preloadOverHTTP(ls.f, in.preload); err != nil {
		ls.stop()
		return nil, nil, err
	}
	ls.preloadS = time.Since(start).Seconds()
	return in, ls, nil
}

// restart kills the server as a crash would, relaunches it on the same
// directory and times kill → first 200 from /v1/top-sources. The recovered
// server must hold every acknowledged record and publish the same ranking,
// byte for byte.
func (ls *liveServer) restart(env *runEnv, want *served) (float64, error) {
	start := time.Now()
	ls.stop()
	var err error
	if ls.proc, err = startServer(env.bin, ls.args...); err != nil {
		return 0, err
	}
	acked := ls.f.sent
	ls.f = &feeder{c: newConn(ls.proc.addr), sent: acked}
	body, err := ls.f.c.get("/v1/top-sources?k=0")
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	if !bytes.Equal(body, want.topSources) {
		return 0, errors.New("ranking after SIGKILL restart differs from the ranking before it")
	}
	sb, err := ls.f.c.get("/v1/stats")
	if err != nil {
		return 0, err
	}
	var st statsView
	if err := json.Unmarshal(sb, &st); err != nil {
		return 0, err
	}
	if st.Records != acked {
		return 0, fmt.Errorf("restart recovered %d records, %d were acknowledged", st.Records, acked)
	}
	return elapsed, nil
}

// setupRepeats is how many times a run sets up, to report a lower quartile.
const setupRepeats = 5

// sampleWindow is how many cycles lie between two samples of the server's CPU
// time and resident set: about a quarter of a second of serve_settled and a
// second of the other two.
const sampleWindow = 24

// driveBinary is what every run does to a live, preloaded server: the
// measured loop — sampling the server's CPU time and resident set every
// sampleWindow cycles — then the published state, the disk bytes and the
// SIGKILL restarts. It returns what the server published before the first
// kill.
func driveBinary(env *runEnv, w workload, in *serveInput, ls *liveServer, restarts int, r *report) (*served, loopResult, error) {
	r.set("client.preload_http_s", ls.preloadS)
	cpu0, err := ls.proc.cpuSeconds()
	if err != nil {
		return nil, loopResult{}, err
	}
	// Per window: the server's CPU time per record ingested in it.
	var rss, cpuPerRecord []float64
	lastCPU, lastRecords := cpu0, 0
	loop := runLoop(ls.proc.addr, w, in, ls.f, nil, func(records int) {
		if mb, err := ls.proc.rssMB(); err == nil {
			rss = append(rss, mb)
		}
		if cpu, err := ls.proc.cpuSeconds(); err == nil && records > lastRecords {
			cpuPerRecord = append(cpuPerRecord, (cpu-lastCPU)*1e6/float64(records-lastRecords))
			lastCPU, lastRecords = cpu, records
		}
	})
	cpu1, err := ls.proc.cpuSeconds()
	if err != nil {
		return nil, loop, err
	}
	if err := noteLoop(r, in, loop); err != nil {
		return nil, loop, err
	}
	clientMetrics(r, w, loop)
	r.set("cpu_us_per_record", percentile(cpuPerRecord, 25))
	r.set("client.server_cpu_ms_per_batch", (cpu1-cpu0)*1e3/float64(len(loop.cycles)))
	r.set("rss_mb", median(rss))
	r.Ops["records_base"] = ls.f.sent - loop.records

	sv, err := fetchServed(ls.f.c, w, in)
	if err != nil {
		return nil, loop, err
	}
	disk, err := dirBytes(ls.dir)
	if err != nil {
		return nil, loop, err
	}
	r.set("client.disk_bytes_per_record", float64(disk)/float64(ls.f.sent))

	var restartS []float64
	for i := 0; i < restarts; i++ {
		s, err := ls.restart(env, sv)
		if err != nil {
			r.fail("restart %d: %v", i+1, err)
			break
		}
		restartS = append(restartS, s)
	}
	r.set("client.restart_s", median(restartS))
	return sv, loop, nil
}

// runServe is one untraced run of a serve workload against the real binary:
// five set-ups, the measured loop on the last, one SIGKILL restart, the checks.
func runServe(env *runEnv, w workload, seed int64, cycles int, r *report) error {
	var setups []float64
	var in *serveInput
	var ls *liveServer
	for i := 0; i < setupRepeats; i++ {
		if ls != nil {
			ls.stop()
		}
		start := time.Now()
		var err error
		if in, ls, err = setUpServe(env, w, seed, cycles); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer ls.stop()
	r.set("setup_s", percentile(setups, 25))

	sv, loop, err := driveBinary(env, w, in, ls, 1, r)
	if err != nil {
		return err
	}
	if loop.failed() > 0 || w.smoke {
		// A run that lost a batch cannot match an estimation over all of
		// them; and at smoke size a leaf site of the broad corpus has four
		// items, too few for the warm and the cold fixed point to agree.
		return nil
	}
	dev, err := meanDevVsBatch(w, in, sv)
	if err != nil {
		return err
	}
	r.check("check.kbt_mean_abs_dev_vs_batch", dev, meanDevBound)
	return nil
}

// clientMetrics turns the loop's samples into the latency metrics.
func clientMetrics(r *report, w workload, loop loopResult) {
	var ack, visible, polls, lat, late []float64
	perEndpoint := make(map[string][]float64)
	for _, s := range loop.cycles {
		ack = append(ack, s.ackMS)
		visible = append(visible, s.visibleMS)
		polls = append(polls, float64(s.polls))
	}
	for _, q := range loop.queries {
		lat = append(lat, q.latMS)
		late = append(late, q.lateMS)
		perEndpoint[q.endpoint] = append(perEndpoint[q.endpoint], q.latMS)
	}
	r.set("visible_ms_p25", percentile(visible, 25))
	r.set("client.visible_ms_p50", median(visible))
	r.set("client.records_per_s", float64(loop.records)/loop.wallS)
	r.set("client.visible_ms_p95", percentile(visible, 95))
	r.set("client.ack_ms_p50", median(ack))
	r.set("client.ack_ms_p95", percentile(ack, 95))
	r.set("client.query_ms_p50", median(lat))
	r.set("client.query_ms_p99", percentile(lat, 99))
	r.set("client.gen_late_ms_p95", percentile(late, 95))
	r.set("client.polls_per_batch", sum(polls)/float64(len(polls)))
	for ep, xs := range perEndpoint {
		r.set("client.query_ms_p50."+ep, median(xs))
	}
	r.Samples["cycles"] = len(visible)
	r.Samples["queries"] = len(lat)
	r.Samples["highest_supported_percentile.cycles"] = int(supportedTail(len(visible)))
	r.Samples["highest_supported_percentile.queries"] = int(supportedTail(len(lat)))
}
