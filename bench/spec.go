package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef is one entry of the benchmark's metric catalogue. BENCHMARK.json
// at the repository root lists the same names; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Exact  bool    // per-layer only: a count that must repeat exactly for a given seed
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEnd are the gated metrics. The driver that gates them needs every one
// of them from every workload, so each is defined on the batch job and on the
// serving loop alike (README.md has the table); what only one kind of workload
// has — throughput with its stalls, ack, query and restart latency, disk
// bytes, fuse time — is reported under the client and cmd layers below.
//
// The timings are lower quartiles, not medians. The boxes this runs on
// throttle the CPU in bursts of half a second to a few seconds about half of
// the time (a fixed single-threaded loop takes 15 ms or 30-50 ms, back to
// back), so a median sits on the boundary between the two modes and flips from
// run to run by a third; the lower quartile stays in the unthrottled mode,
// which is the speed of the code. The medians and tails are in the client
// layer.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "visible_ms_p25", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_record", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the ungated metrics, named layer.metric after the module that
// does the work. A metric of a layer that a workload does not run reads 0.
var perLayer = []metricDef{
	// client: what the benchmark's two connections saw of the real binary,
	// tracing off. The tails and the per-endpoint split of the medians.
	{Name: "client.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.visible_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.ack_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.ack_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "client.visible_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "client.query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.query_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "client.gen_late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "client.polls_per_batch", Unit: "count", Better: "lower"},
	{Name: "client.query_ms_p50.top_sources", Unit: "ms", Better: "lower"},
	{Name: "client.query_ms_p50.source", Unit: "ms", Better: "lower"},
	{Name: "client.query_ms_p50.fused", Unit: "ms", Better: "lower"},
	{Name: "client.query_ms_p50.top_triples", Unit: "ms", Better: "lower"},
	{Name: "client.query_ms_p50.copy_deps", Unit: "ms", Better: "lower"},
	{Name: "client.server_cpu_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "client.disk_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "client.restart_s", Unit: "s", Better: "lower"},
	{Name: "client.preload_http_s", Unit: "s", Better: "lower"},

	// server: spans of the benchmark's http.Handler around server.Server.
	{Name: "server.ingest_handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.pre_engine_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.query_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.body_bytes_per_record", Unit: "B", Better: "lower", Exact: true},

	// kbt: spans of the benchmark's server.Engine around *kbt.DurableEngine.
	{Name: "kbt.ingest_keyed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kbt.refresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kbt.refresh_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "kbt.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kbt.checkpoints", Unit: "count", Better: "lower", Exact: true},
	{Name: "kbt.compact_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kbt.compactions", Unit: "count", Better: "lower", Exact: true},
	{Name: "kbt.recover_s", Unit: "s", Better: "lower"},
	{Name: "kbt.top_sources_us_p50", Unit: "us", Better: "lower"},
	{Name: "kbt.source_by_name_us_p50", Unit: "us", Better: "lower"},
	{Name: "kbt.top_triples_us_p50", Unit: "us", Better: "lower"},
	{Name: "kbt.fused_us_p50", Unit: "us", Better: "lower"},
	{Name: "kbt.copy_deps_us_p50", Unit: "us", Better: "lower"},
	{Name: "kbt.first_view_after_publish_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "kbt.estimate_s", Unit: "s", Better: "lower"},

	// wal .. fusion: the same batches replayed through each internal
	// package's public functions, one timed call at a time.
	{Name: "wal.append_sync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower", Exact: true},
	{Name: "wal.syncs", Unit: "count", Better: "lower", Exact: true},
	{Name: "wal.checkpoint_delta_write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "triple.read_tsv_ms", Unit: "ms", Better: "lower"},
	{Name: "triple.read_tsv_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "triple.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "triple.extend_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "triple.extend_shards_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "granularity.split_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_em_from_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.estep_triples_ms", Unit: "ms", Better: "lower"},
	{Name: "core.estep_items_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mstep_sources_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mstep_extractors_ms", Unit: "ms", Better: "lower"},
	{Name: "core.update_prior_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.refresh_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.refresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.refresh_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "engine.first_pass_shards", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.settled_shards", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.partial_shards", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.escalations", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.iterations", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.agg_delta_steps", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.agg_full_steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.alloc_kb_per_refresh", Unit: "KiB", Better: "lower"},
	{Name: "engine.allocs_per_refresh", Unit: "count", Better: "lower"},
	{Name: "copydetect.detect_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "copydetect.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "copydetect.pairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "fusion.run_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "fusion.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fusion.fused_items", Unit: "count", Better: "lower", Exact: true},

	// cmd: the binary's batch subcommands, as subprocesses.
	{Name: "cmd.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cmd.estimate_s", Unit: "s", Better: "lower"},
	{Name: "cmd.estimate_cpu_s", Unit: "s", Better: "lower"},
	{Name: "cmd.estimate_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "cmd.fuse_s", Unit: "s", Better: "lower"},
	{Name: "cmd.estimate_s_gomaxprocs1", Unit: "s", Better: "lower"},
	{Name: "cmd.estimate_parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "cmd.generate_s", Unit: "s", Better: "lower"},
	{Name: "cmd.preload_tsv_records_per_s", Unit: "1/s", Better: "higher"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "bench.build_s", Unit: "s", Better: "lower"},
}

// workload sizes one of the four workloads. The operation counts are fixed
// by (seed, seconds): a run never stops on a clock, so two runs of one seed
// do the same work and their counters can be compared exactly.
type workload struct {
	Name string
	Why  string

	// batch_web
	webScale           float64
	estimates, fuses   int
	gomaxprocs1Repeats int

	// serve_*
	gen          itemGen
	groupItems   int
	baseRecords  int
	preloadSize  int
	batchSize    int
	cyclesPerSec float64 // turns -seconds into a cycle count; set so that 12 gives loops of 13 to 18 s on the baseline box
	queryRate    int     // paced queries per second on the second connection
	endpoints    []string
	shards       int
	minSupport   int
	layer6       bool

	smoke bool // sized for a smoke run
}

const (
	epTopSources = "top_sources"
	epSource     = "source"
	epFused      = "fused"
	epTopTriples = "top_triples"
	epCopyDeps   = "copy_deps"
)

// The query mix is one top-sources in five and source lookups otherwise; with
// Layer 6 on, one fifth each of the five read endpoints.
var (
	plainMix  = []string{epTopSources, epSource, epSource, epSource, epSource}
	layer6Mix = []string{epTopSources, epSource, epFused, epTopTriples, epCopyDeps}
)

// Serving flags every serve workload shares: one lane (one closed-loop feeder
// gains nothing from more, and concurrent lanes would make record order depend
// on timing), converged warm refreshes, a count-based checkpoint cadence —
// never a time- or byte-based one — and fsync on.
const (
	serveIters      = 30
	serveTol        = 1e-4
	checkpointEvery = 64
)

var workloads = []workload{
	{
		Name:     "batch_web",
		Why:      "the paper's own job: TSV parse, compile and split-and-merge do the work, EM is a tenth of it and the serving layers do none",
		webScale: 6, estimates: 5, fuses: 3, gomaxprocs1Repeats: 3,
	},
	{
		Name: "serve_settled",
		Why:  "narrow-reach stream: refresh is O(ingest), so per-batch fixed costs (decode, fsync, extend, publish, checkpoint, compaction) are most of the cycle",
		gen:  settledItem, groupItems: 4, baseRecords: 50_000, preloadSize: 5_000, batchSize: 100,
		cyclesPerSec: 95, queryRate: 100, endpoints: plainMix, shards: 256, minSupport: 1,
	},
	{
		Name: "serve_broad",
		Why:  "broad-reach stream: every refresh re-estimates most of the corpus, so the E/M kernels and engine escalations are most of the cycle",
		gen:  broadItem, groupItems: 1, baseRecords: 50_000, preloadSize: 5_000, batchSize: 100,
		cyclesPerSec: 24, queryRate: 100, endpoints: plainMix, shards: 64, minSupport: 3,
	},
	{
		Name: "serve_layer6",
		Why:  "reads beside writes with copy detection and fusion on: Layer 6 is most of the refresh and the O(n) reads compete with it for the cores",
		gen:  layer6Item, groupItems: 1, baseRecords: 50_000, preloadSize: 5_000, batchSize: 100,
		cyclesPerSec: 29, queryRate: 200, endpoints: layer6Mix, shards: 64, minSupport: 3, layer6: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) isBatch() bool { return w.gen == nil }

// sized returns the workload with its operation counts set for a measured
// loop of about the given length on the box the rates were calibrated on, or
// for a smoke run: a fraction of a second per workload, every code path.
func (w workload) sized(seconds int, smoke bool) (workload, int) {
	if smoke {
		w.smoke = true
		if w.isBatch() {
			w.webScale, w.estimates, w.fuses, w.gomaxprocs1Repeats = 0.5, 2, 1, 1
			return w, 0
		}
		w.baseRecords, w.preloadSize = 3000, 1000
		return w, 24
	}
	if w.isBatch() {
		// An estimate takes about 1.6 s and a fuse 1.2 s at scale 6.
		w.estimates = max(3, int(math.Round(float64(seconds)*5/12)))
		w.fuses = max(2, int(math.Round(float64(seconds)*3/12)))
		return w, 0
	}
	return w, max(20, int(math.Round(w.cyclesPerSec*float64(seconds))))
}
