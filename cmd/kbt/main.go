// Command kbt runs Knowledge-Based Trust estimation from the command line.
//
// Usage:
//
//	kbt estimate  [-granularity auto|website|page|finest] [-iters N]
//	              [-min-support N] [-top K] [-triples] [-extractors]
//	              [-cpuprofile FILE] [file.tsv]
//	kbt serve     [-granularity website|page|finest] [-shards N] [-batch N]
//	              [-iters N] [-tol F] [-min-support N] [-top K] [-copydetect]
//	              [-fusion] [-listen ADDR] [-lanes N] [-data DIR]
//	              [-checkpoint-every N] [-checkpoint-bytes N]
//	              [-checkpoint-interval D] [-probe-backoff D]
//	              [-probe-max-backoff D] [-cpuprofile FILE] [file.tsv]
//	kbt fuse      [-model accu|popaccu] [-n N] [-top K] [file.tsv]
//	kbt generate  [-kind synthetic|web] [-scale F] [-seed N] [-o out.tsv]
//
// The TSV interchange format is one extraction per line, 8 tab-separated
// columns with the last one optional (omitted or empty confidence means
// "unspecified", which the model treats as 1):
//
//	extractor  pattern  website  page  subject  predicate  object  [confidence]
//
// estimate, serve and fuse read from stdin when no file is given. serve is
// the incremental mode: it streams records into the sharded engine and
// re-estimates on every blank input line (or every -batch records), printing
// the updated ranking after each refresh — pipe a live extraction feed into
// it instead of re-running estimate over a growing file.
//
// estimate and serve write a CPU profile of the run to -cpuprofile FILE (read
// it with "go tool pprof -top kbt FILE"). serve on a file or stdin is an
// in-process replay with no HTTP in the way, so "kbt serve -batch N
// -cpuprofile FILE feed.tsv" profiles the refresh pipeline itself.
//
// With -listen, serve drains its input (an empty feed is a valid idle
// start), then exposes the engine over HTTP: POST /v1/ingest and
// /v1/refresh, GET /v1/top-sources, /v1/top-triples, /v1/source?name=,
// /v1/copy-deps, /v1/fused?item=, /v1/healthz and /v1/stats. -lanes N
// drains the ingest queue with N workers, each batch applied whole by one of
// them, and refreshes beside ingest rather than inline. -copydetect maintains
// streaming copy detection (and discounts detected copiers' votes); -fusion
// maintains the single-layer fused per-item posteriors — both served from
// the current generation. With -data DIR, ingest is write-ahead logged under
// DIR and the engine state is recovered bit-exactly on restart;
// -checkpoint-every N bounds recovery replay by checkpointing after every N
// refreshes, -checkpoint-bytes B by checkpointing whenever the log exceeds B
// bytes, and -checkpoint-interval D (a duration, e.g. 5m) by checkpointing
// once D of wall-clock time has passed since the last one.
//
// A durable serve survives transient disk faults: on a WAL or checkpoint
// error the engine degrades to read-only (ingest returns 503 with a
// Retry-After; queries keep serving the last generation), repairs its log
// tail, and probes the disk with exponential backoff — -probe-backoff and
// -probe-max-backoff tune the probe cadence — healing automatically once an
// append+fsync round-trip succeeds. Probes run on write attempts and on
// /v1/healthz polls alike, so a node drained by its load balancer still
// heals without write traffic. Health transitions are logged to stderr,
// and the process exits non-zero only on unrecoverable sealed-region
// corruption, never on a survivable WAL fault.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
	"unicode/utf8"

	"kbt"
	"kbt/internal/server"
	"kbt/internal/synthetic"
	"kbt/internal/triple"
	"kbt/internal/wal"
	"kbt/internal/websim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fuse":
		err = cmdFuse(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "kbt: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbt:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `kbt - Knowledge-Based Trust estimation

commands:
  estimate   run the multi-layer model on extraction TSV, print KBT scores
  serve      stream extraction TSV into the sharded incremental engine;
             a blank line (or every -batch records) triggers a refresh
  fuse       run the single-layer ACCU/POPACCU baseline, print triple beliefs
  generate   emit a synthetic corpus as TSV (for demos and benchmarks)

run "kbt <command> -h" for flags.
`)
}

func readDataset(path string) (*kbt.Dataset, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return kbt.ReadTSV(r)
}

// startCPUProfile starts writing a CPU profile of the process to path ("" =
// no profile) and returns the function that stops it and closes the file,
// reporting a failed close through *errp unless an error is already there.
// The commands defer it on their named result, so the profile is complete on
// every return path — an error included; main exits only after they return.
func startCPUProfile(path string) (stop func(errp *error), err error) {
	if path == "" {
		return func(*error) {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func(errp *error) {
		pprof.StopCPUProfile()
		if cerr := f.Close(); *errp == nil {
			*errp = cerr
		}
	}, nil
}

func cmdEstimate(args []string) (err error) {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	gran := fs.String("granularity", "auto", "source granularity: auto|website|page|finest")
	iters := fs.Int("iters", 5, "EM iterations")
	minSupport := fs.Int("min-support", 3, "minimum observations per source/extractor")
	top := fs.Int("top", 20, "number of sources to print (0 = all)")
	showTriples := fs.Bool("triples", false, "also print triple beliefs")
	showExtractors := fs.Bool("extractors", false, "also print extractor quality")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopProfile(&err)
	ds, err := readDataset(fs.Arg(0))
	if err != nil {
		return err
	}

	opt := kbt.DefaultOptions()
	opt.Iterations = *iters
	opt.MinSupport = *minSupport
	switch *gran {
	case "auto":
		opt.Granularity = kbt.GranularityAuto
	case "website":
		opt.Granularity = kbt.GranularityWebsite
	case "page":
		opt.Granularity = kbt.GranularityPage
	case "finest":
		opt.Granularity = kbt.GranularityFinest
	default:
		return fmt.Errorf("unknown granularity %q", *gran)
	}

	res, err := kbt.EstimateKBT(ds, opt)
	if err != nil {
		return err
	}

	fmt.Printf("%-50s %8s %10s %s\n", "SOURCE", "KBT", "EXP.TRIPLES", "REPORTABLE")
	for i, s := range res.Sources() {
		if *top > 0 && i >= *top {
			fmt.Printf("... (%d more)\n", len(res.Sources())-*top)
			break
		}
		fmt.Printf("%-50s %8.4f %10.1f %v\n", clip(s.Name, 50), s.KBT, s.ExpectedTriples, s.Reportable)
	}
	if *showExtractors {
		fmt.Printf("\n%-50s %10s %10s\n", "EXTRACTOR", "PRECISION", "RECALL")
		for _, e := range res.Extractors() {
			fmt.Printf("%-50s %10.4f %10.4f\n", clip(e.Name, 50), e.Precision, e.Recall)
		}
	}
	if *showTriples {
		fmt.Printf("\n%-30s %-20s %-20s %s\n", "SUBJECT", "PREDICATE", "OBJECT", "P(TRUE)")
		for _, tv := range res.Triples() {
			fmt.Printf("%-30s %-20s %-20s %.4f\n",
				clip(tv.Subject, 30), clip(tv.Predicate, 20), clip(tv.Object, 20), tv.Probability)
		}
	}
	return nil
}

// serveConfig is cmdServe's parsed state, separated so tests can drive
// runServe with synthetic input and a controllable stop signal.
type serveConfig struct {
	opt             kbt.EngineOptions
	top             int
	batch           int
	listen          string // "" = stdin-only mode
	lanes           int
	dataDir         string // "" = in-memory engine
	checkpointEvery int
	checkpointBytes int64
	checkpointIvl   time.Duration
	probeBackoff    time.Duration
	probeMaxBackoff time.Duration

	// onListen (when non-nil) receives the bound address once the HTTP
	// listener is up; stop (when non-nil) replaces SIGINT/SIGTERM as the
	// shutdown trigger. Both are test hooks.
	onListen func(addr string)
	stop     <-chan struct{}
}

func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	gran := fs.String("granularity", "website", "source granularity: website|page|finest")
	shards := fs.Int("shards", 8, "item shards for the incremental E-step")
	batch := fs.Int("batch", 0, "auto-refresh every N records (0 = only on blank lines / EOF)")
	iters := fs.Int("iters", 5, "EM iterations per refresh")
	tol := fs.Float64("tol", 1e-4, "parameter-delta convergence tolerance; converged warm refreshes stop after one partial pass")
	minSupport := fs.Int("min-support", 3, "minimum observations per source/extractor")
	top := fs.Int("top", 10, "number of sources to print per refresh (0 = all)")
	copyDetect := fs.Bool("copydetect", false, "maintain streaming copy detection and discount detected copiers' votes (GET /v1/copy-deps)")
	fusionOn := fs.Bool("fusion", false, "maintain streaming single-layer fused per-item posteriors (GET /v1/fused?item=)")
	listen := fs.String("listen", "", "serve the HTTP/JSON API on this address (e.g. :8080) after draining stdin/file input")
	lanes := fs.Int("lanes", 1, "with -listen, number of workers draining the ingest queue (a batch is applied whole by one of them; above 1, refreshes run beside ingest)")
	data := fs.String("data", "", "durable data directory: ingest is write-ahead logged and recovered on restart")
	ckptEvery := fs.Int("checkpoint-every", 0, "with -data, checkpoint automatically after every N refreshes (0 = never)")
	ckptBytes := fs.Int64("checkpoint-bytes", 0, "with -data, checkpoint automatically once the write-ahead log exceeds this many bytes (0 = never)")
	ckptIvl := fs.Duration("checkpoint-interval", 0, "with -data, checkpoint automatically once this much wall-clock time has passed since the last one (0 = never)")
	probeBackoff := fs.Duration("probe-backoff", 0, "with -data, initial delay before a degraded (read-only) engine re-probes the disk; doubles per failed probe (0 = default 500ms)")
	probeMax := fs.Duration("probe-max-backoff", 0, "with -data, cap on the exponential disk-probe backoff (0 = default 30s)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (stdin/file input is an in-process replay of the refresh pipeline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopProfile(&err)

	cfg := serveConfig{
		opt:             kbt.DefaultEngineOptions(),
		top:             *top,
		batch:           *batch,
		listen:          *listen,
		lanes:           *lanes,
		dataDir:         *data,
		checkpointEvery: *ckptEvery,
		checkpointBytes: *ckptBytes,
		checkpointIvl:   *ckptIvl,
		probeBackoff:    *probeBackoff,
		probeMaxBackoff: *probeMax,
	}
	cfg.opt.Shards = *shards
	cfg.opt.Iterations = *iters
	cfg.opt.Tol = *tol
	cfg.opt.MinSupport = *minSupport
	cfg.opt.CopyDetect = *copyDetect
	cfg.opt.Fusion = *fusionOn
	switch *gran {
	case "website":
		cfg.opt.Granularity = kbt.GranularityWebsite
	case "page":
		cfg.opt.Granularity = kbt.GranularityPage
	case "finest":
		cfg.opt.Granularity = kbt.GranularityFinest
	default:
		return fmt.Errorf("unknown granularity %q (serve cannot re-split units incrementally, so auto is unavailable)", *gran)
	}

	var in io.Reader = os.Stdin
	if path := fs.Arg(0); path != "" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if *listen != "" {
		// An HTTP server started from a terminal would otherwise block on
		// interactive stdin before ever listening; only drain stdin when
		// something is actually piped in.
		if st, err := os.Stdin.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
			in = nil
		}
	}
	return runServe(cfg, in, os.Stdout, os.Stderr)
}

// preloadBatch caps how many stdin/file records serve buffers before it
// ingests them, refresh boundary or not, so an unbroken feed holds a bounded
// batch in memory (and in one log entry).
const preloadBatch = 4096

func runServe(cfg serveConfig, in io.Reader, stdout, errw io.Writer) error {
	var eng server.Engine
	if cfg.dataDir != "" {
		d, err := kbt.OpenDurable(cfg.dataDir, cfg.opt, kbt.DurableOptions{
			CheckpointEvery:    cfg.checkpointEvery,
			CheckpointBytes:    cfg.checkpointBytes,
			CheckpointInterval: cfg.checkpointIvl,
			ProbeBackoff:       cfg.probeBackoff,
			ProbeMaxBackoff:    cfg.probeMaxBackoff,
			OnHealthChange: func(from, to kbt.HealthState, cause error) {
				if cause != nil {
					fmt.Fprintf(errw, "kbt serve: health %s -> %s: %v\n", from, to, cause)
				} else {
					fmt.Fprintf(errw, "kbt serve: health %s -> %s\n", from, to)
				}
			},
		})
		if err != nil {
			return err
		}
		defer d.Close()
		if d.Len() > 0 {
			fmt.Fprintf(stdout, "-- recovered %d records (%d pending) from %s\n",
				d.Len(), d.Pending(), cfg.dataDir)
		}
		eng = d
	} else {
		e, err := kbt.NewEngine(cfg.opt)
		if err != nil {
			return err
		}
		eng = e
	}

	refreshCount := 0
	refresh := func() error {
		if eng.Len() == 0 {
			return nil
		}
		start := time.Now()
		res, err := eng.Refresh()
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		// A successful Refresh always records stats; a miss would mean the
		// engine broke its own contract, and printing zero-valued stats as if
		// they were real would hide that. Report the refresh without the mode
		// detail — the ranking below still prints, since res itself is valid.
		if stats, ok := eng.Stats(); !ok {
			fmt.Fprintf(stdout, "-- refresh #%d: %d records in %v (engine reported no refresh stats)\n",
				refreshCount+1, eng.Len(), elapsed.Round(time.Microsecond))
		} else {
			mode := "cold"
			if stats.NoOp {
				// Nothing pending and already converged: the cached result
				// was served with no snapshot or estimation work at all.
				mode = "no-op"
			} else if stats.Warm {
				mode = fmt.Sprintf("warm %d/%d shards", stats.FirstPassShards, stats.TotalShards)
				if stats.SettledShards > 0 {
					mode += fmt.Sprintf(", %d settled", stats.SettledShards)
				}
				if stats.Escalations > 0 {
					mode += fmt.Sprintf(", %d escalations", stats.Escalations)
				}
				if stats.AggDeltaSteps+stats.AggFullSteps > 0 {
					mode += fmt.Sprintf(", %dΔ/%d full M-steps", stats.AggDeltaSteps, stats.AggFullSteps)
				}
			}
			fmt.Fprintf(stdout, "-- refresh #%d: %d records, %s, %d iterations in %v\n",
				refreshCount+1, eng.Len(), mode, stats.Iterations, elapsed.Round(time.Microsecond))
		}
		refreshCount++
		// TopSources selects the k best without sorting the whole corpus —
		// on a large corpus the per-refresh ranking print costs O(n + k log
		// k) instead of O(n log n) (0 = all, the full memoized view).
		for _, s := range res.TopSources(cfg.top) {
			fmt.Fprintf(stdout, "%-50s %8.4f %10.1f %v\n", clip(s.Name, 50), s.KBT, s.ExpectedTriples, s.Reportable)
		}
		return nil
	}
	// tryRefresh classifies refresh failures: a survivable storage fault (the
	// durable engine degraded to read-only and will heal once the disk
	// recovers) is logged and the run keeps going on the last published
	// generation; sealed corruption or a model error still aborts.
	tryRefresh := func() error {
		err := refresh()
		if err == nil {
			return nil
		}
		if errors.Is(err, kbt.ErrReadOnly) && !errors.Is(err, wal.ErrCorrupt) {
			fmt.Fprintf(errw, "kbt serve: refresh deferred, engine read-only: %v\n", err)
			return nil
		}
		return err
	}

	if in != nil {
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		// Records are validated one by one — a bad one is reported with its
		// line number and skipped, never poisoning its neighbours — and the
		// good ones ingested as one batch per refresh boundary (or every
		// preloadBatch records): a durable engine pays one log append and
		// fsync per Ingest call.
		var buf []kbt.Extraction
		lineNo, firstLine, sinceRefresh := 0, 0, 0
		flush := func() {
			if len(buf) == 0 {
				return
			}
			if err := eng.Ingest(buf...); err != nil {
				fmt.Fprintf(errw, "kbt serve: %d records from line %d on: %v (skipped)\n", len(buf), firstLine, err)
			}
			buf = buf[:0]
		}
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			if line == "" {
				flush()
				if err := tryRefresh(); err != nil {
					return err
				}
				sinceRefresh = 0
				continue
			}
			rec, err := triple.ParseTSVLine(line)
			x := kbt.Extraction(rec)
			if err == nil {
				err = eng.Validate(x)
			}
			if err != nil {
				fmt.Fprintf(errw, "kbt serve: line %d: %v (skipped)\n", lineNo, err)
				continue
			}
			if len(buf) == 0 {
				firstLine = lineNo
			}
			buf = append(buf, x)
			sinceRefresh++
			if cfg.batch > 0 && sinceRefresh >= cfg.batch {
				flush()
				if err := tryRefresh(); err != nil {
					return err
				}
				sinceRefresh = 0
			} else if len(buf) >= preloadBatch {
				flush()
			}
		}
		flush()
		if err := sc.Err(); err != nil {
			return err
		}
	}

	if cfg.listen == "" {
		// Pure stdin mode: an empty feed means the run did nothing, which is
		// a usage error worth failing loudly on.
		if eng.Len() == 0 {
			return errors.New("serve: no records read (use -listen to start an idle HTTP server)")
		}
		if _, ok := eng.Current(); eng.Pending() > 0 || !ok {
			return tryRefresh()
		}
		return nil
	}

	// HTTP mode: an empty engine is a valid idle start — data arrives over
	// POST /ingest. Publish a generation for whatever the preload (or a
	// recovered durable directory) left unrefreshed before opening the port.
	if eng.Len() > 0 {
		if _, ok := eng.Current(); eng.Pending() > 0 || !ok {
			if err := tryRefresh(); err != nil {
				return err
			}
		}
	}
	srv := server.New(eng, server.Options{Lanes: cfg.lanes})
	defer srv.Close()
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "-- serving HTTP on %s\n", ln.Addr())
	if cfg.onListen != nil {
		cfg.onListen(ln.Addr().String())
	}

	stop := cfg.stop
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		ch := make(chan struct{})
		go func() { <-sig; close(ch) }()
		stop = ch
	}
	select {
	case <-stop:
	case err := <-serveErr:
		return fmt.Errorf("serve: http server: %w", err)
	}
	fmt.Fprintln(stdout, "-- shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	// srv.Close (deferred) drains admitted batches; the engine Close
	// (deferred above for the durable case) then syncs the log.
	return nil
}

// Slow-client bounds of the HTTP server: how long a client may take over a
// request's headers, and how long a keep-alive connection may sit idle —
// without them a slowloris client holds a connection forever. Bodies are on
// no clock: a MaxBodyBytes ingest over a slow link is a legitimate request.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the http.Server serve -listen runs h on.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func cmdFuse(args []string) error {
	fs := flag.NewFlagSet("fuse", flag.ExitOnError)
	model := fs.String("model", "accu", "fusion model: accu|popaccu")
	n := fs.Int("n", 100, "assumed number of false values per data item")
	iters := fs.Int("iters", 5, "EM iterations")
	minSupport := fs.Int("min-support", 3, "minimum observations per provenance")
	top := fs.Int("top", 50, "number of triples to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := readDataset(fs.Arg(0))
	if err != nil {
		return err
	}

	opt := kbt.DefaultFusionOptions()
	opt.DomainSize = *n
	opt.Iterations = *iters
	opt.MinSupport = *minSupport
	switch *model {
	case "accu":
		opt.Model = kbt.Accu
	case "popaccu":
		opt.Model = kbt.PopAccu
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	res, err := kbt.FuseSingleLayer(ds, opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-30s %-20s %-20s %s\n", "SUBJECT", "PREDICATE", "OBJECT", "P(TRUE)")
	for i, tv := range res.Triples() {
		if *top > 0 && i >= *top {
			fmt.Printf("... (%d more)\n", len(res.Triples())-*top)
			break
		}
		fmt.Printf("%-30s %-20s %-20s %.4f\n",
			clip(tv.Subject, 30), clip(tv.Predicate, 20), clip(tv.Object, 20), tv.Probability)
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "web", "corpus kind: synthetic|web")
	scale := fs.Float64("scale", 1, "size multiplier for the web corpus")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch *kind {
	case "synthetic":
		p := synthetic.DefaultParams()
		p.Seed = *seed
		world, err := synthetic.Generate(p)
		if err != nil {
			return err
		}
		return triple.WriteTSV(w, world.Dataset)
	case "web":
		p := websim.DefaultParams().Scale(*scale)
		p.Seed = *seed
		world, err := websim.Generate(p)
		if err != nil {
			return err
		}
		return triple.WriteTSV(w, world.Dataset)
	default:
		return fmt.Errorf("unknown corpus kind %q", *kind)
	}
}

// clip shortens s to n runes, ending in "..." when it had to cut. It counts
// runes because the tables pad by them (%-50s), and so never cuts inside one.
func clip(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	return string([]rune(s)[:n-3]) + "..."
}
