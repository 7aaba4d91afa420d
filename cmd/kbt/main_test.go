package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"kbt"
	"kbt/internal/wal"
)

func serveTestConfig() serveConfig {
	cfg := serveConfig{opt: kbt.DefaultEngineOptions(), top: 10}
	cfg.opt.Shards = 4
	cfg.opt.Iterations = 3
	cfg.opt.MinSupport = 1
	cfg.opt.Tol = 1e-6
	return cfg
}

// tsvFeed builds a small TSV input with contested triples.
func tsvFeed(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		obj := fmt.Sprintf("o%d", i%3)
		if i%7 == 0 {
			obj = "oX"
		}
		fmt.Fprintf(&b, "E%d\tpat\tw%d.com\tw%d.com/p%d\ts%d\tborn\t%s\t0.9\n",
			i%3, i%4, i%4, i%2, i%5, obj)
	}
	return b.String()
}

// TestServeRejectsOracleFlags: the engine's test oracles are not selectable
// from the command line — flag parsing refuses both former flags. cmdServe
// exits the process on a flag error, so the test re-runs itself as that
// process.
func TestClipCountsRunes(t *testing.T) {
	for _, tc := range []struct {
		in    string
		width int
		want  string
	}{
		{"short.com", 50, "short.com"},
		{strings.Repeat("a", 50), 50, strings.Repeat("a", 50)},
		{strings.Repeat("a", 60), 50, strings.Repeat("a", 47) + "..."},
		{strings.Repeat("é", 40), 50, strings.Repeat("é", 40)}, // 80 bytes, 40 runes: fits
		{strings.Repeat("é", 60), 50, strings.Repeat("é", 47) + "..."},
		{"a" + strings.Repeat("é", 60), 50, "a" + strings.Repeat("é", 46) + "..."}, // a byte cut at 47 splits an é
	} {
		got := clip(tc.in, tc.width)
		if got != tc.want || !utf8.ValidString(got) {
			t.Errorf("clip(%q, %d) = %q, want %q", tc.in, tc.width, got, tc.want)
		}
	}
}

func TestServeRejectsOracleFlags(t *testing.T) {
	if arg := os.Getenv("KBT_TEST_SERVE_FLAG"); arg != "" {
		if err := cmdServe([]string{arg}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	for _, arg := range []string{"-recompile", "-full-aggregates"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestServeRejectsOracleFlags$")
		cmd.Env = append(os.Environ(), "KBT_TEST_SERVE_FLAG="+arg)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined: "+arg) {
			t.Errorf("serve %s: err = %v, output:\n%s\nwant exit 2 with an undefined-flag message", arg, err, out)
		}
	}
}

// TestCPUProfileCompleteOnEveryReturn: estimate and serve write the profile
// named by -cpuprofile, stopped and closed whether the command succeeds or
// returns an error. The commands print to the process's stdout, so the test
// re-runs itself as that process.
func TestCPUProfileCompleteOnEveryReturn(t *testing.T) {
	if args := os.Getenv("KBT_TEST_PROFILE_ARGS"); args != "" {
		argv := strings.Split(args, " ")
		run := map[string]func([]string) error{"estimate": cmdEstimate, "serve": cmdServe}[argv[0]]
		if err := run(argv[1:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir := t.TempDir()
	feed := dir + "/feed.tsv"
	if err := os.WriteFile(feed, []byte(tsvFeed(24)), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args     string
		wantExit int
	}{
		"estimate":       {"estimate -granularity website -cpuprofile %s " + feed, 0},
		"serve":          {"serve -batch 12 -cpuprofile %s " + feed, 0},
		"serve-error":    {"serve -granularity auto -cpuprofile %s " + feed, 1},
		"estimate-error": {"estimate -cpuprofile %s " + dir + "/missing.tsv", 1},
	} {
		prof := dir + "/" + name + ".prof"
		cmd := exec.Command(os.Args[0], "-test.run=^TestCPUProfileCompleteOnEveryReturn$")
		cmd.Env = append(os.Environ(), "KBT_TEST_PROFILE_ARGS="+fmt.Sprintf(tc.args, prof))
		out, err := cmd.CombinedOutput()
		exit := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if exit != tc.wantExit {
			t.Errorf("%s: exit %d, want %d; output:\n%s", name, exit, tc.wantExit, out)
		}
		// A stopped profile is a complete gzip stream; one cut off by an exit
		// is empty or truncated.
		f, err := os.Open(prof)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		if err != nil {
			t.Errorf("%s: profile is not a complete gzip stream: %v", name, err)
		}
		f.Close()
	}
}

// TestHTTPServerBoundsSlowClients: the server serve -listen runs bounds how
// long a client may dawdle over request headers and how long a keep-alive
// connection may idle (slowloris), but puts no clock on request or response
// bodies — a maximum-size ingest over a slow link must still fit.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v: bodies must not be on a clock", hs.ReadTimeout, hs.WriteTimeout)
	}
}

// TestServeStdinMode pins the original pipeline behavior: records stream in,
// a blank line refreshes, EOF refreshes the tail, the ranking prints.
func TestServeStdinMode(t *testing.T) {
	var out, errOut bytes.Buffer
	input := tsvFeed(12) + "\n" + tsvFeed(24)[len(tsvFeed(12)):]
	if err := runServe(serveTestConfig(), strings.NewReader(input), &out, &errOut); err != nil {
		t.Fatalf("runServe: %v\nstderr: %s", err, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "-- refresh #1:") || !strings.Contains(got, "-- refresh #2:") {
		t.Fatalf("expected two refreshes in output:\n%s", got)
	}
	if !strings.Contains(got, "w0.com") {
		t.Fatalf("expected source ranking in output:\n%s", got)
	}
}

// TestServeStdinModeEmptyFeedStillErrors: without -listen, an empty feed is
// still the historical usage error — the regression guard for the other
// direction of the fix.
func TestServeStdinModeEmptyFeedStillErrors(t *testing.T) {
	var out bytes.Buffer
	err := runServe(serveTestConfig(), strings.NewReader(""), &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no records read") {
		t.Fatalf("empty stdin without -listen: err = %v, want 'no records read'", err)
	}
}

// startServe runs runServe in the background, its stderr discarded, and
// returns the bound address plus a shutdown func that stops it and surfaces
// its error.
func startServe(t *testing.T, cfg serveConfig, in io.Reader) (addr string, shutdown func() error) {
	t.Helper()
	return startServeTo(t, cfg, in, io.Discard)
}

// startServeTo is startServe with runServe's stderr going to errw, which is
// safe to read once shutdown has returned.
func startServeTo(t *testing.T, cfg serveConfig, in io.Reader, errw io.Writer) (addr string, shutdown func() error) {
	t.Helper()
	addrCh := make(chan string, 1)
	stopCh := make(chan struct{})
	errCh := make(chan error, 1)
	cfg.listen = "127.0.0.1:0"
	cfg.onListen = func(a string) { addrCh <- a }
	cfg.stop = stopCh
	var out bytes.Buffer
	go func() { errCh <- runServe(cfg, in, &out, errw) }()
	select {
	case a := <-addrCh:
		addr = a
	case err := <-errCh:
		t.Fatalf("serve exited before listening: %v\noutput: %s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("serve never listened\noutput: %s", out.String())
	}
	var once sync.Once
	return addr, func() error {
		once.Do(func() { close(stopCh) })
		select {
		case err := <-errCh:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("serve did not shut down")
		}
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeListenEmptyStdinIdleStart is the headline fix: with -listen, an
// empty feed starts an idle, healthy server instead of exiting with
// "serve: no records read".
func TestServeListenEmptyStdinIdleStart(t *testing.T) {
	addr, shutdown := startServe(t, serveTestConfig(), strings.NewReader(""))
	base := "http://" + addr
	if got := getStatus(t, base+"/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := getStatus(t, base+"/v1/top-sources"); got != http.StatusServiceUnavailable {
		t.Fatalf("idle top-sources = %d, want 503", got)
	}

	// The idle server accepts data over HTTP and starts answering.
	batch := []kbt.Extraction{}
	for i := 0; i < 12; i++ {
		batch = append(batch, kbt.Extraction{
			Extractor: fmt.Sprintf("E%d", i%3),
			Website:   fmt.Sprintf("w%d.com", i%4),
			Page:      fmt.Sprintf("w%d.com/p", i%4),
			Subject:   fmt.Sprintf("s%d", i%5),
			Predicate: "born",
			Object:    fmt.Sprintf("o%d", i%3),
		})
	}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, base+"/v1/top-sources") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("server never published a generation after ingest")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeListenPreloadsFeed: piped TSV is drained and refreshed before the
// port opens, so the first query already sees a generation.
func TestServeListenPreloadsFeed(t *testing.T) {
	addr, shutdown := startServe(t, serveTestConfig(), strings.NewReader(tsvFeed(24)))
	base := "http://" + addr
	resp, err := http.Get(base + "/v1/top-sources?k=3")
	if err != nil {
		t.Fatal(err)
	}
	var srcs []kbt.Source
	if err := json.NewDecoder(resp.Body).Decode(&srcs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(srcs) != 3 {
		t.Fatalf("preloaded top-sources = %d with %d sources", resp.StatusCode, len(srcs))
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// getBody fetches url and returns the response body, failing on a non-200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// TestServeDurablePreloadBatchesPerChunk: a TSV preload into a -data
// directory logs (and fsyncs) one batch per refresh boundary, not one per
// record; a malformed line and a line the engine rejects are reported by line
// number and skipped without taking their chunk with them; and a restart on
// the directory serves the same bytes.
func TestServeDurablePreloadBatchesPerChunk(t *testing.T) {
	chunk1 := strings.SplitAfter(tsvFeed(12), "\n")
	feed := strings.Join(chunk1[:5], "") +
		"not a record\n" + // line 6: malformed
		strings.Join(chunk1[5:], "") +
		"\n" + // line 14: refresh boundary
		"E0\tpat\tw0.com\tw0.com/p0\t\tborn\to1\t0.9\n" + // line 15: parses, empty Subject
		tsvFeed(24)[len(tsvFeed(12)):]

	cfg := serveTestConfig()
	cfg.dataDir = t.TempDir()
	var errOut bytes.Buffer
	addr, shutdown := startServeTo(t, cfg, strings.NewReader(feed), &errOut)
	first := getBody(t, "http://"+addr+"/v1/top-sources")
	if err := shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	for _, want := range []string{"line 6: ", "line 15: "} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr does not report %q:\n%s", want, errOut.String())
		}
	}
	if n := strings.Count(errOut.String(), "skipped"); n != 2 {
		t.Errorf("%d skip reports, want 2:\n%s", n, errOut.String())
	}

	log, err := wal.Open(cfg.dataDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches, records := 0, 0
	err = log.Replay(0, func(_ uint64, payload []byte) error {
		e, err := wal.DecodeEntry(payload)
		if err == nil && e.Kind == wal.EntryBatch {
			batches++
			records += len(e.Records)
		}
		return err
	})
	if cerr := log.Close(); err != nil || cerr != nil {
		t.Fatalf("replay: %v, close: %v", err, cerr)
	}
	if batches != 2 || records != 24 {
		t.Fatalf("log holds %d batch entries with %d records, want 2 (one per chunk) with 24", batches, records)
	}

	addr, shutdown = startServe(t, cfg, nil)
	if second := getBody(t, "http://"+addr+"/v1/top-sources"); !bytes.Equal(first, second) {
		t.Errorf("restart serves different top-sources:\n%s\nvs live\n%s", second, first)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServeDurableRestart: a -data server ingests over HTTP, shuts down, and
// a second run on the same directory recovers the records and serves them.
// Runs with multiple ingest lanes and a size-based checkpoint cadence so the
// new serve knobs get end-to-end coverage.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := serveTestConfig()
	cfg.dataDir = dir
	cfg.checkpointEvery = 2
	cfg.checkpointBytes = 512 // small enough that the 18-record feed trips it
	cfg.lanes = 2

	addr, shutdown := startServe(t, cfg, strings.NewReader(tsvFeed(18)))
	base := "http://" + addr
	var first []kbt.Source
	resp, err := http.Get(base + "/v1/top-sources")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	addr2, shutdown2 := startServe(t, cfg, nil)
	base2 := "http://" + addr2
	resp, err = http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Records   int  `json:"records"`
		Refreshed bool `json:"refreshed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Records != 18 || !st.Refreshed {
		t.Fatalf("recovered stats = %+v, want 18 refreshed records", st)
	}
	var second []kbt.Source
	resp, err = http.Get(base2 + "/v1/top-sources")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("recovered ranking has %d sources, live had %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("recovered ranking differs at %d: %+v vs %+v", i, second[i], first[i])
		}
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
