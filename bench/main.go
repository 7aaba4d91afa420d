// Command bench is the repository's benchmark: it builds cmd/kbt, drives the
// real binary from outside for the end-to-end numbers with tracing off, and
// makes a separate traced in-process run plus a replay through each internal
// package for the per-layer numbers. README.md explains the workloads, the
// metrics and how to read the output; BENCHMARK.json at the repository root
// is the contract with the driver that gates later changes.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                       every workload, both kinds of run
//	bash bench/run.sh -workload serve_broad one workload, both kinds of run
//	bash bench/run.sh -smoke                every workload at smoke size
//	bash bench/run.sh -repeat 10            two sets of ten untraced runs each
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                        one run, as the driver makes it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// runEnv is where a run finds the binary under test and keeps its scratch
// state: everything lives under bench/out, which is not committed.
type runEnv struct {
	root   string // repository root
	out    string // bench/out
	work   string // bench/out/work, emptied before every run
	bin    string // the built cmd/kbt
	buildS float64
}

func newRunEnv() (*runEnv, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	out, err := filepath.Abs("out")
	if err != nil {
		return nil, err
	}
	env := &runEnv{root: root, out: out, work: filepath.Join(out, "work")}
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		return nil, err
	}
	env.bin, env.buildS, err = buildKBT(root, out)
	return env, err
}

func (env *runEnv) resetWork() error {
	if err := os.RemoveAll(env.work); err != nil {
		return err
	}
	return os.MkdirAll(env.work, 0o755)
}

// report collects what one run of one workload measured and checked.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Checks    map[string]float64 `json:"checks,omitempty"`
	Ops       map[string]int     `json:"operation_counts"`
	Samples   map[string]int     `json:"sample_counts,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

func newReport(w workload, seed int64, traced bool) *report {
	return &report{Workload: w.Name, Seed: seed, Traced: traced,
		Metrics: map[string]float64{}, Checks: map[string]float64{}, Ops: map[string]int{}, Samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// check records a correctness measure and fails the run when it is over its
// fixed bound.
func (r *report) check(name string, v, bound float64) {
	r.Checks[name] = v
	if !(v <= bound) {
		r.fail("%s = %g exceeds its bound %g", name, v, bound)
	}
}

func (r *report) finish() { r.Correct = len(r.Problems) == 0 && r.Failed == 0 }

// runOne makes one run of one workload: untraced against the real binary, or
// the traced in-process run with the per-layer replays.
func runOne(env *runEnv, w workload, seed int64, seconds int, smoke, traced bool) (*report, error) {
	if err := env.resetWork(); err != nil {
		return nil, err
	}
	sized, cycles := w.sized(seconds, smoke)
	r := newReport(sized, seed, traced)
	r.set("bench.build_s", env.buildS)
	var err error
	switch {
	case sized.isBatch() && traced:
		err = traceBatch(env, sized, seed, r)
	case sized.isBatch():
		err = runBatch(env, sized, seed, r)
	case traced:
		err = traceServe(env, sized, seed, cycles, r)
	default:
		err = runServe(env, sized, seed, cycles, r)
	}
	killChildren()
	r.finish()
	return r, err
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric the run measured by name with its unit,
// the checks, and what went wrong if anything did.
func printReport(r *report) {
	units := make(map[string]string)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s seed %d (%s): %d operations attempted, %d failed\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	for _, name := range names {
		fmt.Printf("%-44s %14.4f %s\n", name, r.Metrics[name], units[name])
	}
	for name, v := range r.Checks {
		fmt.Printf("%-44s %14.6g\n", name, v)
	}
	for _, p := range r.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}

// driverOutput selects the metrics the contract asks for — every end-to-end
// metric untraced, every per-layer metric traced (0 where the workload does
// not run the layer).
func driverOutput(r *report) driverLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: max(1, r.Attempted), Failed: r.Failed,
		Metrics: make(map[string]driverValue, len(defs))}
	for _, m := range defs {
		line.Metrics[m.Name] = driverValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return line
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured loop the operation counts are sized for")
		trace   = flag.Int("trace", -1, "0: one untraced run; 1: one traced run; with -workload, prints the driver's JSON line last")
		smoke   = flag.Bool("smoke", false, "smoke size: every code path, a fraction of a second per workload")
		repeat  = flag.Int("repeat", 0, "make two sets of this many untraced runs per workload and compare their medians")
		outFile = flag.String("o", "", "with -repeat or a full run, also write the JSON result here")
	)
	flag.Parse()
	killChildrenOnSignal()
	code, err := run(*name, *seed, *seconds, *trace, *smoke, *repeat, *outFile)
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(name string, seed int64, seconds, trace int, smoke bool, repeat int, outFile string) (int, error) {
	selected := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return 0, err
		}
		selected = []workload{w}
	}
	env, err := newRunEnv()
	if err != nil {
		return 0, err
	}
	if repeat > 0 {
		return runRepeat(env, selected, seed, seconds, smoke, repeat, outFile)
	}
	if name != "" && trace >= 0 {
		// The driver's invocation: one run, its JSON object on the last line.
		r, err := runOne(env, selected[0], seed, seconds, smoke, trace == 1)
		if err != nil {
			return 0, err
		}
		printReport(r)
		line, err := json.Marshal(driverOutput(r))
		if err != nil {
			return 0, err
		}
		fmt.Println(string(line))
		return 0, nil
	}
	return runAll(env, selected, seed, seconds, smoke, outFile)
}

// result is what a full run writes to bench/out/result.json.
type result struct {
	Meta      metadata             `json:"meta"`
	Workloads map[string][]*report `json:"workloads"` // the untraced run, then the traced one
}

// runAll makes the untraced and the traced run of every selected workload,
// prints every metric, and writes bench/out/result.json.
func runAll(env *runEnv, selected []workload, seed int64, seconds int, smoke bool, outFile string) (int, error) {
	res := result{Meta: collectMeta(env, seed, seconds, smoke), Workloads: map[string][]*report{}}
	code := 0
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			r, err := runOne(env, w, seed, seconds, smoke, traced)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", w.Name, err)
			}
			printReport(r)
			if !r.Correct {
				code = 1
			}
			res.Workloads[w.Name] = append(res.Workloads[w.Name], r)
		}
	}
	if err := writeJSON(filepath.Join(env.out, "result.json"), res); err != nil {
		return 0, err
	}
	if outFile != "" {
		if err := writeJSON(outFile, res); err != nil {
			return 0, err
		}
	}
	return code, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
