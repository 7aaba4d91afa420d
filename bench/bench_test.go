package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The highest percentile a report may quote needs ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0}, {39, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// gating driver uses: for 1..10 that is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), 1.0; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two children that overlap each other: their union [10,50) counts once.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		// An async child that outlives the parent: only [90,100) is inside.
		{ID: 4, Parent: 1, Start: 90, End: 400},
		// A grandchild takes from its own parent only.
		{ID: 5, Parent: 2, Start: 15, End: 25},
		// A child that started after the parent ended covers nothing of it.
		{ID: 6, Parent: 3, Start: 60, End: 70},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 310, 5: 10, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerDropsPastCapacity(t *testing.T) {
	tr := newTracer(2)
	a := tr.begin("a", 0, 1)
	tr.end(a)
	tr.add(span{Name: "b", Start: 1, End: 2})
	if id := tr.begin("c", 0, 1); id != 0 {
		t.Errorf("span past capacity got id %d, want 0", id)
	}
	tr.end(0)
	if got := tr.dropped.Load(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := len(tr.spans()); got != 2 {
		t.Errorf("%d spans recorded, want 2", got)
	}
	var none *tracer
	none.end(none.begin("untraced", 0, 0)) // a nil tracer records nothing and does not panic
}

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, bad := range []string{"", "a b", "ms/op", ".x", "é"} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("name %q should not be accepted", bad)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and the benchmark's own catalogue must say the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %+v, the benchmark has %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 fit", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the benchmark has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: listed %+v, the benchmark has %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, the benchmark has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: listed %+v, the benchmark has %+v", i, got, m)
		}
	}
}

// Smoke runs of every workload: the names the command emits are the
// catalogue's, every check passes, and two traced runs of one seed repeat
// every exact-repeat counter.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/kbt and starts servers")
	}
	env, err := newRunEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killChildren)
	emitted := make(map[string]bool)
	for _, w := range workloads {
		var traced []*report
		for _, mode := range []bool{false, true, true} {
			r, err := runOne(env, w, 7, defaultSeconds, true, mode)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, mode, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, mode, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			for name, v := range r.Metrics {
				emitted[name] = true
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", w.Name, name, v)
				}
			}
			line := driverOutput(r)
			if mode {
				traced = append(traced, r)
				if len(line.Metrics) != len(perLayer) {
					t.Errorf("%s: traced run emits %d metrics, want %d", w.Name, len(line.Metrics), len(perLayer))
				}
				continue
			}
			for _, m := range endToEnd {
				if v := line.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v)
				}
			}
		}
		for _, m := range perLayer {
			if m.Exact && traced[0].Metrics[m.Name] != traced[1].Metrics[m.Name] {
				t.Errorf("%s: %s = %v then %v on the same seed", w.Name, m.Name,
					traced[0].Metrics[m.Name], traced[1].Metrics[m.Name])
			}
		}
		if !reflect.DeepEqual(traced[0].Ops, traced[1].Ops) {
			t.Errorf("%s: operation counts %v then %v on the same seed", w.Name, traced[0].Ops, traced[1].Ops)
		}
	}
	var want, got []string
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		want = append(want, m.Name)
	}
	for name := range emitted {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("emitted metric names differ from the catalogue:\n emitted %v\n catalogue %v", got, want)
	}
}
