package main

import (
	"fmt"
)

// setStats summarises one metric over one set of runs.
type setStats struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

func summarise(values []float64) setStats {
	q1, q2, q3 := quartiles(values)
	return setStats{Values: values, Q1: q1, Median: q2, Q3: q3, Spread: spread(values)}
}

// repeatMetric compares one end-to-end metric of one workload across the two
// sets.
type repeatMetric struct {
	Unit      string      `json:"unit"`
	Bound     float64     `json:"bound"`
	Sets      [2]setStats `json:"sets"`
	Worsening float64     `json:"second_median_worse_by"` // share of the first median; negative is better
	Within    bool        `json:"within_bound"`
}

type repeatResult struct {
	Meta      metadata                           `json:"meta"`
	Runs      int                                `json:"runs_per_set"`
	Workloads map[string]map[string]repeatMetric `json:"workloads"`
	// Exact lists, per workload, whether every run of one seed repeated the
	// operation counts of that seed's other run.
	OpsRepeat map[string]bool `json:"operation_counts_repeat"`
	Failed    int             `json:"ops_failed"`
	Incorrect int             `json:"incorrect_runs"`
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runRepeat makes two sets of n untraced runs of each workload — seeds
// seed..seed+n-1 in both — and prints and stores, per end-to-end metric, each
// set's median, quartiles and spread. It exits non-zero if the second set's
// median is worse than the first's by more than the metric's bound, or any
// run failed an operation or a check: it is the same code both times, so
// either means the benchmark cannot tell a change from noise.
func runRepeat(env *runEnv, selected []workload, seed int64, seconds int, smoke bool, n int, outFile string) (int, error) {
	res := repeatResult{Meta: collectMeta(env, seed, seconds, smoke), Runs: n,
		Workloads: map[string]map[string]repeatMetric{}, OpsRepeat: map[string]bool{}}
	code := 0
	for _, w := range selected {
		var values [2]map[string][]float64
		opsOf := make(map[int64]map[string]int)
		res.OpsRepeat[w.Name] = true
		for set := 0; set < 2; set++ {
			values[set] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				r, err := runOne(env, w, seed+int64(i), seconds, smoke, false)
				if err != nil {
					return 0, fmt.Errorf("%s set %d run %d: %w", w.Name, set+1, i+1, err)
				}
				fmt.Printf("%s set %d run %d/%d seed %d: correct=%v failed=%d\n", w.Name, set+1, i+1, n, r.Seed, r.Correct, r.Failed)
				res.Failed += r.Failed
				if !r.Correct {
					res.Incorrect++
					code = 1
					for _, p := range r.Problems {
						fmt.Println("PROBLEM:", p)
					}
				}
				for _, m := range endToEnd {
					values[set][m.Name] = append(values[set][m.Name], r.Metrics[m.Name])
				}
				if prev, ok := opsOf[r.Seed]; ok {
					for k, v := range r.Ops {
						// The query count follows the loop's length; every other
						// count is fixed by the seed.
						if k != "queries" && prev[k] != v {
							res.OpsRepeat[w.Name] = false
						}
					}
				}
				opsOf[r.Seed] = r.Ops
			}
		}
		res.Workloads[w.Name] = make(map[string]repeatMetric)
		fmt.Printf("== %s: two sets of %d runs\n", w.Name, n)
		for _, m := range endToEnd {
			rm := repeatMetric{Unit: m.Unit, Bound: m.Bound,
				Sets: [2]setStats{summarise(values[0][m.Name]), summarise(values[1][m.Name])}}
			rm.Worsening = worsening(m, rm.Sets[0].Median, rm.Sets[1].Median)
			rm.Within = rm.Worsening <= m.Bound
			if !rm.Within {
				code = 1
			}
			res.Workloads[w.Name][m.Name] = rm
			for i, s := range rm.Sets {
				fmt.Printf("%-20s set %d  median %12.4f  q1 %12.4f  q3 %12.4f  spread %5.1f%% %s\n",
					m.Name, i+1, s.Median, s.Q1, s.Q3, s.Spread*100, m.Unit)
			}
			fmt.Printf("%-20s second median worse by %+.1f%% (bound %.0f%%) within=%v\n", m.Name, rm.Worsening*100, m.Bound*100, rm.Within)
		}
		if !res.OpsRepeat[w.Name] {
			code = 1
		}
	}
	if outFile != "" {
		if err := writeJSON(outFile, res); err != nil {
			return 0, err
		}
	}
	return code, nil
}
