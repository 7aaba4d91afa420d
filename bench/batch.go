package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kbt"
	"kbt/internal/core"
	"kbt/internal/fusion"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// batchInput is the web corpus of one seed and the TSV file that holds it.
type batchInput struct {
	world   *websim.World // ground truth, under unsalted site names
	salt    string
	records []triple.Record
	path    string
}

// setUpBatch generates the web corpus from the seed and writes it as the TSV
// file the subprocesses read.
func setUpBatch(env *runEnv, w workload, seed int64) (*batchInput, error) {
	in := &batchInput{path: filepath.Join(env.work, "web.tsv")}
	var err error
	if in.world, in.salt, in.records, err = webCorpus(seed, w.webScale); err != nil {
		return nil, err
	}
	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	if err := triple.WriteTSV(f, &triple.Dataset{Records: in.records}); err != nil {
		f.Close()
		return nil, err
	}
	return in, f.Close()
}

// runJobs runs `kbt <args> file` n times and returns each run's cost; a run
// that fails is counted, not fatal.
func runJobs(env *runEnv, r *report, n int, jobEnv []string, args ...string) []jobUsage {
	var out []jobUsage
	for i := 0; i < n; i++ {
		r.Attempted++
		u, err := runJob(env.bin, jobEnv, args...)
		if err != nil {
			r.Failed++
			r.fail("%v", err)
			continue
		}
		out = append(out, u)
	}
	return out
}

func walls(us []jobUsage) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.wallS
	}
	return out
}

// Bounds of the batch checks, fixed from the first measurements (README.md):
// the printed scores carry four decimals, and the mean deviation from the
// simulated sites' true accuracies was 0.09.
const (
	printedTol      = 5e-5
	meanAbsDevBound = 0.15
)

// runBatch is one untraced run of batch_web: the paper's job, as subprocesses
// of the real binary. The measured loop is the estimate runs followed by the
// fuse runs.
func runBatch(env *runEnv, w workload, seed int64, r *report) error {
	var setups []float64
	var in *batchInput
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if in, err = setUpBatch(env, w, seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", percentile(setups, 25))
	records, path := len(in.records), in.path

	start := time.Now()
	est := runJobs(env, r, w.estimates, nil, "estimate", "-granularity", "auto", path)
	fuse := runJobs(env, r, w.fuses, nil, "fuse", path)
	loopS := time.Since(start).Seconds()
	if len(est) == 0 || len(fuse) == 0 {
		return fmt.Errorf("no batch job succeeded")
	}
	batchJobMetrics(r, est, fuse)
	var cpuPerRecord []float64
	for _, u := range append(append([]jobUsage(nil), est...), fuse...) {
		cpuPerRecord = append(cpuPerRecord, u.cpuS*1e6/float64(records))
	}
	r.set("cmd.records_per_s", float64(records*(len(est)+len(fuse)))/loopS)
	r.set("visible_ms_p25", percentile(walls(est), 25)*1e3)
	r.set("cpu_us_per_record", percentile(cpuPerRecord, 25))
	r.set("rss_mb", r.Metrics["cmd.estimate_rss_mb"])
	r.Ops["records"] = records
	r.Ops["estimate_runs"] = w.estimates
	r.Ops["fuse_runs"] = w.fuses
	r.Samples["estimate_runs"] = len(est)
	r.Samples["fuse_runs"] = len(fuse)

	return checkBatch(env, r, in)
}

func batchJobMetrics(r *report, est, fuse []jobUsage) {
	var cpu, rss []float64
	for _, u := range est {
		cpu = append(cpu, u.cpuS)
		rss = append(rss, u.rssMB)
	}
	r.set("cmd.estimate_s", median(walls(est)))
	r.set("cmd.estimate_cpu_s", median(cpu))
	r.set("cmd.estimate_rss_mb", median(rss))
	r.set("cmd.fuse_s", median(walls(fuse)))
}

// checkBatch compares the binary's website-granularity scores with an
// in-process estimation over the same records, and the scores with the
// simulated sites' true accuracies.
func checkBatch(env *runEnv, r *report, in *batchInput) error {
	r.Attempted++
	u, err := runJob(env.bin, nil, "estimate", "-granularity", "website", "-top", "0", in.path)
	if err != nil {
		r.Failed++
		r.fail("%v", err)
		return nil
	}
	ds := kbt.NewDataset()
	for _, x := range toExtractions(in.records) {
		ds.Add(x)
	}
	opt := kbt.DefaultOptions()
	opt.Granularity = kbt.GranularityWebsite
	res, err := kbt.EstimateKBT(ds, opt)
	if err != nil {
		return err
	}
	want := res.Sources()
	sc := bufio.NewScanner(bytes.NewReader(u.stdout))
	sc.Scan() // header line
	n := 0
	for ; sc.Scan(); n++ {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || n >= len(want) {
			r.fail("unexpected estimate output line %d: %q", n+2, sc.Text())
			return nil
		}
		score, err1 := strconv.ParseFloat(f[1], 64)
		reportable, err2 := strconv.ParseBool(f[3])
		if err1 != nil || err2 != nil || f[0] != want[n].Name || reportable != want[n].Reportable ||
			math.Abs(score-want[n].KBT) > printedTol {
			r.fail("rank %d: binary printed %q, in-process estimation has %+v", n, sc.Text(), want[n])
			return nil
		}
	}
	if n != len(want) {
		r.fail("binary printed %d sources, in-process estimation has %d", n, len(want))
	}

	var dev float64
	reported := 0
	for _, s := range want {
		site, ok := in.world.SiteOf(strings.TrimPrefix(s.Name, in.salt))
		if s.Reportable && ok {
			dev += math.Abs(s.KBT - site.Accuracy)
			reported++
		}
	}
	if reported == 0 {
		r.fail("no reportable site to compare with the simulated truth")
		return nil
	}
	r.check("check.kbt_mean_abs_dev", dev/float64(reported), meanAbsDevBound)
	return nil
}

// traceBatch is the per-layer run of batch_web: the binary's other batch
// entry points as subprocesses, then the same records through each package
// below the facade.
func traceBatch(env *runEnv, w workload, seed int64, r *report) error {
	r.Attempted++
	gen, err := runJob(env.bin, nil, "generate", "-kind", "web", "-scale", strconv.FormatFloat(w.webScale, 'g', -1, 64),
		"-seed", strconv.Itoa(webStructureSeed), "-o", filepath.Join(env.work, "generated.tsv"))
	if err != nil {
		return err
	}
	r.set("cmd.generate_s", gen.wallS)

	in, err := setUpBatch(env, w, seed)
	if err != nil {
		return err
	}
	path, records := in.path, in.records
	est := runJobs(env, r, w.estimates, nil, "estimate", "-granularity", "auto", path)
	fuse := runJobs(env, r, w.fuses, nil, "fuse", path)
	one := runJobs(env, r, w.gomaxprocs1Repeats, []string{"GOMAXPROCS=1"}, "estimate", "-granularity", "auto", path)
	if len(est) == 0 || len(fuse) == 0 || len(one) == 0 {
		return fmt.Errorf("no batch job succeeded")
	}
	batchJobMetrics(r, est, fuse)
	r.set("cmd.estimate_s_gomaxprocs1", median(walls(one)))
	r.set("cmd.estimate_parallel_speedup", median(walls(one))/median(walls(est)))

	ds := kbt.NewDataset()
	for _, x := range toExtractions(records) {
		ds.Add(x)
	}
	start := time.Now()
	if _, err := kbt.EstimateKBT(ds, kbt.DefaultOptions()); err != nil {
		return err
	}
	r.set("kbt.estimate_s", time.Since(start).Seconds())

	if err := replayTSV(r, records); err != nil {
		return err
	}
	src, ext, err := replayGranularity(r, records)
	if err != nil {
		return err
	}
	var snap *triple.Snapshot
	r.set("triple.compile_ms", timeMS(func() {
		snap = (&triple.Dataset{Records: records}).Compile(triple.CompileOptions{SourceLabels: src, ExtractorLabels: ext})
	}))
	def := kbt.DefaultOptions()
	copt := core.DefaultOptions().WithSharedKnobs(def.DomainSize, def.Iterations, def.MinSupport,
		def.UseConfidence, def.AllExtractorsVoteAbsence)
	if err := replayCoreIteration(r, snap, copt); err != nil {
		return err
	}
	prov := (&triple.Dataset{Records: records}).Compile(triple.CompileOptions{SourceKey: triple.ProvenanceKey, ExtractorKey: triple.ExtractorKeyName})
	fopt := fusion.DefaultOptions()
	fdef := kbt.DefaultFusionOptions()
	fopt.N, fopt.MaxIter, fopt.MinSupport, fopt.UseConfidence = fdef.DomainSize, fdef.Iterations, fdef.MinSupport, fdef.UseConfidence
	r.set("fusion.run_batch_ms", timeMS(func() { _, err = fusion.Run(prov, fopt) }))
	r.Ops["records"] = len(records)
	return err
}
