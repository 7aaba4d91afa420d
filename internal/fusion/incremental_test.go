package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kbt/internal/triple"
)

// fusionStream builds a random extraction corpus with overlapping
// provenances, conflicting values, duplicate cells with raised confidences,
// and provenances sparse enough to cross MinSupport mid-stream.
func fusionStream(rng *rand.Rand, n int) []triple.Record {
	nSites := rng.Intn(5) + 3
	nExts := rng.Intn(3) + 2
	nSubj := rng.Intn(8) + 4
	nObj := rng.Intn(4) + 2
	recs := make([]triple.Record, 0, n)
	for i := 0; i < n; i++ {
		r := triple.Record{
			Extractor: fmt.Sprintf("E%d", rng.Intn(nExts)),
			Pattern:   fmt.Sprintf("pat%d", rng.Intn(2)),
			Website:   fmt.Sprintf("w%d.com", rng.Intn(nSites)),
			Subject:   fmt.Sprintf("S%d", rng.Intn(nSubj)),
			Predicate: "p",
			Object:    fmt.Sprintf("v%d", rng.Intn(nObj)),
		}
		r.Page = r.Website + "/x"
		if rng.Intn(3) != 0 {
			r.Confidence = float64(rng.Intn(20)+1) / 20
		}
		recs = append(recs, r)
	}
	return recs
}

func fusionVariant(trial int) Options {
	opt := DefaultOptions()
	opt.MaxIter = trial%4 + 2
	opt.MinSupport = trial%3 + 1
	if trial%2 == 1 {
		opt.Model = PopAccu
	}
	if trial%3 == 2 {
		opt.UseConfidence = false
	}
	return opt
}

// TestIncrementalColdMatchesRun pins the streaming store's first Refresh to
// the batch Run bit for bit: a cold refresh is a full pass with full
// aggregation, so every float must be identical, across models, confidence
// weighting, and support thresholds.
func TestIncrementalColdMatchesRun(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(400 + trial)))
		recs := fusionStream(rng, rng.Intn(150)+50)
		opt := fusionVariant(trial)

		inc, err := NewIncremental(opt, triple.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.Refresh(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := (&triple.Dataset{Records: recs}).Compile(triple.CompileOptions{
			SourceKey:    triple.ProvenanceKey,
			ExtractorKey: triple.ExtractorKeyName,
		})
		want, err := Run(snap, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: cold Refresh diverges from Run\n got  %+v\n want %+v", trial, got, want)
		}
		if inc.FusedLast() != len(snap.Items) {
			t.Fatalf("trial %d: cold refresh fused %d items, want all %d", trial, inc.FusedLast(), len(snap.Items))
		}
	}
}

// TestColdRefreshTinyConfidenceMatchesRun: a provenance whose whole vote
// weight is tiny still takes the accuracy Run gives it. Three provenances
// vote on four items, one of them (E2 on tiny.com) at confidence 1e-10; a
// cold Refresh must reproduce Run's accuracies bit for bit rather than
// mistake the tiny denominator for cancellation residue.
func TestColdRefreshTinyConfidenceMatchesRun(t *testing.T) {
	var recs []triple.Record
	for i := 0; i < 4; i++ {
		for _, v := range []struct {
			ext, site, obj string
			conf           float64
		}{
			{"E0", "a.com", "x", 1},
			{"E1", "b.com", "y", 1},
			{"E2", "tiny.com", "x", 1e-10},
		} {
			recs = append(recs, triple.Record{Extractor: v.ext, Website: v.site, Page: v.site + "/p",
				Subject: fmt.Sprintf("S%d", i), Predicate: "p", Object: v.obj, Confidence: v.conf})
		}
	}
	inc, err := NewIncremental(DefaultOptions(), triple.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Refresh(recs, recs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(inc.Snapshot(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.Accuracy, want.Accuracy) {
		t.Fatalf("cold refresh accuracies %v, Run %v", got.Accuracy, want.Accuracy)
	}
}

// TestFuzzIncrementalMatchesFullAggregates drives randomized ingest schedules
// through the delta-maintained store and its full-aggregation oracle twin.
// The two run the identical partial-pass structure — only the M-step
// aggregation differs, and its sums are exact — so accuracies and posteriors
// must agree bit for bit and every discrete decision (participation,
// coverage, iteration count) must be identical.
func TestFuzzIncrementalMatchesFullAggregates(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		opt := fusionVariant(trial)

		fast, err := NewIncremental(opt, triple.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oracleOpt := opt
		oracleOpt.FullAggregates = true
		oracle, err := NewIncremental(oracleOpt, triple.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}

		recs := fusionStream(rng, rng.Intn(180)+60)
		var all []triple.Record
		start := 0
		step := 0
		for start < len(recs) {
			var batch []triple.Record
			switch rng.Intn(5) {
			case 0:
				// Resume refresh: nothing new.
			case 1:
				// Duplicate-cell nudge: re-ingest absorbed records.
				if start > 0 {
					k := min(rng.Intn(3)+1, start)
					batch = recs[start-k : start]
				}
			case 2, 3:
				n := min(rng.Intn(6)+1, len(recs)-start)
				batch = recs[start : start+n]
				start += n
			default:
				n := rng.Intn(len(recs)-start) + 1
				batch = recs[start : start+n]
				start += n
			}
			all = append(all, batch...)
			if len(all) == 0 {
				continue
			}
			got, err := fast.Refresh(all, batch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Refresh(all, batch)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("trial %d step %d (model=%d minsup=%d)",
				trial, step, opt.Model, opt.MinSupport)
			step++

			if !reflect.DeepEqual(got.Updated, want.Updated) {
				t.Fatalf("%s: participation diverges", tag)
			}
			if !reflect.DeepEqual(got.CoveredItem, want.CoveredItem) {
				t.Fatalf("%s: coverage diverges", tag)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("%s: iterations = %d, oracle %d", tag, got.Iterations, want.Iterations)
			}
			if !sameBits(got.Accuracy, want.Accuracy) {
				t.Fatalf("%s: accuracy diverges: max |Δ| = %g", tag, maxAbsDiff(got.Accuracy, want.Accuracy))
			}
			if !sameBits(got.RestMass, want.RestMass) {
				t.Fatalf("%s: rest mass diverges: max |Δ| = %g", tag, maxAbsDiff(got.RestMass, want.RestMass))
			}
			for d := range got.ValueProb {
				if !sameBits(got.ValueProb[d], want.ValueProb[d]) {
					t.Fatalf("%s: value posterior of item %d diverges: max |Δ| = %g", tag, d,
						maxAbsDiff(got.ValueProb[d], want.ValueProb[d]))
				}
			}
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		if dd := math.Abs(a[i] - b[i]); dd > d {
			d = dd
		}
	}
	return d
}

// sameBits reports whether two vectors hold the identical float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestIncrementalFlipRefusesItsItems pins the reach of a participation flip.
// Provenance P sits below MinSupport while naming two values of item i1 and
// being the only voter on item i2; a later batch gives P its MinSupport-th
// observation, on the new item i3. The refresh must re-fuse exactly P's
// items, i1 once: i2 is covered only because the flip put it in the pass,
// and the bystander items of Q and R stay out of it.
func TestIncrementalFlipRefusesItsItems(t *testing.T) {
	rec := func(site, subj, obj string) triple.Record {
		return triple.Record{Extractor: "E", Pattern: "pat", Website: site, Page: site + "/x",
			Subject: subj, Predicate: "p", Object: obj}
	}
	var recs []triple.Record
	for _, site := range []string{"q.com", "r.com"} {
		recs = append(recs, rec(site, "i1", "a"), rec(site, "i4", "z"), rec(site, "i5", "z"), rec(site, "i6", "z"))
	}
	recs = append(recs, rec("p.com", "i1", "a"), rec("p.com", "i1", "b"), rec("p.com", "i2", "x"))

	opt := DefaultOptions()
	opt.MinSupport = 4
	opt.MaxIter = 20
	// Wide enough that P's first accuracy move (from 0.8 to about 0.75, or
	// about 0.67 had the flip missed i2) widens no pass through the drift
	// ledger: only the flip can put i2 in it.
	opt.Tol = 0.25
	inc, err := NewIncremental(opt, triple.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := inc.Refresh(recs, recs)
	if err != nil {
		t.Fatal(err)
	}
	s := inc.Snapshot()
	p, i2 := s.SourceID(triple.ProvenanceKey.Label(recs[len(recs)-1])), s.ItemID("i2", "p")
	if before.Updated[p] || before.CoveredItem[i2] {
		t.Fatalf("before the flip: P participates = %v, i2 covered = %v; want neither", before.Updated[p], before.CoveredItem[i2])
	}
	if before.Iterations == opt.MaxIter {
		t.Fatal("the first refresh did not converge, so the next would re-fuse every item")
	}

	batch := []triple.Record{rec("p.com", "i3", "y")}
	recs = append(recs, batch...)
	after, err := inc.Refresh(recs, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Updated[p] || !after.CoveredItem[i2] {
		t.Fatalf("after the flip: P participates = %v, i2 covered = %v; want both", after.Updated[p], after.CoveredItem[i2])
	}
	if got := inc.FusedLast(); got != 3 {
		t.Fatalf("the flip re-fused %d items, want P's three (i1, i2, i3) of %d", got, len(inc.Snapshot().Items))
	}
}

// TestIncrementalResumeAtFixedPointFusesNothing: a Refresh with nothing
// pending after a converged one finds an empty scope. It must re-fuse no item
// — an empty pass is not a pass over every item — take the one iteration that
// shows the accuracies stay put, and change no bit of the result.
func TestIncrementalResumeAtFixedPointFusesNothing(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1300 + trial)))
		recs := fusionStream(rng, rng.Intn(150)+50)
		opt := fusionVariant(trial)
		opt.MaxIter = 500
		opt.FullAggregates = trial%4 == 3

		inc, err := NewIncremental(opt, triple.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		half := len(recs) / 2
		if _, err := inc.Refresh(recs[:half], recs[:half]); err != nil {
			t.Fatal(err)
		}
		before, err := inc.Refresh(recs, recs[half:])
		if err != nil {
			t.Fatal(err)
		}
		if !before.Converged {
			t.Fatalf("trial %d: the warm refresh did not converge in %d iterations", trial, opt.MaxIter)
		}
		after, err := inc.Refresh(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inc.FusedLast() != 0 || after.Iterations != 1 || !after.Converged {
			t.Fatalf("trial %d: resume at the fixed point fused %d items in %d iterations (converged %v); want 0 in 1",
				trial, inc.FusedLast(), after.Iterations, after.Converged)
		}
		if !sameBits(after.Accuracy, before.Accuracy) || !sameBits(after.RestMass, before.RestMass) ||
			!reflect.DeepEqual(after.Updated, before.Updated) || !reflect.DeepEqual(after.CoveredItem, before.CoveredItem) ||
			len(after.ValueProb) != len(before.ValueProb) {
			t.Fatalf("trial %d: resume at the fixed point moved the result", trial)
		}
		for d := range after.ValueProb {
			if !sameBits(after.ValueProb[d], before.ValueProb[d]) {
				t.Fatalf("trial %d: resume at the fixed point moved item %d's posterior", trial, d)
			}
		}
	}
}

// TestRunIterationsAccounting: Iterations counts the EM iterations actually
// run — k when iteration k converges, also when k is the last one MaxIter
// allows, and MaxIter when none converges — as in the engine's
// TestIterationsAccounting. Run and a cold Incremental refresh must report
// the identical (Iterations, Converged) in every regime.
func TestRunIterationsAccounting(t *testing.T) {
	recs := fusionStream(rand.New(rand.NewSource(7)), 200)
	snap := (&triple.Dataset{Records: recs}).Compile(triple.CompileOptions{
		SourceKey:    triple.ProvenanceKey,
		ExtractorKey: triple.ExtractorKeyName,
	})
	base := DefaultOptions()
	base.MaxIter = 100
	ref, err := Run(snap, base)
	if err != nil {
		t.Fatal(err)
	}
	k := ref.Iterations
	if !ref.Converged || k < 2 || k >= base.MaxIter {
		t.Fatalf("fixture: converged %v at %d iterations; need 2 <= k < %d", ref.Converged, k, base.MaxIter)
	}
	for _, tc := range []struct {
		name          string
		maxIter       int
		wantIter      int
		wantConverged bool
	}{
		{"converges below the cap", k + 3, k, true},
		{"convergence lands on the final iteration", k, k, true},
		{"exhausts the cap unconverged", k - 1, k - 1, false},
		{"single-iteration cap", 1, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			opt.MaxIter = tc.maxIter
			run, err := Run(snap, opt)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := NewIncremental(opt, triple.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := inc.Refresh(recs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]*Result{"Run": run, "cold Incremental": cold} {
				if res.Iterations != tc.wantIter || res.Converged != tc.wantConverged {
					t.Errorf("%s: iterations/converged = %d/%v, want %d/%v",
						name, res.Iterations, res.Converged, tc.wantIter, tc.wantConverged)
				}
			}
		})
	}
}
