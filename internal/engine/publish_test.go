package engine

import (
	"fmt"
	"testing"

	"kbt/internal/core"
	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// assertResultsBitIdentical compares every posterior and parameter of two
// results through the accessor API, requiring bit equality.
func assertResultsBitIdentical(t *testing.T, tag string, got, want *core.Result) {
	t.Helper()
	for _, c := range []struct {
		name     string
		got, wnt []float64
	}{
		{"A", aOf(got), aOf(want)}, {"P", pOf(got), pOf(want)}, {"R", rOf(got), rOf(want)},
		{"Q", qOf(got), qOf(want)},
		// ExpectedTriples, which the generation path folds by
		// subtract-and-add into exact sums, is held to the bit too.
		{"ExpectedTriples", expOf(got), expOf(want)},
	} {
		if !sameBits(c.got, c.wnt) {
			t.Fatalf("%s: %s diverges bitwise: max |Δ| = %g", tag, c.name, maxAbsDiff(c.got, c.wnt))
		}
	}
	if got.NumTriples() != want.NumTriples() || got.NumItems() != want.NumItems() {
		t.Fatalf("%s: sizes %d/%d, want %d/%d", tag,
			got.NumTriples(), got.NumItems(), want.NumTriples(), want.NumItems())
	}
	for ti := 0; ti < want.NumTriples(); ti++ {
		if got.CProbAt(ti) != want.CProbAt(ti) {
			t.Fatalf("%s: CProb[%d] = %v, want %v", tag, ti, got.CProbAt(ti), want.CProbAt(ti))
		}
		if got.CoveredTripleAt(ti) != want.CoveredTripleAt(ti) {
			t.Fatalf("%s: CoveredTriple[%d] = %v, want %v", tag, ti, got.CoveredTripleAt(ti), want.CoveredTripleAt(ti))
		}
	}
	for d := 0; d < want.NumItems(); d++ {
		if got.RestMassAt(d) != want.RestMassAt(d) {
			t.Fatalf("%s: RestMass[%d] = %v, want %v", tag, d, got.RestMassAt(d), want.RestMassAt(d))
		}
		if got.CoveredItemAt(d) != want.CoveredItemAt(d) {
			t.Fatalf("%s: CoveredItem[%d] = %v, want %v", tag, d, got.CoveredItemAt(d), want.CoveredItemAt(d))
		}
		gr, wr := got.ValueRow(d), want.ValueRow(d)
		if len(gr) != len(wr) {
			t.Fatalf("%s: value row %d has %d slots, want %d", tag, d, len(gr), len(wr))
		}
		for k := range wr {
			if gr[k] != wr[k] {
				t.Fatalf("%s: ValueProb[%d][%d] = %v, want %v", tag, d, k, gr[k], wr[k])
			}
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations/converged = %d/%v, want %d/%v", tag,
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

// TestGenerationPublishMatchesFullBuild: across a warm refresh sequence, the
// copy-on-write generation the engine publishes must be bit-identical —
// through every accessor — to an O(corpus) deep-copy build from the same
// working arrays, and old generations must keep their values after later
// refreshes swap in new ones.
func TestGenerationPublishMatchesFullBuild(t *testing.T) {
	for _, trial := range []struct {
		name   string
		shards int
	}{
		{"local", 8},
		{"groups", 16},
	} {
		t.Run(trial.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Shards = trial.shards
			opt.Core.MinSourceSupport = 1
			opt.Core.MinExtractorSupport = 1
			opt.Core.Tol = 1e-4
			opt.Core.MaxIter = 30
			eng := New(opt)

			type gen struct {
				res  *Result
				flat *core.Result // deep copy captured at publish time
			}
			var history []gen
			for step := 0; step < 4; step++ {
				var batch []triple.Record
				if trial.name == "local" {
					if step == 0 {
						batch = localDataset(32)
					} else {
						all := localDataset(32 + 8*step)
						batch = all[len(localDataset(32+8*(step-1))):]
					}
				} else {
					batch = synthetic.GroupLocalCorpus(10*step, 10)
				}
				if err := eng.Ingest(batch...); err != nil {
					t.Fatal(err)
				}
				res, err := eng.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				// The deep build reads the same working arrays the COW
				// publication read, so the two must agree to the bit.
				flat := eng.em.BuildResult(eng.cProb, eng.valueProb, eng.restMass, eng.coveredItem,
					res.Inference.Iterations, res.Inference.Converged)
				assertResultsBitIdentical(t, fmt.Sprintf("%s step %d", trial.name, step), res.Inference, flat)
				history = append(history, gen{res, flat})
			}
			// Every old generation still reproduces the values it was
			// published with: chunk sharing never lets a later refresh
			// mutate an already-published result.
			for i, g := range history {
				assertResultsBitIdentical(t, fmt.Sprintf("%s generation %d after %d more refreshes",
					trial.name, i, len(history)-1-i), g.res.Inference, g.flat)
			}
		})
	}
}

// TestAbsenceMassAnchorBitExact: the absence masses an engine folds in place
// across extensions and vote republishes are exact sums, so at every
// published refresh they must equal a derivation from scratch bit for bit.
func TestAbsenceMassAnchorBitExact(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 8
	opt.Core.MinSourceSupport = 1
	opt.Core.MinExtractorSupport = 1
	opt.Core.Tol = 1e-4
	opt.Core.MaxIter = 20
	eng := New(opt)
	for step := 0; step < 5; step++ {
		if err := eng.Ingest(synthetic.GroupLocalCorpus(6*step, 6)...); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
		gotTotal, gotCells := eng.em.AbsenceMasses()
		wantTotal, wantCells := eng.em.RecomputeAbsenceMasses()
		if gotTotal != wantTotal {
			t.Fatalf("step %d: global absence mass %v, want %v", step, gotTotal, wantTotal)
		}
		if len(gotCells) != len(wantCells) {
			t.Fatalf("step %d: %d cell masses, want %d", step, len(gotCells), len(wantCells))
		}
		for c := range wantCells {
			if gotCells[c] != wantCells[c] {
				t.Fatalf("step %d: cell %d mass %v, want %v (the fold should be bit-exact)",
					step, c, gotCells[c], wantCells[c])
			}
		}
	}
}
