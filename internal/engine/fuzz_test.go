package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kbt/internal/core"
	"kbt/internal/triple"
)

// randomStream builds a random extraction corpus over a small vocabulary:
// overlapping witnesses, conflicting values, duplicate (e,w,d,v) cells with
// differing confidences (exercising Extend's in-place confidence raises),
// unspecified confidences, and units sparse enough to cross support
// thresholds mid-stream.
func randomStream(rng *rand.Rand, n int) []triple.Record {
	nSites := rng.Intn(6) + 3
	nExts := rng.Intn(4) + 2
	nSubj := rng.Intn(10) + 4
	nPred := rng.Intn(4) + 1
	nObj := rng.Intn(5) + 2
	recs := make([]triple.Record, 0, n)
	for i := 0; i < n; i++ {
		r := triple.Record{
			Extractor: fmt.Sprintf("E%d", rng.Intn(nExts)),
			Pattern:   fmt.Sprintf("pat%d", rng.Intn(2)),
			Website:   fmt.Sprintf("w%d.com", rng.Intn(nSites)),
			Subject:   fmt.Sprintf("S%d", rng.Intn(nSubj)),
			Predicate: fmt.Sprintf("p%d", rng.Intn(nPred)),
			Object:    fmt.Sprintf("v%d", rng.Intn(nObj)),
		}
		r.Page = r.Website + "/x"
		switch rng.Intn(3) {
		case 0: // unspecified confidence
		default:
			r.Confidence = float64(rng.Intn(20)+1) / 20
		}
		recs = append(recs, r)
	}
	return recs
}

// assertSnapshotsBitIdentical compares every exported table of the two
// snapshots — the Extend path must reproduce the Compile path exactly.
func assertSnapshotsBitIdentical(t *testing.T, tag string, got, want *triple.Snapshot) {
	t.Helper()
	cmp := func(name string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: snapshot table %s diverges\n got  %v\n want %v", tag, name, g, w)
		}
	}
	cmp("Obs", got.Obs, want.Obs)
	label := func(n int, label func(int) string) []string {
		out := make([]string, n)
		for id := range out {
			out[id] = label(id)
		}
		return out
	}
	cmp("Sources", label(got.NumSources(), func(w int) string { return got.Source(w).String() }),
		label(want.NumSources(), func(w int) string { return want.Source(w).String() }))
	cmp("Extractors", label(got.NumExtractors(), func(e int) string { return got.Extractor(e).String() }),
		label(want.NumExtractors(), func(e int) string { return want.Extractor(e).String() }))
	cmp("Items", got.Items, want.Items)
	cmp("Values", label(got.NumValues(), got.Value), label(want.NumValues(), want.Value))
	cmp("Predicates", label(got.NumPredicates(), got.Predicate), label(want.NumPredicates(), want.Predicate))
	cmp("PredOfItem", got.PredOfItem, want.PredOfItem)
	cmp("ItemValues", got.ItemValues, want.ItemValues)
	cmp("Triples", got.Triples, want.Triples)
	cmp("ByTriple", got.ByTriple, want.ByTriple)
	cmp("TriplesOfItem", got.TriplesOfItem, want.TriplesOfItem)
	cmp("TriplesOfSource", got.TriplesOfSource, want.TriplesOfSource)
	cmp("ObsOfExtractor", got.ObsOfExtractor, want.ObsOfExtractor)
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

// assertKeptVotes checks the EM state's kept Stage II source votes in situ,
// through what an engine test can reach: Stage II over the live state must
// equal, bit for bit, Stage II over a fresh state of the same snapshot that
// carries the parameters and the vote weights, and so derives every vote
// anew. (core's TestSourceVoteInvariant reads the votes themselves.)
func assertKeptVotes(t *testing.T, tag string, e *Engine) {
	t.Helper()
	fresh, err := core.NewEM(e.snap, e.opt.Core)
	if err != nil {
		t.Fatal(err)
	}
	fresh.CarryParamsFrom(e.em)
	fresh.CarrySourceVoteWeightsFrom(e.em)
	nItem := len(e.snap.Items)
	stage2 := func(em *core.EM) ([][]float64, []float64) {
		valueProb, restMass := make([][]float64, nItem), make([]float64, nItem)
		em.EStepItems(e.cProb, valueProb, restMass, make([]bool, nItem), nil, 1)
		return valueProb, restMass
	}
	gotVP, gotRest := stage2(e.em)
	wantVP, wantRest := stage2(fresh)
	if !reflect.DeepEqual(gotVP, wantVP) || !reflect.DeepEqual(gotRest, wantRest) {
		t.Fatalf("%s: Stage II through the kept source votes differs from Stage II through votes derived anew", tag)
	}
}

// TestFuzzIncrementalAggregatesMatchOracle drives randomized ingest
// schedules through the default engine (extended EM state + incremental
// M-step aggregates + per-unit staleness settling) and the FullRecompile +
// full-aggregation oracle, across shard counts, both absence scopes, support
// thresholds that flip inclusion mid-stream, and loose/tight tolerances. The
// schedule mixes the ingest regimes the staleness ledger must handle: resume
// refreshes, below-Tol nudges (re-ingested duplicate cells that barely move
// any parameter), small fresh batches, and large above-Tol batches whose
// settling must still match the oracle. Every refresh must agree with the
// oracle bit for bit on parameters and posteriors, with bit-identical
// snapshots, identical settling decisions, and internally consistent shard
// accounting.
func TestFuzzIncrementalAggregatesMatchOracle(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		opt := DefaultOptions()
		opt.Shards = []int{1, 3, 8}[trial%3]
		opt.Core.MaxIter = rng.Intn(6) + 3
		opt.Core.MinSourceSupport = rng.Intn(3) + 1
		opt.Core.MinExtractorSupport = rng.Intn(3) + 1
		if trial%2 == 1 {
			opt.Core.Scope = core.ScopeAllExtractors
		}
		if trial%4 < 2 {
			opt.Core.Tol = 1e-4 // the loose serving tolerance
		}

		fast := New(opt)
		oracleOpt := opt
		oracleOpt.FullRecompile = true
		oracle := New(oracleOpt)

		recs := randomStream(rng, rng.Intn(200)+60)
		start := 0
		step := 0
		for start < len(recs) {
			var batch []triple.Record
			switch rng.Intn(6) {
			case 0:
				// Resume / no-op refresh: nothing new.
			case 1:
				// Below-Tol nudge: re-ingest records the engines have already
				// absorbed. The duplicate (e,w,d,v) cells raise no confidence
				// (same values), so the refresh runs its footprint pass with
				// near-zero parameter movement.
				if start > 0 {
					k := min(rng.Intn(3)+1, start)
					batch = recs[start-k : start]
				}
			case 2, 3:
				// Small fresh ingest.
				n := min(rng.Intn(8)+1, len(recs)-start)
				batch = recs[start : start+n]
				start += n
			default:
				// Large, typically above-Tol ingest.
				n := rng.Intn(len(recs)-start) + 1
				batch = recs[start : start+n]
				start += n
			}
			if err := fast.Ingest(batch...); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Ingest(batch...); err != nil {
				t.Fatal(err)
			}
			if fast.Len() == 0 {
				continue
			}
			got, err := fast.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("trial %d step %d (shards=%d scope=%d tol=%g)",
				trial, step, opt.Shards, opt.Core.Scope, opt.Core.Tol)
			step++

			assertRefreshMatchesOracle(t, tag, fast, got, want)
		}
	}
}

// assertRefreshMatchesOracle asserts one warm refresh against its
// FullRecompile oracle: bit-identical snapshots, identical settling decisions
// (whole-shard and partial), internally consistent shard accounting, and
// bit-equal parameter and posterior surfaces.
func assertRefreshMatchesOracle(t *testing.T, tag string, fast *Engine, got, want *Result) {
	t.Helper()
	if got.NoOp != want.NoOp {
		t.Fatalf("%s: NoOp = %v, oracle %v", tag, got.NoOp, want.NoOp)
	}
	if !got.NoOp {
		assertSnapshotsBitIdentical(t, tag, got.Snapshot, want.Snapshot)
	}

	// Staleness accounting invariants: the settled and touched shard
	// counts partition the shard space, the first pass is a subset of
	// what the refresh touched, a cold refresh touches everything,
	// and a no-op refresh touches nothing. Partially settled shards —
	// touched only at item granularity, their remainder skipped —
	// count as touched, so they are a subset of the touched set and can
	// never appear on a cold or no-op refresh.
	if got.SettledShards+got.TouchedShards != got.TotalShards {
		t.Fatalf("%s: SettledShards %d + TouchedShards %d != TotalShards %d",
			tag, got.SettledShards, got.TouchedShards, got.TotalShards)
	}
	if got.TouchedShards < got.FirstPassShards {
		t.Fatalf("%s: TouchedShards %d < FirstPassShards %d", tag, got.TouchedShards, got.FirstPassShards)
	}
	if got.PartialShards > got.TouchedShards {
		t.Fatalf("%s: PartialShards %d > TouchedShards %d", tag, got.PartialShards, got.TouchedShards)
	}
	if !got.Warm && got.SettledShards != 0 {
		t.Fatalf("%s: cold refresh settled %d shards", tag, got.SettledShards)
	}
	if !got.Warm && got.PartialShards != 0 {
		t.Fatalf("%s: cold refresh partially settled %d shards", tag, got.PartialShards)
	}
	if got.NoOp && got.TouchedShards != 0 {
		t.Fatalf("%s: no-op refresh touched %d shards", tag, got.TouchedShards)
	}
	// The oracle rebuilds its state from scratch every refresh but
	// carries the same drift ledger, so it must make the identical
	// settling decisions — including how many shards settled only in
	// part, the item-granularity decision surface.
	if got.SettledShards != want.SettledShards || got.Escalations != want.Escalations {
		t.Fatalf("%s: settled/escalations = %d/%d, oracle %d/%d",
			tag, got.SettledShards, got.Escalations, want.SettledShards, want.Escalations)
	}
	if got.PartialShards != want.PartialShards {
		t.Fatalf("%s: partial shards = %d, oracle %d", tag, got.PartialShards, want.PartialShards)
	}
	g, w := got.Inference, want.Inference
	for _, c := range []struct {
		name     string
		got, wnt []float64
	}{
		{"A", aOf(g), aOf(w)}, {"P", pOf(g), pOf(w)}, {"R", rOf(g), rOf(w)}, {"Q", qOf(g), qOf(w)},
		{"CProb", cprobs(g), cprobs(w)}, {"RestMass", restMasses(g), restMasses(w)},
		{"ExpectedTriples", expOf(g), expOf(w)},
	} {
		if !sameBits(c.got, c.wnt) {
			t.Fatalf("%s: %s diverges from oracle: max |Δ| = %g", tag, c.name, maxAbsDiff(c.got, c.wnt))
		}
	}
	for di := 0; di < w.NumItems(); di++ {
		if !sameBits(g.ValueRow(di), w.ValueRow(di)) {
			t.Fatalf("%s: value posterior of item %d diverges: max |Δ| = %g", tag, di, maxAbsDiff(g.ValueRow(di), w.ValueRow(di)))
		}
	}
	// The absence masses, folded in place across extensions and vote
	// republishes, must equal a derivation from scratch from the published
	// votes, bit for bit.
	gotTotal, gotCells := fast.em.AbsenceMasses()
	wantTotal, wantCells := fast.em.RecomputeAbsenceMasses()
	if !sameBits([]float64{gotTotal}, []float64{wantTotal}) {
		t.Fatalf("%s: global absence mass %v, derived from scratch %v", tag, gotTotal, wantTotal)
	}
	if !sameBits(gotCells[:len(wantCells)], wantCells) {
		t.Fatalf("%s: per-cell absence masses differ from a derivation from scratch by up to %g", tag,
			maxAbsDiff(gotCells[:len(wantCells)], wantCells))
	}
	if g.Iterations != w.Iterations || g.Converged != w.Converged {
		t.Fatalf("%s: iterations/converged = %d/%v, oracle %d/%v",
			tag, g.Iterations, g.Converged, w.Iterations, w.Converged)
	}
	// The copy-on-write generation must hold, bit for bit, what a deep copy
	// of the working arrays holds: a chunk shared that a pass wrote fails here.
	assertResultsBitIdentical(t, tag, g, fast.em.BuildResult(fast.cProb, fast.valueProb, fast.restMass, fast.coveredItem,
		g.Iterations, g.Converged))
	assertKeptVotes(t, tag, fast)
}

// broadReachStream builds a corpus dominated by broad-reach units: hub.com
// witnesses roughly a third of all extractions across every subject, and
// extractor EB attempts nearly every cell, while leaf sites and two narrow
// extractors keep per-item conflict alive. Every warm ingest therefore moves
// units whose reach spans the corpus — the schedule the sub-shard ledger must
// confine at item granularity rather than staling whole shards.
func broadReachStream(rng *rand.Rand, n int) []triple.Record {
	nSubj := rng.Intn(12) + 8
	nObj := rng.Intn(4) + 2
	nLeaf := rng.Intn(5) + 3
	recs := make([]triple.Record, 0, n)
	for i := 0; i < n; i++ {
		r := triple.Record{
			Extractor: "EB",
			Pattern:   "pat",
			Subject:   fmt.Sprintf("S%d", rng.Intn(nSubj)),
			Predicate: "p",
			Object:    fmt.Sprintf("v%d", rng.Intn(nObj)),
		}
		if rng.Intn(3) == 0 {
			r.Website = "hub.com"
		} else {
			r.Website = fmt.Sprintf("leaf%d.com", rng.Intn(nLeaf))
		}
		if rng.Intn(4) == 0 {
			r.Extractor = fmt.Sprintf("E%d", rng.Intn(2))
		}
		r.Page = r.Website + "/x"
		if rng.Intn(3) != 0 {
			r.Confidence = float64(rng.Intn(20)+1) / 20
		}
		recs = append(recs, r)
	}
	return recs
}

// TestFuzzBroadReachSubShardSettling drives broad-reach ingest schedules —
// every batch feeds the corpus-wide hub source and the every-cell extractor
// EB — through the fast engine and the FullRecompile oracle. Beyond the full
// oracle-parity contract (bit-equal surfaces, identical whole-shard and partial
// settling decisions), the run as a whole must actually exercise the
// item-granularity path: at least one refresh across the trials has to
// settle some shard only partially, or the schedule is not testing what it
// claims to.
func TestFuzzBroadReachSubShardSettling(t *testing.T) {
	partialSettles := 0
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))

		opt := DefaultOptions()
		opt.Shards = []int{3, 4, 8}[trial%3]
		opt.Core.MaxIter = rng.Intn(6) + 3
		opt.Core.MinSourceSupport = 1
		opt.Core.MinExtractorSupport = 1
		if trial%2 == 1 {
			opt.Core.Scope = core.ScopeAllExtractors
		}
		opt.Core.Tol = 1e-4 // the loose serving tolerance, where settling matters

		fast := New(opt)
		oracleOpt := opt
		oracleOpt.FullRecompile = true
		oracle := New(oracleOpt)

		recs := broadReachStream(rng, rng.Intn(260)+120)
		// A substantial cold base, then warm broad-reach batches: each one
		// contains hub/EB records, so a broad unit moves on every refresh.
		start := min(len(recs)/2, len(recs))
		if err := fast.Ingest(recs[:start]...); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Ingest(recs[:start]...); err != nil {
			t.Fatal(err)
		}
		if _, err := fast.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Refresh(); err != nil {
			t.Fatal(err)
		}
		step := 0
		for start < len(recs) {
			var batch []triple.Record
			switch rng.Intn(5) {
			case 0:
				// Below-Tol nudge: re-ingest already-absorbed broad cells.
				k := min(rng.Intn(4)+1, start)
				batch = recs[start-k : start]
			case 1, 2:
				n := min(rng.Intn(6)+1, len(recs)-start)
				batch = recs[start : start+n]
				start += n
			default:
				n := min(rng.Intn(24)+8, len(recs)-start)
				batch = recs[start : start+n]
				start += n
			}
			if err := fast.Ingest(batch...); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Ingest(batch...); err != nil {
				t.Fatal(err)
			}
			got, err := fast.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("broad trial %d step %d (shards=%d scope=%d)",
				trial, step, opt.Shards, opt.Core.Scope)
			step++
			assertRefreshMatchesOracle(t, tag, fast, got, want)
			partialSettles += got.PartialShards
		}
	}
	if partialSettles == 0 {
		t.Fatal("no refresh across any trial settled a shard partially: the schedules never reached the sub-shard path")
	}
}
