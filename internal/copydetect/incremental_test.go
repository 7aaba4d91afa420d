package copydetect

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kbt/internal/triple"
)

// trackerWorld is a randomized snapshot plus mutable evidence arrays the test
// reshuffles shard by shard, standing in for the engine's working posteriors.
type trackerWorld struct {
	s      *triple.Snapshot
	shards []triple.Shard
	vp     [][]float64 // per item, per candidate-value slot
	cp     []float64   // per candidate triple
	acc    []float64   // per source
}

var websiteKeys = triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}

// newTrackerWorld compiles recs at website granularity, shards the items and
// rolls every piece of evidence.
func newTrackerWorld(rng *rand.Rand, recs []triple.Record, nShards int) *trackerWorld {
	w := &trackerWorld{s: (&triple.Dataset{Records: recs}).Compile(websiteKeys)}
	w.shards = w.s.Shards(nShards)
	w.resetEvidence(rng)
	return w
}

// resetEvidence sizes the evidence arrays to the snapshot and rolls all of
// them: after an extension every slot may have shifted.
func (w *trackerWorld) resetEvidence(rng *rand.Rand) {
	w.vp = make([][]float64, len(w.s.Items))
	w.cp = make([]float64, len(w.s.Triples))
	w.acc = make([]float64, w.s.NumSources())
	w.reroll(rng, allShardIdx(len(w.shards)), true)
}

func (w *trackerWorld) evidence() Evidence {
	return Evidence{
		ValueProb: func(d, v int) float64 {
			vs := w.s.ItemValues[d]
			if k := sort.SearchInts(vs, v); k < len(vs) && vs[k] == v {
				return w.vp[d][k]
			}
			return 0
		},
		Accuracy: func(src int) float64 { return w.acc[src] },
		Provides: func(ti int) bool { return w.cp[ti] >= 0.5 },
	}
}

// reroll replaces the evidence of the given shards. rerollAcc additionally
// rerolls every accuracy; holding them fixed on some rounds matters because
// it is the only way the tracker's warm score cache can get hits for pairs
// in untouched shards — both branches must produce identical output.
func (w *trackerWorld) reroll(rng *rand.Rand, dirty []int, rerollAcc bool) {
	for _, si := range dirty {
		sh := w.shards[si]
		for _, d := range sh.Items {
			row := make([]float64, len(w.s.ItemValues[d]))
			for k := range row {
				row[k] = rng.Float64()
			}
			w.vp[d] = row
		}
		for _, ti := range sh.Triples {
			w.cp[ti] = rng.Float64()
		}
	}
	if rerollAcc {
		for src := range w.acc {
			w.acc[src] = rng.Float64()*0.96 + 0.02
		}
	}
}

// jitter redraws every posterior of the given shards on the side of 0.5 it
// already sits on: what a re-estimate that moves no gate does to the evidence.
func (w *trackerWorld) jitter(rng *rand.Rand, dirty []int) {
	sameSide := func(p float64) float64 {
		if p >= 0.5 {
			return 0.5 + rng.Float64()/2
		}
		return rng.Float64() / 2
	}
	for _, si := range dirty {
		sh := w.shards[si]
		for _, d := range sh.Items {
			row := make([]float64, len(w.vp[d]))
			for k, p := range w.vp[d] {
				row[k] = sameSide(p)
			}
			w.vp[d] = row
		}
		for _, ti := range sh.Triples {
			w.cp[ti] = sameSide(w.cp[ti])
		}
	}
}

// checkTracker requires the tracker's dependence list to be deep-equal to a
// fresh batch Detect over the world's current evidence, and a second call
// with nothing changed — served entirely from the score cache — to repeat it.
func checkTracker(t *testing.T, tag string, tr *Tracker, w *trackerWorld, opt Options) {
	t.Helper()
	got := tr.Dependencies(w.evidence().Accuracy)
	want, err := Detect(w.s, w.evidence(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: tracker diverges from Detect\n got  %+v\n want %+v", tag, got, want)
	}
	if again := tr.Dependencies(w.evidence().Accuracy); !reflect.DeepEqual(got, again) {
		t.Fatalf("%s: warm Dependencies recall diverges\n got  %+v\n want %+v", tag, again, got)
	}
}

func trackerStream(rng *rand.Rand, n int) []triple.Record {
	recs := make([]triple.Record, 0, n)
	for i := 0; i < n; i++ {
		r := triple.Record{
			Extractor: "E",
			Website:   fmt.Sprintf("w%d.com", rng.Intn(8)),
			Subject:   fmt.Sprintf("S%d", rng.Intn(12)),
			Predicate: "p",
			Object:    fmt.Sprintf("v%d", rng.Intn(4)),
		}
		r.Page = r.Website + "/x"
		recs = append(recs, r)
	}
	return recs
}

// TestFuzzTrackerMatchesDetect updates a tracker through randomized
// dirty-shard evidence churn — including an append-only snapshot extension,
// rounds that move only the accuracies or only the floats behind an unchanged
// signature, and an item wider than both of the tracker's width bounds — and
// requires its dependence list to be deep-equal to a fresh batch Detect
// over the full current evidence after every update: identical integer
// counts, identical posteriors, identical order.
func TestFuzzTrackerMatchesDetect(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		nShards := []int{1, 4, 8}[trial%3]
		opt := DefaultOptions()
		opt.MinOverlap = rng.Intn(3) + 1
		if trial%2 == 0 {
			// Threshold 0 keeps every candidate pair in the output, comparing
			// the full scored surface instead of only the strong tail.
			opt.Threshold = 0
		}
		if trial%3 == 0 {
			opt.MaxProvidersPerValue = rng.Intn(4) + 2
		}

		w := newTrackerWorld(rng, trackerStream(rng, rng.Intn(200)+80), nShards)
		tr, err := NewTracker(opt, nShards)
		if err != nil {
			t.Fatal(err)
		}
		check := func(tag string) {
			t.Helper()
			checkTracker(t, fmt.Sprintf("trial %d %s", trial, tag), tr, w, opt)
		}

		// Initial full update, then partial churn rounds. Odd rounds hold
		// the accuracies fixed so untouched pairs hit the score cache.
		tr.Update(w.s, w.evidence(), w.shards, allShardIdx(nShards))
		check("initial")
		for round := 0; round < 6; round++ {
			dirty := randomShardSubset(rng, nShards)
			w.reroll(rng, dirty, round%2 == 0)
			tr.Update(w.s, w.evidence(), w.shards, dirty)
			check(fmt.Sprintf("round %d", round))
		}

		// What a settled refresh mostly does: every accuracy moves and no
		// shard is dirty; then posteriors move inside dirty shards without
		// one crossing 0.5, so every signature stays what it was.
		w.reroll(rng, nil, true)
		tr.Update(w.s, w.evidence(), w.shards, nil)
		check("accuracy-only")
		dirty := randomShardSubset(rng, nShards)
		w.jitter(rng, dirty)
		tr.Update(w.s, w.evidence(), w.shards, dirty)
		check("no crossing")

		// Append-only extension: new items, new values on old items, new
		// sources. Every shard's evidence arrays are rebuilt (slots shift),
		// so the whole shard set is dirty for this one update.
		more := trackerStream(rng, rng.Intn(80)+20)
		prev := w.s
		w.s = prev.Extend(more)
		w.shards = w.s.ExtendShards(w.shards, len(prev.Items), len(prev.Triples))
		w.resetEvidence(rng)
		tr.Update(w.s, w.evidence(), w.shards, allShardIdx(nShards))
		check("extension")
		for round := 0; round < 4; round++ {
			dirty := randomShardSubset(rng, nShards)
			w.reroll(rng, dirty, round%2 == 0)
			tr.Update(w.s, w.evidence(), w.shards, dirty)
			check(fmt.Sprintf("post-extension round %d", round))
		}
	}
	fuzzWideItem(t)
}

// wideStream puts 48 websites on each of three items. About three in four
// name v0, so with every triple provided item S0 has more providers than
// maxDiffWidth and its value v0 more than the default MaxProvidersPerValue;
// every fifth site names both values, so which triple assigns it is decided by
// candidate-triple order.
func wideStream(rng *rand.Rand) []triple.Record {
	var recs []triple.Record
	add := func(site, subj, obj string) {
		recs = append(recs, triple.Record{Extractor: "E", Website: site, Page: site + "/x",
			Subject: subj, Predicate: "p", Object: obj})
	}
	for i := 0; i < 48; i++ {
		site := fmt.Sprintf("w%02d.com", i)
		for d := 0; d < 3; d++ {
			v := 0
			if rng.Intn(4) == 0 {
				v = 1
			}
			add(site, fmt.Sprintf("S%d", d), fmt.Sprintf("v%d", v))
			if i%5 == 0 {
				add(site, fmt.Sprintf("S%d", d), fmt.Sprintf("v%d", 1-v))
			}
		}
	}
	return recs
}

// fuzzWideItem is the trial of TestFuzzTrackerMatchesDetect that crosses the
// tracker's two width bounds in both directions through Provides flips alone:
// the number of sources one item reassigns at once (maxDiffWidth, above which
// their pairs are recounted instead of shifted) and the providers of one
// value (MaxProvidersPerValue, above which the value counts no event).
func fuzzWideItem(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const nShards = 2
	opt := DefaultOptions()
	opt.MinOverlap, opt.Threshold = 1, 0
	w := newTrackerWorld(rng, wideStream(rng), nShards)
	tr, err := NewTracker(opt, nShards)
	if err != nil {
		t.Fatal(err)
	}
	all := allShardIdx(nShards)
	step := func(tag string) {
		t.Helper()
		tr.Update(w.s, w.evidence(), w.shards, all)
		checkTracker(t, "wide item, "+tag, tr, w, opt)
	}

	d, v0 := w.s.ItemID("S0", "p"), w.s.ValueID("v0")
	var ofV0 []int32 // S0's candidate triples naming v0
	sites := make(map[int32]bool)
	for _, ti := range w.s.TriplesOfItem[d] {
		sites[w.s.Triples[ti].W] = true
		if int(w.s.Triples[ti].V) == v0 {
			ofV0 = append(ofV0, ti)
		}
	}
	if len(sites) <= maxDiffWidth || len(ofV0) <= opt.MaxProvidersPerValue+1 {
		t.Fatalf("fixture too narrow: %d sites, %d of them on v0", len(sites), len(ofV0))
	}
	provide := func(tis []int32, p float64) {
		for _, ti := range tis {
			w.cp[ti] = p
		}
	}

	step("rolled evidence")
	provide(w.s.TriplesOfItem[d], 1)
	step("every triple provided")
	provide(w.s.TriplesOfItem[d], 0)
	step("none provided") // more than maxDiffWidth sources leave at once
	provide(w.s.TriplesOfItem[d], 1)
	step("every triple provided again") // and come back at once
	provide(ofV0[opt.MaxProvidersPerValue:], 0)
	step("v0 at MaxProvidersPerValue") // the value starts counting events
	provide(ofV0[opt.MaxProvidersPerValue:opt.MaxProvidersPerValue+1], 1)
	step("v0 one past it") // and stops again
	for round := 0; round < 6; round++ {
		w.reroll(rng, randomShardSubset(rng, nShards), round%2 == 0)
		step(fmt.Sprintf("round %d", round))
	}
}

// TestTrackerUnchangedEvidenceCostsNothing pins what makes the tracker
// incremental in the regime where a refresh touches every shard and moves
// almost nothing across a gate: an Update over evidence whose signatures did
// not change allocates nothing and leaves the dependence list as it was, and
// a single moved gate is still seen.
func TestTrackerUnchangedEvidenceCostsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const nShards = 4
	opt := DefaultOptions()
	opt.MinOverlap, opt.Threshold = 1, 0
	w := newTrackerWorld(rng, trackerStream(rng, 400), nShards)
	tr, err := NewTracker(opt, nShards)
	if err != nil {
		t.Fatal(err)
	}
	all := allShardIdx(nShards)
	ev := w.evidence()
	tr.Update(w.s, ev, w.shards, all)
	first := tr.Dependencies(ev.Accuracy)
	if len(first) == 0 {
		t.Fatal("fixture scores no pair")
	}
	if allocs := testing.AllocsPerRun(10, func() { tr.Update(w.s, ev, w.shards, all) }); allocs != 0 {
		t.Errorf("Update over unchanged evidence allocates %v times, want 0", allocs)
	}
	if again := tr.Dependencies(ev.Accuracy); !reflect.DeepEqual(first, again) {
		t.Fatalf("dependence list moved under unchanged evidence\n got  %+v\n want %+v", again, first)
	}

	// Move one counted value's posterior across 0.5 and withdraw one of its
	// providers: the smallest changes of either kind that Detect sees.
	d, k, ti := countedValue(w)
	w.vp[d][k] = 1 - w.vp[d][k]
	tr.Update(w.s, ev, w.shards, all)
	checkTracker(t, "posterior across 0.5", tr, w, opt)
	if now := tr.Dependencies(ev.Accuracy); reflect.DeepEqual(first, now) {
		t.Fatal("flipping a counted value's truth left the dependence list unchanged")
	}
	w.cp[ti] = 1 - w.cp[ti]
	tr.Update(w.s, ev, w.shards, all)
	checkTracker(t, "Provides bit", tr, w, opt)
}

// countedValue finds an item d and slot k of a value that counts events under
// the world's evidence — at least two of its candidate triples are provided —
// and one of those triples.
func countedValue(w *trackerWorld) (d, k, ti int) {
	for d, tis := range w.s.TriplesOfItem {
		for k, v := range w.s.ItemValues[d] {
			n := 0
			for _, t := range tis {
				if int(w.s.Triples[t].V) == v && w.cp[t] >= 0.5 {
					if n++; n == 2 {
						return d, k, int(t)
					}
				}
			}
		}
	}
	panic("no counted value in the fixture")
}

func allShardIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func randomShardSubset(rng *rand.Rand, n int) []int {
	var out []int
	for si := 0; si < n; si++ {
		if rng.Intn(5) < 2 {
			out = append(out, si)
		}
	}
	if len(out) == 0 {
		out = []int{rng.Intn(n)}
	}
	return out
}
