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
// dirty-shard evidence churn — including an append-only snapshot extension —
// and requires its dependence list to be deep-equal to a fresh batch Detect
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

		recs := trackerStream(rng, rng.Intn(200)+80)
		copt := triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}
		w := &trackerWorld{s: (&triple.Dataset{Records: recs}).Compile(copt)}
		w.shards = w.s.Shards(nShards)
		w.vp = make([][]float64, len(w.s.Items))
		w.cp = make([]float64, len(w.s.Triples))
		w.acc = make([]float64, len(w.s.Sources))
		w.reroll(rng, allShardIdx(nShards), true)

		tr, err := NewTracker(opt, nShards)
		if err != nil {
			t.Fatal(err)
		}
		check := func(tag string) {
			t.Helper()
			got := tr.Dependencies(w.evidence().Accuracy)
			want, err := Detect(w.s, w.evidence(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: tracker diverges from Detect\n got  %+v\n want %+v", trial, tag, got, want)
			}
			// A second call with nothing changed is served entirely from the
			// score cache and must be identical.
			if again := tr.Dependencies(w.evidence().Accuracy); !reflect.DeepEqual(got, again) {
				t.Fatalf("trial %d %s: warm Dependencies recall diverges\n got  %+v\n want %+v", trial, tag, again, got)
			}
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

		// Append-only extension: new items, new values on old items, new
		// sources. Every shard's evidence arrays are rebuilt (slots shift),
		// so the whole shard set is dirty for this one update.
		more := trackerStream(rng, rng.Intn(80)+20)
		prev := w.s
		w.s = prev.Extend(more)
		w.shards = w.s.ExtendShards(w.shards, len(prev.Items), len(prev.Triples))
		w.vp = make([][]float64, len(w.s.Items))
		w.cp = make([]float64, len(w.s.Triples))
		w.acc = make([]float64, len(w.s.Sources))
		w.reroll(rng, allShardIdx(nShards), true)
		tr.Update(w.s, w.evidence(), w.shards, allShardIdx(nShards))
		check("extension")
		for round := 0; round < 4; round++ {
			dirty := randomShardSubset(rng, nShards)
			w.reroll(rng, dirty, round%2 == 0)
			tr.Update(w.s, w.evidence(), w.shards, dirty)
			check(fmt.Sprintf("post-extension round %d", round))
		}
	}
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
