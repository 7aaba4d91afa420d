package copydetect

import (
	"sort"

	"kbt/internal/triple"
)

// Tracker maintains the detector's sufficient statistics incrementally, so a
// streaming engine can keep copy probabilities current without rescanning the
// corpus on every refresh.
//
// Everything Detect counts decomposes exactly per data item: the shared-value
// events of a pair come from the per-(item, value) provider sets, and the
// overlap/disagreement evidence from the per-item provider→value assignments.
// Items partition into shards, and between engine publications the evidence a
// shard contributes (value posteriors and the Provides mask) changes only
// inside the shards a refresh re-estimated. Recomputing exactly the dirty
// shards' per-shard statistics and folding the count deltas into the global
// pair map therefore reproduces Detect's counts on the current evidence
// exactly — integer for integer, not merely within tolerance — and
// Dependencies scores them through the identical posterior and ordering,
// so the output slice is deep-equal to a fresh Detect over the snapshot.
type Tracker struct {
	opt     Options
	nShards int

	// perShard[si] holds the shared-value counts contributed by shard si's
	// items; global is their fold — the corpus-wide pair statistics, the
	// detector's sufficient statistics.
	perShard []map[pairKey]sharedCounts
	global   map[pairKey]sharedCounts

	// provOf[d] is item d's provider → value assignment under the current
	// evidence (the per-item slice of Detect's itemsOf), kept so a shard
	// recompute can diff an item's providers against the previous state.
	provOf []map[int32]int32

	// itemsOf[w] mirrors Detect's per-source item → value map, maintained
	// from the provOf diffs; Dependencies intersects these to count overlap
	// and disagreements for the candidate pairs.
	itemsOf []map[int]int

	// A pair's score is a pure function of its shared counts, both members'
	// item maps and both members' accuracies, so a cached score stays exact
	// until one of the three moves. staleSet collects the pairs whose counts
	// moved and srcTouched the sources whose item maps moved since the last
	// Dependencies call; accSeen holds the accuracy each source was last
	// scored under, detecting drift by comparison. pairsOf indexes the live
	// pairs by member so a moved source maps to its affected pairs without a
	// scan, and passing is the score cache: the cached score of every pair
	// currently surviving the MinOverlap and Threshold filters — the warm
	// call rescores only the affected pairs and emits straight from passing,
	// never iterating the full pair space. A pair outside passing needs no
	// cached score: nothing reads it until one of its inputs moves, and that
	// rescores it.
	staleSet   map[pairKey]struct{}
	srcTouched map[int32]struct{}
	accSeen    []float64
	pairsOf    map[int32]map[pairKey]struct{}
	passing    map[pairKey]pairScore
}

// pairScore is the part of a passing pair's score the emit needs beyond its
// shared counts: a pure function of those counts, both members' item maps and
// both members' accuracies.
type pairScore struct {
	differ int32
	post   float64
}

type pairKey struct{ a, b int32 }

type sharedCounts struct{ sharedTrue, sharedFalse int32 }

// NewTracker validates opt (the same rules as Detect) and returns an empty
// tracker for nShards item shards.
func NewTracker(opt Options, nShards int) (*Tracker, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if nShards < 1 {
		nShards = 1
	}
	t := &Tracker{
		opt:        opt,
		nShards:    nShards,
		perShard:   make([]map[pairKey]sharedCounts, nShards),
		global:     make(map[pairKey]sharedCounts),
		staleSet:   make(map[pairKey]struct{}),
		srcTouched: make(map[int32]struct{}),
		pairsOf:    make(map[int32]map[pairKey]struct{}),
		passing:    make(map[pairKey]pairScore),
	}
	return t, nil
}

// Update recomputes the statistics of the dirty shards against the current
// evidence and folds the deltas into the global state. dirty must cover every
// shard whose evidence (value posteriors, Provides mask, or item/triple set)
// changed since the previous Update — the engine's touched-shard mask is
// exactly that set. ev.Accuracy is not read here; accuracies enter only at
// Dependencies time.
func (t *Tracker) Update(s *triple.Snapshot, ev Evidence, shards []triple.Shard, dirty []int) {
	for d := len(t.provOf); d < len(s.Items); d++ {
		t.provOf = append(t.provOf, nil)
	}
	for w := len(t.itemsOf); w < len(s.Sources); w++ {
		t.itemsOf = append(t.itemsOf, nil)
	}
	for _, si := range dirty {
		fresh := t.recomputeShard(s, ev, shards[si])
		old := t.perShard[si]
		for k, oc := range old {
			nc, ok := fresh[k]
			if ok && nc == oc {
				continue
			}
			g := t.global[k]
			g.sharedTrue += nc.sharedTrue - oc.sharedTrue
			g.sharedFalse += nc.sharedFalse - oc.sharedFalse
			if g.sharedTrue == 0 && g.sharedFalse == 0 {
				t.dropPair(k)
			} else {
				t.global[k] = g
				t.staleSet[k] = struct{}{}
			}
		}
		for k, nc := range fresh {
			if _, ok := old[k]; ok {
				continue
			}
			g, live := t.global[k]
			if !live {
				t.indexPair(k)
			}
			g.sharedTrue += nc.sharedTrue
			g.sharedFalse += nc.sharedFalse
			t.global[k] = g
			t.staleSet[k] = struct{}{}
		}
		t.perShard[si] = fresh
	}
}

// indexPair registers a live pair under both members in the source index.
func (t *Tracker) indexPair(k pairKey) {
	for _, w := range [2]int32{k.a, k.b} {
		m := t.pairsOf[w]
		if m == nil {
			m = make(map[pairKey]struct{})
			t.pairsOf[w] = m
		}
		m[k] = struct{}{}
	}
}

// dropPair removes a pair whose shared counts reached zero from every
// structure that could still surface it.
func (t *Tracker) dropPair(k pairKey) {
	delete(t.global, k)
	delete(t.staleSet, k)
	delete(t.passing, k)
	delete(t.pairsOf[k.a], k)
	delete(t.pairsOf[k.b], k)
}

// recomputeShard rebuilds one shard's shared-value counts from scratch and
// refreshes the provider assignments (and the per-source item maps) of its
// items. The enumeration mirrors Detect exactly: per (item, value), the
// Provides-filtered providers in candidate-triple order, capped by
// MaxProvidersPerValue; per item, the last provided triple wins the
// provider's value assignment.
func (t *Tracker) recomputeShard(s *triple.Snapshot, ev Evidence, sh triple.Shard) map[pairKey]sharedCounts {
	counts := make(map[pairKey]sharedCounts)
	var providers []int32
	for _, d := range sh.Items {
		for _, v := range s.ItemValues[d] {
			providers = providers[:0]
			for _, ti := range s.TriplesOfItem[d] {
				tr := s.Triples[ti]
				if tr.V != v {
					continue
				}
				if ev.Provides != nil && !ev.Provides(ti) {
					continue
				}
				providers = append(providers, int32(tr.W))
			}
			if len(providers) < 2 || len(providers) > t.opt.MaxProvidersPerValue {
				continue
			}
			sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
			isTrue := ev.ValueProb(d, v) >= 0.5
			for i := 0; i < len(providers); i++ {
				for j := i + 1; j < len(providers); j++ {
					k := pairKey{providers[i], providers[j]}
					c := counts[k]
					if isTrue {
						c.sharedTrue++
					} else {
						c.sharedFalse++
					}
					counts[k] = c
				}
			}
		}

		// Provider → value assignment, last provided triple winning —
		// candidate-triple order within an item is the global triple order
		// restricted to it, so the winner matches Detect's corpus scan.
		var fresh map[int32]int32
		for _, ti := range s.TriplesOfItem[d] {
			tr := s.Triples[ti]
			if ev.Provides != nil && !ev.Provides(ti) {
				continue
			}
			if fresh == nil {
				fresh = make(map[int32]int32)
			}
			fresh[int32(tr.W)] = int32(tr.V)
		}
		old := t.provOf[d]
		for w, v := range old {
			nv, ok := fresh[w]
			if !ok {
				delete(t.itemsOf[w], d)
				t.srcTouched[w] = struct{}{}
			} else if nv != v {
				t.itemsOf[w][d] = int(nv)
				t.srcTouched[w] = struct{}{}
			}
		}
		for w, v := range fresh {
			if _, ok := old[w]; ok {
				continue
			}
			if t.itemsOf[w] == nil {
				t.itemsOf[w] = make(map[int]int)
			}
			t.itemsOf[w][d] = int(v)
			t.srcTouched[w] = struct{}{}
		}
		t.provOf[d] = fresh
	}
	return counts
}

// Dependencies scores the maintained statistics exactly as Detect scores its
// freshly counted ones: candidate pairs are those with at least one shared
// value; overlap and disagreements come from intersecting the per-source item
// maps; pairs pass MinOverlap, the ACCU-COPY posterior and Threshold, and the
// result sorts strongest-first. accuracy supplies the current per-source
// accuracy estimates.
//
// Warm calls reuse the score cache: a pair is re-intersected and rescored
// only when its shared counts or either member's item map changed since the
// previous call, or either member's accuracy estimate moved. The score is a
// pure function of exactly those inputs, so cache hits are bit-identical to
// recomputation and the output stays deep-equal to a fresh batch Detect;
// the emit reads straight from the maintained passing set, so the call is
// O(affected pairs + output), never O(all pairs).
func (t *Tracker) Dependencies(accuracy func(w int) float64) []Dependence {
	for w := len(t.accSeen); w < len(t.itemsOf); w++ {
		// -1 is outside accuracy's range, forcing a first-call rescore.
		t.accSeen = append(t.accSeen, -1)
	}
	rescore := t.staleSet
	markSrc := func(w int32) {
		for k := range t.pairsOf[w] {
			rescore[k] = struct{}{}
		}
	}
	for w := range t.accSeen {
		if a := accuracy(w); a != t.accSeen[w] {
			t.accSeen[w] = a
			markSrc(int32(w))
		}
	}
	for w := range t.srcTouched {
		markSrc(w)
	}

	for k := range rescore {
		g := t.global[k]
		a, b := int(k.a), int(k.b)
		overlap, differ := overlapDiffer(t.itemsOf[a], t.itemsOf[b])
		if overlap >= t.opt.MinOverlap {
			post := posterior(int(g.sharedTrue), int(g.sharedFalse), differ,
				t.accSeen[a], t.accSeen[b], t.opt)
			if post >= t.opt.Threshold {
				t.passing[k] = pairScore{differ: int32(differ), post: post}
				continue
			}
		}
		delete(t.passing, k)
	}

	// nil when empty, matching Detect's no-result shape exactly.
	var out []Dependence
	if len(t.passing) > 0 {
		out = make([]Dependence, 0, len(t.passing))
	}
	for k, st := range t.passing {
		g := t.global[k]
		out = append(out, Dependence{
			A: int(k.a), B: int(k.b), Posterior: st.post,
			SharedTrue: int(g.sharedTrue), SharedFalse: int(g.sharedFalse), Differ: int(st.differ),
		})
	}
	t.staleSet = make(map[pairKey]struct{})
	clear(t.srcTouched)
	sortDependences(out)
	return out
}
