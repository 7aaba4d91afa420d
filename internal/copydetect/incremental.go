package copydetect

import (
	"cmp"
	"slices"

	"kbt/internal/triple"
)

// Tracker maintains the detector's sufficient statistics incrementally, so a
// streaming engine can keep copy probabilities current without rescanning the
// corpus on every refresh.
//
// Everything Detect counts is a function of each data item's *discretised*
// evidence: which of its candidate triples pass Provides, and on which side
// of 0.5 the posterior of each counted value (one 2 to MaxProvidersPerValue
// sources provide) sits. The tracker keeps that signature per item.
// UpdateItems rebuilds it for the items it is handed — the engine hands it the
// items whose evidence an E-step moved across a gate, and the items of new
// candidate triples — and only where it differs from the one it holds does it
// retract the item's old shared-value events
// and provider → value assignment from the pair statistics and add the new
// ones. A re-estimate that moves posteriors without moving any across a gate
// therefore costs the signature rebuild and nothing else, and the statistics
// stay Detect's on the current evidence — integer for integer, not merely
// within tolerance. Dependencies scores them through the identical posterior
// and ordering, so the output slice is deep-equal to a fresh Detect over the
// snapshot.
type Tracker struct {
	opt Options

	// sig[d] is item d's signature under the evidence of its last Update.
	sig [][]provided

	// pairs holds the statistics of every live pair: one with at least one
	// shared-value event. pairsOf indexes them by member, so a moved source
	// maps to its affected pairs without a scan.
	pairs   map[pairKey]pairStat
	pairsOf map[int32]map[pairKey]struct{}

	// itemsOf[w] mirrors Detect's per-source item → value map, maintained
	// from the signature diffs. A pair's overlap and disagreement counts are
	// taken from these maps once, when the pair goes live, and then kept
	// current from the same diffs; recount collects the sources whose pairs
	// must be counted again because an item moved too many sources at once to
	// apply pair by pair.
	itemsOf []map[int]int
	recount map[int32]struct{}

	// A pair's score is a pure function of its statistics and both members'
	// accuracies, so a cached score stays exact until one of them moves.
	// stale collects the pairs whose statistics moved since the last
	// Dependencies call; accSeen holds the accuracy each source was last
	// scored under, detecting drift by comparison. passing is the score
	// cache: the posterior of every pair currently surviving the MinOverlap
	// and Threshold filters — the warm call rescores only the affected pairs
	// and emits straight from passing, never iterating the full pair space. A
	// pair outside passing needs no cached score: nothing reads it until one
	// of its inputs moves, and that rescores it.
	stale   map[pairKey]struct{}
	accSeen []float64
	passing map[pairKey]float64

	// Update's scratch: the signature under construction with, per entry, the
	// slot of its value in the item's candidate list; the per-slot provider
	// counts; a signature's copy grouped by value; an item's moved sources
	// and, per source, its new assignment (zero outside reassign).
	cur   []provided
	slot  []int32
	count []int32
	group []provided
	moves []move
	next  []int32
}

// provided is one candidate triple of an item that passes Provides, as a
// signature records it: the source, the value, and whether the value's
// posterior is at least 0.5. isTrue is set on counted values only, so the
// posterior of a value that contributes no event cannot move a signature.
// Entries keep candidate-triple order, in which the last entry of a source is
// its value assignment for the item, as in Detect's corpus scan.
type provided struct {
	w, v   int32
	isTrue bool
}

type pairKey struct{ a, b int32 }

// pairStat is what Detect derives for a candidate pair: the shared-value
// events, and the items both members provide a value for (overlap) with those
// on which the two values differ. overlap is negative until the pair has been
// counted against the item maps.
type pairStat struct {
	sharedTrue, sharedFalse int32
	overlap, differ         int32
}

// move is a source whose value assignment for an item a signature change
// moved, with the assignment before and after; -1 stands for none.
type move struct{ w, from, to int32 }

// maxDiffWidth bounds the reassignments of one item that are applied to the
// pair statistics pair by pair, at one map probe per moved source and other
// provider of the item. An item that moves more sources at once marks them for
// a recount instead.
const maxDiffWidth = 32

// NewTracker validates opt (the same rules as Detect) and returns an empty
// tracker. The statistics are kept per item, so the shard count is not used;
// the parameter is part of the signature the benchmark compiles against.
func NewTracker(opt Options, _ int) (*Tracker, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return &Tracker{
		opt:     opt,
		pairs:   make(map[pairKey]pairStat),
		pairsOf: make(map[int32]map[pairKey]struct{}),
		recount: make(map[int32]struct{}),
		stale:   make(map[pairKey]struct{}),
		passing: make(map[pairKey]float64),
	}, nil
}

// UpdateItems brings the statistics of the listed items up to the current
// evidence. items must cover every item whose discretised evidence — which of
// its candidate triples pass Provides, the side of 0.5 of each counted value's
// posterior, or its triple and value set — changed since the previous update;
// listing an unchanged item is harmless. The engine lists the items its
// E-steps marked as crossing a gate plus the items of its new triples. Each
// listed item costs a signature rebuild; one whose signature did not change
// costs nothing more and no allocation. ev.Accuracy is not read here;
// accuracies enter only at Dependencies time.
func (t *Tracker) UpdateItems(s *triple.Snapshot, ev Evidence, items []int) {
	for d := len(t.sig); d < len(s.Items); d++ {
		t.sig = append(t.sig, nil)
	}
	for w := len(t.itemsOf); w < len(s.Sources); w++ {
		t.itemsOf = append(t.itemsOf, nil)
		t.next = append(t.next, 0)
	}
	for _, d := range items {
		cur, old := t.signature(s, ev, d), t.sig[d]
		if slices.Equal(cur, old) {
			continue
		}
		// Adding before retracting keeps a pair whose events persist from
		// dropping out of the live set in between.
		t.countEvents(cur, +1)
		t.countEvents(old, -1)
		t.reassign(d, old, cur)
		t.sig[d] = append(old[:0], cur...)
	}
}

// Update is UpdateItems over the items of the dirty shards: dirty must cover
// every shard holding an item whose evidence changed since the previous
// update. Only the benchmark harness calls it (bench/layers.go), until it is
// released (ROADMAP.md, item 2(e)).
func (t *Tracker) Update(s *triple.Snapshot, ev Evidence, shards []triple.Shard, dirty []int) {
	for _, si := range dirty {
		t.UpdateItems(s, ev, shards[si].Items)
	}
}

// signature builds item d's signature under ev into the tracker's scratch;
// the result is valid until the next call. The enumeration mirrors Detect:
// the Provides-filtered candidate triples in candidate-triple order, a value
// counted when 2 to MaxProvidersPerValue of them name it.
func (t *Tracker) signature(s *triple.Snapshot, ev Evidence, d int) []provided {
	vals := s.ItemValues[d]
	cur, slot, count := t.cur[:0], t.slot[:0], t.count[:0]
	for range vals {
		count = append(count, 0)
	}
	for _, ti := range s.TriplesOfItem[d] {
		if ev.Provides != nil && !ev.Provides(ti) {
			continue
		}
		tr := s.Triples[ti]
		k, _ := slices.BinarySearch(vals, tr.V)
		cur = append(cur, provided{w: int32(tr.W), v: int32(tr.V)})
		slot = append(slot, int32(k))
		count[k]++
	}
	// One ValueProb per counted value; count then carries its side of 0.5.
	for k, n := range count {
		count[k] = 0
		if n >= 2 && int(n) <= t.opt.MaxProvidersPerValue && ev.ValueProb(d, vals[k]) >= 0.5 {
			count[k] = 1
		}
	}
	for i := range cur {
		cur[i].isTrue = count[slot[i]] == 1
	}
	t.cur, t.slot, t.count = cur, slot, count
	return cur
}

// countEvents adds (sign +1) or retracts (sign -1) the shared-value events of
// one signature: per counted value, one event for every pair of its
// providers, true or false with the value.
func (t *Tracker) countEvents(sig []provided, sign int32) {
	if len(sig) < 2 {
		return
	}
	g := append(t.group[:0], sig...)
	t.group = g
	slices.SortFunc(g, func(x, y provided) int {
		return cmp.Or(cmp.Compare(x.v, y.v), cmp.Compare(x.w, y.w))
	})
	for lo, hi := 0, 0; lo < len(g); lo = hi {
		for hi = lo + 1; hi < len(g) && g[hi].v == g[lo].v; hi++ {
		}
		if n := hi - lo; n < 2 || n > t.opt.MaxProvidersPerValue {
			continue
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				t.countEvent(pairKey{g[i].w, g[j].w}, g[lo].isTrue, sign)
			}
		}
	}
}

// countEvent moves one shared-value event of pair k. The first event makes the
// pair live, with its overlap still to count; retracting the last one drops it
// from every structure that could still surface it.
func (t *Tracker) countEvent(k pairKey, isTrue bool, sign int32) {
	g, live := t.pairs[k]
	if !live {
		g.overlap = -1
		for _, w := range [2]int32{k.a, k.b} {
			if t.pairsOf[w] == nil {
				t.pairsOf[w] = make(map[pairKey]struct{})
			}
			t.pairsOf[w][k] = struct{}{}
		}
	}
	if isTrue {
		g.sharedTrue += sign
	} else {
		g.sharedFalse += sign
	}
	if g.sharedTrue == 0 && g.sharedFalse == 0 {
		delete(t.pairs, k)
		delete(t.stale, k)
		delete(t.passing, k)
		delete(t.pairsOf[k.a], k)
		delete(t.pairsOf[k.b], k)
		return
	}
	t.pairs[k] = g
	t.stale[k] = struct{}{}
}

// reassign moves item d's provider → value assignment from the one signature
// old implies to the one cur implies: in the per-source item maps, and in the
// overlap and disagreement counts of the live pairs that have a moved source
// and another provider of the item as members. A pair not live yet is counted
// from the maps when it is first scored, so it needs no delta here.
func (t *Tracker) reassign(d int, old, cur []provided) {
	// next[w]-1 is source w's assignment under cur, its last entry winning.
	for _, p := range cur {
		t.next[p.w] = p.v + 1
	}
	mv := t.moves[:0]
	for _, p := range old {
		from, had := t.itemsOf[p.w][d]
		to := t.next[p.w] - 1
		if !had || int32(from) == to {
			continue // unmoved, or moved already at an earlier entry of the source
		}
		mv = append(mv, move{w: p.w, from: int32(from), to: to})
		if to < 0 {
			delete(t.itemsOf[p.w], d)
		} else {
			t.itemsOf[p.w][d] = int(to)
		}
	}
	for _, p := range cur {
		if _, had := t.itemsOf[p.w][d]; had {
			continue
		}
		to := t.next[p.w] - 1
		mv = append(mv, move{w: p.w, from: -1, to: to})
		if t.itemsOf[p.w] == nil {
			t.itemsOf[p.w] = make(map[int]int)
		}
		t.itemsOf[p.w][d] = int(to)
	}
	t.moves = mv

	if len(mv) > maxDiffWidth {
		for _, m := range mv {
			t.recount[m.w] = struct{}{}
		}
	} else if len(mv) > 0 {
		// Zeroing the moved sources leaves next naming exactly the unmoved
		// providers, each at the one entry that is its assignment.
		for _, m := range mv {
			t.next[m.w] = 0
		}
		for i, x := range mv {
			for _, y := range mv[i+1:] {
				t.shiftPair(x.w, y.w, x.from, y.from, x.to, y.to)
			}
		}
		for _, p := range cur {
			if t.next[p.w] != p.v+1 {
				continue
			}
			for _, x := range mv {
				t.shiftPair(x.w, p.w, x.from, p.v, x.to, p.v)
			}
		}
	}
	for _, p := range cur {
		t.next[p.w] = 0
	}
}

// shiftPair applies to the live, counted pair of sources a and b what one
// item's reassignment changes of its overlap and disagreement counts: the
// two assignments were fromA and fromB and are now toA and toB (-1: none).
func (t *Tracker) shiftPair(a, b, fromA, fromB, toA, toB int32) {
	k := pairKey{min(a, b), max(a, b)}
	g, live := t.pairs[k]
	if !live || g.overlap < 0 {
		return
	}
	was := g
	if fromA >= 0 && fromB >= 0 {
		g.overlap--
		if fromA != fromB {
			g.differ--
		}
	}
	if toA >= 0 && toB >= 0 {
		g.overlap++
		if toA != toB {
			g.differ++
		}
	}
	if g != was {
		t.pairs[k] = g
		t.stale[k] = struct{}{}
	}
}

// Dependencies scores the maintained statistics exactly as Detect scores its
// freshly counted ones: candidate pairs are those with at least one shared
// value; pairs pass MinOverlap, the ACCU-COPY posterior and Threshold, and the
// result sorts strongest-first. accuracy supplies the current per-source
// accuracy estimates.
//
// Warm calls reuse the score cache: a pair is rescored only when its
// statistics moved since the previous call or either member's accuracy
// estimate did, and its members' item maps are intersected only when the pair
// is new or a member was among more than maxDiffWidth sources that one item
// reassigned at once. The score is a pure function of exactly those inputs,
// so cache hits are bit-identical to recomputation and the output stays
// deep-equal to a fresh batch Detect; the emit reads straight from the
// maintained passing set, so the call is O(affected pairs + output), never
// O(all pairs).
func (t *Tracker) Dependencies(accuracy func(w int) float64) []Dependence {
	for w := len(t.accSeen); w < len(t.itemsOf); w++ {
		// -1 is outside accuracy's range, forcing a first-call rescore.
		t.accSeen = append(t.accSeen, -1)
	}
	rescore := t.stale
	for w := range t.accSeen {
		if a := accuracy(w); a != t.accSeen[w] {
			t.accSeen[w] = a
			for k := range t.pairsOf[int32(w)] {
				rescore[k] = struct{}{}
			}
		}
	}
	for w := range t.recount {
		for k := range t.pairsOf[w] {
			g := t.pairs[k]
			g.overlap = -1
			t.pairs[k] = g
			rescore[k] = struct{}{}
		}
	}

	for k := range rescore {
		g := t.pairs[k]
		a, b := int(k.a), int(k.b)
		if g.overlap < 0 {
			overlap, differ := overlapDiffer(t.itemsOf[a], t.itemsOf[b])
			g.overlap, g.differ = int32(overlap), int32(differ)
			t.pairs[k] = g
		}
		if int(g.overlap) >= t.opt.MinOverlap {
			post := posterior(int(g.sharedTrue), int(g.sharedFalse), int(g.differ),
				t.accSeen[a], t.accSeen[b], t.opt)
			if post >= t.opt.Threshold {
				t.passing[k] = post
				continue
			}
		}
		delete(t.passing, k)
	}
	clear(t.stale)
	clear(t.recount)

	// nil when empty, matching Detect's no-result shape exactly.
	var out []Dependence
	if len(t.passing) > 0 {
		out = make([]Dependence, 0, len(t.passing))
	}
	for k, post := range t.passing {
		g := t.pairs[k]
		out = append(out, Dependence{
			A: int(k.a), B: int(k.b), Posterior: post,
			SharedTrue: int(g.sharedTrue), SharedFalse: int(g.sharedFalse), Differ: int(g.differ),
		})
	}
	sortDependences(out)
	return out
}
