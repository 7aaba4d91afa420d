package triple

import (
	"hash/fnv"
	"slices"
)

// Shard is one partition of a Snapshot's data-item space. Items (and the
// candidate triples that mention them) are assigned by hashing the item key,
// so a shard is a stable unit of accounting: the engine's refresh statistics
// count which shards a refresh re-estimated, resolving each item's shard
// through ShardOf. Nothing runs shard by shard — a settling pass reads its
// scope in ascending dense-id order (core.EM.CompileScope), a generation
// publishes in dense-id chunks, and the copy tracker takes item lists — so
// the engine builds no Shard views; the benchmark harness (bench/layers.go)
// still times Shards and ExtendShards until it releases them (ROADMAP.md,
// item 2(e)).
type Shard struct {
	// Items lists the data-item ids owned by the shard, ascending.
	Items []int
	// Triples lists the candidate-triple indices (into Snapshot.Triples)
	// whose data item is owned by the shard, ascending.
	Triples []int
}

// ShardOf returns the shard index of an item key under n shards. The
// assignment depends only on the key string (FNV-1a plus an avalanche
// finalizer), never on dense ids or dataset order, so an item stays in the
// same shard as the dataset grows and is recompiled around it.
//
// The finalizer matters: raw FNV-1a taken mod a small n correlates badly on
// near-identical keys (e.g. sequential subject names, the common shape of a
// live feed), funnelling most of an ingest into one or two shards. The
// xor-shift/multiply rounds spread the low bits uniformly.
func ShardOf(itemKey string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(itemKey))
	x := h.Sum32()
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return int(x % uint32(n))
}

// Shards partitions the snapshot's data items into n shards by ShardOf.
// Every item and every candidate triple appears in exactly one shard; a
// shard may be empty. n < 1 is treated as 1. Only the benchmark harness calls
// it (see Shard).
func (s *Snapshot) Shards(n int) []Shard {
	if n < 1 {
		n = 1
	}
	shards := make([]Shard, n)
	itemShard := make([]int, len(s.Items))
	for d, key := range s.Items {
		si := ShardOf(key, n)
		itemShard[d] = si
		shards[si].Items = append(shards[si].Items, d)
	}
	for ti, tr := range s.Triples {
		si := itemShard[tr.D]
		shards[si].Triples = append(shards[si].Triples, ti)
	}
	return shards
}

// ExtendShards builds the shard views of s — a snapshot produced by
// extending a parent with prevItems items and prevTriples candidate triples
// — from the parent's shard views, touching only the shards that own a new
// item or a new candidate triple. Untouched shards share their slices with
// the parent views. The result is identical to s.Shards(len(parent)). Only
// the benchmark harness calls it (see Shard).
func (s *Snapshot) ExtendShards(parent []Shard, prevItems, prevTriples int) []Shard {
	n := len(parent)
	if n < 1 {
		return s.Shards(n)
	}
	shards := slices.Clone(parent)
	owned := make([]bool, n)
	own := func(si int) {
		if !owned[si] {
			owned[si] = true
			shards[si].Items = slices.Clone(shards[si].Items)
			shards[si].Triples = slices.Clone(shards[si].Triples)
		}
	}
	for d := prevItems; d < len(s.Items); d++ {
		si := ShardOf(s.Items[d], n)
		own(si)
		shards[si].Items = append(shards[si].Items, d)
	}
	for ti := prevTriples; ti < len(s.Triples); ti++ {
		si := ShardOf(s.Items[s.Triples[ti].D], n)
		own(si)
		shards[si].Triples = append(shards[si].Triples, ti)
	}
	return shards
}
