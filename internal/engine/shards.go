package engine

import "kbt/internal/triple"

// shardCounter turns a refresh's pass lists into its shard statistics
// (Result.FirstPassShards, TouchedShards, SettledShards, PartialShards).
// Shards hash item keys (triple.ShardOf, of the subject and predicate read
// from the table by Snapshot.ItemShard) and are only the unit these counts
// are stated in: no pass, publication or copy-tracker update runs by shard.
type shardCounter struct {
	of   []int32 // per dense item id: its shard
	size []int32 // per shard: its items
	cnt  []int32 // per shard: the current pass's items in it; zero between passes

	// touched/whole mark the shards a pass of the refresh covered in part or
	// in full.
	touched, whole []bool
}

// begin readies the counter for a refresh over snap under n shards: it
// grows the item table over snap's new items and clears the refresh's marks.
// Dense item ids follow first appearance in record order, under Extend and
// Compile alike, and records only append, so the table is always a prefix of
// snap's ids — also after a refresh that failed once it had grown it.
func (c *shardCounter) begin(snap *triple.Snapshot, n int) {
	if c.size == nil {
		*c = shardCounter{size: make([]int32, n), cnt: make([]int32, n),
			touched: make([]bool, n), whole: make([]bool, n)}
	}
	for d := len(c.of); d < len(snap.Items); d++ {
		si := int32(snap.ItemShard(d, n))
		c.of = append(c.of, si)
		c.size[si]++
	}
	clear(c.touched)
	clear(c.whole)
}

// pass records one settling pass over items (nil: every item) and returns
// how many shards it touched. The nil pass covers every shard whole, empty
// ones too; a list touches the shards it names an item of, and covers a
// shard whole when it names all of that shard's items.
func (c *shardCounter) pass(items []int) (touched int) {
	if items == nil {
		for si := range c.touched {
			c.touched[si], c.whole[si] = true, true
		}
		return len(c.touched)
	}
	for _, d := range items {
		c.cnt[c.of[d]]++
	}
	for si, k := range c.cnt {
		if k == 0 {
			continue
		}
		touched++
		c.touched[si] = true
		if k == c.size[si] {
			c.whole[si] = true
		}
		c.cnt[si] = 0
	}
	return touched
}

// counts returns how many shards the refresh's passes touched, and how many
// of those no pass covered whole.
func (c *shardCounter) counts() (touched, partial int) {
	for si, hit := range c.touched {
		if hit {
			touched++
			if !c.whole[si] {
				partial++
			}
		}
	}
	return touched, partial
}
