package engine

import (
	"slices"
	"testing"

	"kbt/internal/core"
	"kbt/internal/triple"
)

// TestShardCounter pins the shard statistics the engine counts from its pass
// lists: each case marks items into a core.ScopeSet, compiles it as a pass
// does and feeds the list to the counter, and the first pass's shards, the
// touched shards and the partial ones must equal counts derived by hand. A
// shard all of whose items a pass names is whole; a scope of every item —
// MarkAllFull, or every item marked — is the nil pass, which covers every
// shard whole, empty ones too.
func TestShardCounter(t *testing.T) {
	// pick returns a pass's marks: items to mark, or all for MarkAllFull.
	// itemsOf lists each shard's items, big the shards with two or more.
	type pick func(itemsOf [][]int, big []int) (items []int, all bool)
	one := func(k int) pick { // one item of the k-th big shard
		return func(itemsOf [][]int, big []int) ([]int, bool) { return itemsOf[big[k]][:1], false }
	}
	whole := func(k int) pick { // every item of the k-th big shard
		return func(itemsOf [][]int, big []int) ([]int, bool) { return itemsOf[big[k]], false }
	}
	both := func(a, b pick) pick {
		return func(itemsOf [][]int, big []int) ([]int, bool) {
			x, _ := a(itemsOf, big)
			y, _ := b(itemsOf, big)
			return append(slices.Clone(x), y...), false
		}
	}
	every := func(itemsOf [][]int, big []int) ([]int, bool) { return slices.Concat(itemsOf...), false }
	allFull := func(itemsOf [][]int, big []int) ([]int, bool) { return nil, true }
	none := func(itemsOf [][]int, big []int) ([]int, bool) { return nil, false }

	for _, tc := range []struct {
		name                    string
		items, shards           int
		passes                  []pick
		first, touched, partial int
	}{
		{"partial shard", 24, 4, []pick{one(0)}, 1, 1, 1},
		{"saturated shard", 24, 4, []pick{whole(0)}, 1, 1, 0},
		{"saturated beside partial", 24, 4, []pick{both(whole(0), one(1))}, 2, 2, 1},
		{"partial, then saturated", 24, 4, []pick{one(0), whole(0)}, 1, 1, 0},
		{"saturated, then partial", 24, 4, []pick{whole(0), one(0)}, 1, 1, 0},
		{"partial in every pass", 24, 4, []pick{one(0), one(0), both(one(0), one(1))}, 1, 2, 2},
		{"every item by MarkAllFull", 24, 4, []pick{allFull}, 4, 4, 0},
		{"every item by saturation", 24, 4, []pick{every}, 4, 4, 0},
		{"empty pass", 24, 4, []pick{none}, 0, 0, 0},
		{"fewer items than shards, MarkAllFull", 2, 8, []pick{allFull}, 8, 8, 0},
		{"fewer items than shards, every item marked", 2, 8, []pick{every}, 8, 8, 0},
		{"empty pass, then every item", 2, 8, []pick{none, every}, 0, 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := (&triple.Dataset{Records: localDataset(tc.items)}).Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite})
			em, err := core.NewEM(snap, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			em.EnableStaleness()
			itemsOf := make([][]int, tc.shards)
			for d := range snap.Items {
				si := triple.ShardOf(snap.Item(d).String(), tc.shards)
				itemsOf[si] = append(itemsOf[si], d)
			}
			var big []int
			for si, its := range itemsOf {
				if len(its) >= 2 {
					big = append(big, si)
				}
			}
			if tc.items > tc.shards && len(big) < 2 {
				t.Fatalf("fixture: %d shards hold two items or more, want 2", len(big))
			}

			var c shardCounter
			c.begin(snap, tc.shards)
			sc := core.NewScopeSet()
			first := -1
			for k, p := range tc.passes {
				sc.Reset(len(snap.Items))
				items, all := p(itemsOf, big)
				if all {
					sc.MarkAllFull()
				}
				// Every item of localDataset has a predicate of its own, so
				// each (a.com, predicate) cell holds exactly that item.
				for _, d := range items {
					if !em.MarkCellItems(snap.SourceID("a.com"), int(snap.PredOfItem[d]), sc) {
						t.Fatalf("item %d has no a.com cell", d)
					}
				}
				list, _ := em.CompileScope(sc)
				if n := c.pass(list); k == 0 {
					first = n
				}
			}
			touched, partial := c.counts()
			if first != tc.first || touched != tc.touched || partial != tc.partial {
				t.Fatalf("first/touched/partial = %d/%d/%d, want %d/%d/%d",
					first, touched, partial, tc.first, tc.touched, tc.partial)
			}
		})
	}
}
