package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kbt/internal/triple"
)

// TestScopeGatherAscendingAndExact fuzzes CompileScope over the shapes a
// settling scope takes — narrow marks only (few: the sorted gather; many: the
// dense scan), some shards full, a shard saturated by narrow marks, every
// shard full. The gathered item list must be strictly ascending and equal the
// brute-force set {d : full[shardOf(d)] ∨ marked(d)}, the triple list exactly
// those items' TriplesOfItem in order; a saturated shard must upgrade to full,
// so that SettleScopes re-anchors the sources it confines; and a scope of
// every shard must be the nil pass.
func TestScopeGatherAscendingAndExact(t *testing.T) {
	// Every item has a leaf site of its own — a source whose whole reach is
	// that item's shard — beside a hub that reaches everywhere.
	const nItems = 400
	ds := triple.NewDataset()
	for i := 0; i < nItems; i++ {
		for _, site := range []string{"hub.com", fmt.Sprintf("leaf%03d.com", i)} {
			ds.Add(triple.Record{Extractor: "E", Website: site, Page: site + "/x",
				Subject: fmt.Sprintf("S%03d", i), Predicate: "p", Object: fmt.Sprintf("v%d", i%3)})
		}
	}
	s := ds.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName})
	leafOf := func(d int) int { return s.Triples[s.TriplesOfItem[d][1]].W }

	sc := NewScopeSet()
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nShards := []int{1, 3, 8, 32}[trial%4]
		em, err := NewEM(s, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		em.EnableStaleness(nShards)
		led := em.st.ledger
		itemsOf := make([][]int, nShards)
		for d, si := range led.itemShard {
			itemsOf[si] = append(itemsOf[si], d)
		}

		sc.Reset(nShards, nItems)
		marked := make([]bool, nItems)
		full := make([]bool, nShards)
		mark := func(d int) {
			sc.markItem(d, led.itemShard[d])
			marked[d] = true
		}
		saturated := -1
		switch shape := trial % 5; shape {
		case 0, 1: // narrow marks only: a handful, or a large share
			n := rng.Intn(12) + 1
			if shape == 1 {
				n = nItems/8 + rng.Intn(nItems/2)
			}
			for i := 0; i < n; i++ {
				mark(rng.Intn(nItems))
			}
		case 2: // some shards full, narrow marks beside and inside them
			for i := rng.Intn(8); i >= 0; i-- {
				mark(rng.Intn(nItems))
			}
			for i := rng.Intn(max(nShards/2, 1)); i >= 0; i-- {
				si := rng.Intn(nShards)
				sc.MarkShardFull(si)
				full[si] = true
			}
			for i := rng.Intn(8); i >= 0; i-- {
				mark(rng.Intn(nItems))
			}
		case 3: // one shard saturated by narrow marks
			saturated = rng.Intn(nShards)
			for len(itemsOf[saturated]) == 0 {
				saturated = (saturated + 1) % nShards
			}
			for _, d := range itemsOf[saturated] {
				mark(d)
			}
			for i := rng.Intn(6); i > 0; i-- {
				mark(rng.Intn(nItems))
			}
		case 4: // every shard full, outright or by saturation
			for si := range itemsOf {
				if len(itemsOf[si]) > 0 && rng.Intn(2) == 0 {
					for _, d := range itemsOf[si] {
						mark(d)
					}
				} else {
					sc.MarkShardFull(si)
				}
				full[si] = true
			}
		}
		var wantItems, wantTris []int
		wantShard := make([]bool, nShards)
		for d, si := range led.itemShard {
			if full[si] || marked[d] {
				wantItems = append(wantItems, d)
				wantTris = append(wantTris, s.TriplesOfItem[d]...)
				wantShard[si] = true
			}
		}
		for si, f := range full {
			wantShard[si] = wantShard[si] || f
		}
		// A drifted leaf source inside and one outside the saturated shard.
		in, out := -1, -1
		if saturated >= 0 {
			in = leafOf(itemsOf[saturated][0])
			for d, si := range led.itemShard {
				if int(si) != saturated && !marked[d] {
					out = leafOf(d)
					break
				}
			}
			led.srcDrift[in] = 1
			if out >= 0 {
				led.srcDrift[out] = 1
			}
		}

		items, tris := em.CompileScope(sc)
		tag := fmt.Sprintf("trial %d (%d shards)", trial, nShards)
		if len(wantItems) == nItems {
			if !sc.AllFull() || items != nil || tris != nil {
				t.Fatalf("%s: a scope of every shard must compile to the nil pass; AllFull=%v, %d items", tag, sc.AllFull(), len(items))
			}
		} else {
			if items == nil || tris == nil {
				t.Fatalf("%s: partial scope compiled to a nil list, which the kernels read as every index", tag)
			}
			for k := 1; k < len(items); k++ {
				if items[k] <= items[k-1] {
					t.Fatalf("%s: gathered items not strictly ascending at %d: %d after %d", tag, k, items[k], items[k-1])
				}
			}
			if !slices.Equal(items, wantItems) {
				t.Fatalf("%s: gathered %d items, brute force has %d", tag, len(items), len(wantItems))
			}
			if !slices.Equal(tris, wantTris) {
				t.Fatalf("%s: gathered triples are not the items' TriplesOfItem in order", tag)
			}
		}
		n := 0
		for si, want := range wantShard {
			if !want {
				continue
			}
			if n >= sc.Len() {
				t.Fatalf("%s: shard list ends before shard %d", tag, si)
			}
			got, gotFull := sc.At(n)
			wantFull := full[si] || !slices.ContainsFunc(itemsOf[si], func(d int) bool { return !marked[d] })
			if got != si || gotFull != wantFull {
				t.Fatalf("%s: entry %d = shard %d full=%v, want shard %d full=%v", tag, n, got, gotFull, si, wantFull)
			}
			n++
		}
		if n != sc.Len() {
			t.Fatalf("%s: shard list has %d entries, want %d", tag, sc.Len(), n)
		}
		if saturated >= 0 && len(wantItems) < nItems {
			em.SettleScopes(sc)
			if led.srcDrift[in] != 0 {
				t.Fatalf("%s: source confined to the saturated shard kept its drift", tag)
			}
			if out >= 0 && led.srcDrift[out] == 0 {
				t.Fatalf("%s: source outside the scope was settled", tag)
			}
		}
	}
}
