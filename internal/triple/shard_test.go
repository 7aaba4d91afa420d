package triple

import "testing"

func shardTestSnapshot() *Snapshot {
	d := NewDataset()
	for i := 0; i < 9; i++ {
		subj := string(rune('A' + i))
		for _, w := range []string{"w1.com", "w2.com", "w3.com"} {
			d.Add(Record{
				Extractor: "E1", Website: w, Page: w + "/1",
				Subject: subj, Predicate: "pred", Object: "v" + w,
			})
		}
	}
	return d.Compile(CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName})
}

func TestShardsPartitionItemsAndTriples(t *testing.T) {
	s := shardTestSnapshot()
	for _, n := range []int{1, 2, 4, 7} {
		shards := s.Shards(n)
		if len(shards) != n {
			t.Fatalf("Shards(%d) returned %d shards", n, len(shards))
		}
		seenItem := make(map[int]int)
		seenTriple := make(map[int]int)
		for si, sh := range shards {
			for _, d := range sh.Items {
				seenItem[d]++
				if got := ShardOf(s.Item(d).String(), n); got != si {
					t.Errorf("n=%d: item %d in shard %d but ShardOf says %d", n, d, si, got)
				}
			}
			for _, ti := range sh.Triples {
				seenTriple[ti]++
				if ShardOf(s.Item(int(s.Triples[ti].D)).String(), n) != si {
					t.Errorf("n=%d: triple %d in wrong shard %d", n, ti, si)
				}
			}
		}
		if len(seenItem) != len(s.Items) {
			t.Errorf("n=%d: %d of %d items assigned", n, len(seenItem), len(s.Items))
		}
		if len(seenTriple) != len(s.Triples) {
			t.Errorf("n=%d: %d of %d triples assigned", n, len(seenTriple), len(s.Triples))
		}
		for d, c := range seenItem {
			if c != 1 {
				t.Errorf("n=%d: item %d assigned %d times", n, d, c)
			}
		}
		for ti, c := range seenTriple {
			if c != 1 {
				t.Errorf("n=%d: triple %d assigned %d times", n, ti, c)
			}
		}
	}
}

func TestShardOfStableAcrossGrowth(t *testing.T) {
	// The hash depends only on the item key, so recompiling a grown dataset
	// must keep every old item in its shard.
	keys := []string{"Obama\x1fnationality", "A\x1fpred", "B\x1fpred", "C\x1fother"}
	for _, k := range keys {
		first := ShardOf(k, 8)
		if again := ShardOf(k, 8); again != first {
			t.Errorf("ShardOf(%q) unstable: %d then %d", k, first, again)
		}
		if first < 0 || first >= 8 {
			t.Errorf("ShardOf(%q) = %d out of range", k, first)
		}
	}
	if ShardOf("anything", 1) != 0 || ShardOf("anything", 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
}
