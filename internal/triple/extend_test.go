package triple

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// snapshotTables flattens every exported table of a snapshot for deep
// comparison. Extend's contract is bit-identical equality with a one-shot
// Compile over the concatenated records, so the comparison is exact.
type snapshotTables struct {
	Obs                []Observation
	Sources            []string
	Extractors         []string
	Items              []string
	Values             []string
	Predicates         []string
	PredOfItem         []int
	ItemValues         [][]int
	Triples            []TripleRef
	ByTriple           [][]int
	TriplesOfItem      [][]int
	TriplesOfSource    [][]int
	ObsOfExtractor     [][]int
	SourcesOfExtractor [][]int
}

func tablesOf(s *Snapshot) snapshotTables {
	return snapshotTables{
		Obs: s.Obs, Sources: s.Sources, Extractors: s.Extractors,
		Items: s.Items, Values: s.Values, Predicates: s.Predicates,
		PredOfItem: s.PredOfItem, ItemValues: s.ItemValues,
		Triples: s.Triples, ByTriple: s.ByTriple,
		TriplesOfItem: s.TriplesOfItem, TriplesOfSource: s.TriplesOfSource,
		ObsOfExtractor: s.ObsOfExtractor, SourcesOfExtractor: s.SourcesOfExtractor,
	}
}

// requireEqualSnapshots fails the test unless got and want are structurally
// identical, including the label lookups the unexported intern tables serve.
func requireEqualSnapshots(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats diverge:\n got  %s\n want %s", g, w)
	}
	gt, wt := tablesOf(got), tablesOf(want)
	rv, wv := reflect.ValueOf(gt), reflect.ValueOf(wt)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("table %s diverges:\n got  %v\n want %v",
				rv.Type().Field(i).Name, rv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	for w, label := range want.Sources {
		if got.SourceID(label) != w {
			t.Errorf("SourceID(%q) = %d, want %d", label, got.SourceID(label), w)
		}
	}
	for e, label := range want.Extractors {
		if got.ExtractorID(label) != e {
			t.Errorf("ExtractorID(%q) = %d, want %d", label, got.ExtractorID(label), e)
		}
	}
	for v, label := range want.Values {
		if got.ValueID(label) != v {
			t.Errorf("ValueID(%q) = %d, want %d", label, got.ValueID(label), v)
		}
	}
	if got.SourceID("\x00absent") != -1 || got.ItemID("\x00absent", "x") != -1 {
		t.Error("absent labels must resolve to -1 on extended snapshots")
	}
}

// randomStream builds a deterministic pseudo-random record stream with
// colliding items, values, duplicate cells and varying confidences — the
// shapes that exercise every branch of the append path.
func randomStream(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		w := fmt.Sprintf("site%d.com", rng.Intn(9))
		recs[i] = Record{
			Extractor:  fmt.Sprintf("E%d", rng.Intn(5)),
			Pattern:    fmt.Sprintf("pat%d", rng.Intn(3)),
			Website:    w,
			Page:       fmt.Sprintf("%s/p%d", w, rng.Intn(4)),
			Subject:    fmt.Sprintf("S%d", rng.Intn(30)),
			Predicate:  fmt.Sprintf("pred%d", rng.Intn(6)),
			Object:     fmt.Sprintf("V%d", rng.Intn(12)),
			Confidence: float64(rng.Intn(11)) / 10, // includes 0 ("unspecified") and 1
		}
	}
	return recs
}

var extendGranularities = []struct {
	name string
	opt  CompileOptions
}{
	{"website", CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}},
	{"finest", CompileOptions{SourceKey: SourceKeyFinest, ExtractorKey: ExtractorKeyFinest}},
	{"page", CompileOptions{SourceKey: SourceKeyPage, ExtractorKey: ExtractorKeyName}},
}

// TestExtendMatchesCompile: compiling a prefix and extending with the suffix
// must equal compiling the whole stream, at every split point shape.
func TestExtendMatchesCompile(t *testing.T) {
	recs := randomStream(1, 400)
	for _, g := range extendGranularities {
		t.Run(g.name, func(t *testing.T) {
			want := (&Dataset{Records: recs}).Compile(g.opt)
			for _, cut := range []int{1, 37, 200, 399, len(recs)} {
				parent := (&Dataset{Records: recs[:cut]}).Compile(g.opt)
				got := parent.Extend(recs[cut:])
				requireEqualSnapshots(t, got, want)
			}
		})
	}
}

// TestExtendChainMatchesCompile: a chain of many small extends — the serving
// pattern, long enough to cross the intern-table flattening depth — must
// stay equal to one-shot compilation at every step.
func TestExtendChainMatchesCompile(t *testing.T) {
	recs := randomStream(2, 600)
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	const step = 10 // 60 extends: crosses maxInternDepth several times
	snap := (&Dataset{Records: recs[:step]}).Compile(opt)
	for cut := step; cut < len(recs); cut += step {
		end := min(cut+step, len(recs))
		snap = snap.Extend(recs[cut:end])
		if (end/step)%12 == 0 || end == len(recs) {
			want := (&Dataset{Records: recs[:end]}).Compile(opt)
			requireEqualSnapshots(t, snap, want)
		}
	}
}

// TestExtendDoesNotMutateParent: the parent snapshot must stay bit-identical
// after a child is built from it, including when the child raises the
// confidence of a duplicate cell and appends to every index family.
func TestExtendDoesNotMutateParent(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	recs := randomStream(3, 120)
	parent := (&Dataset{Records: recs}).Compile(opt)
	want := (&Dataset{Records: recs}).Compile(opt)

	extra := append(randomStream(4, 120),
		// Duplicate cell of an existing record with a higher confidence.
		Record{Extractor: recs[0].Extractor, Pattern: recs[0].Pattern,
			Website: recs[0].Website, Page: recs[0].Page,
			Subject: recs[0].Subject, Predicate: recs[0].Predicate,
			Object: recs[0].Object, Confidence: 1},
	)
	child := parent.Extend(extra)
	requireEqualSnapshots(t, parent, want)

	// Both parent and child must still extend safely after the fork.
	more := randomStream(5, 50)
	got1 := parent.Extend(more)
	got2 := child.Extend(more)
	requireEqualSnapshots(t, got1, (&Dataset{Records: append(slicesConcat(recs), more...)}).Compile(opt))
	requireEqualSnapshots(t, got2, (&Dataset{Records: append(append(slicesConcat(recs), extra...), more...)}).Compile(opt))
}

func slicesConcat(r []Record) []Record { return append([]Record(nil), r...) }

// grownItemsMatch checks the Delta contract on a child of parent: GrownItems
// names, each once, exactly the parent's items whose value row the child
// lengthened.
func grownItemsMatch(parent, child *Snapshot) bool {
	d, ok := child.ParentDelta()
	if !ok {
		return false
	}
	grown := make(map[int]bool)
	for _, di := range d.GrownItems {
		if di >= len(parent.Items) || grown[di] {
			return false
		}
		grown[di] = true
	}
	for di := range parent.Items {
		if grown[di] != (len(child.ItemValues[di]) != len(parent.ItemValues[di])) {
			return false
		}
	}
	return true
}

// TestExtendProperty: quick-check over random seeds, sizes and split points.
// The batch always ends by giving the first record's item two values no
// record has, so some old item gains two values in one Extend; the second
// child of the same parent cannot claim the tail and takes the copying path.
func TestExtendProperty(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	f := func(seed int64, nRaw, cutRaw uint16) bool {
		n := int(nRaw%300) + 2
		cut := int(cutRaw)%(n-1) + 1
		recs := randomStream(seed, n)
		for _, v := range []string{"fresh1", "fresh2"} {
			r := recs[0]
			r.Object = v
			recs = append(recs, r)
		}
		want := (&Dataset{Records: recs}).Compile(opt)
		parent := (&Dataset{Records: recs[:cut]}).Compile(opt)
		first, second := parent.Extend(recs[cut:]), parent.Extend(recs[cut:])
		twice := 0
		d, _ := first.ParentDelta()
		for _, di := range d.GrownItems {
			if parent.Items[di] == recs[0].ItemKey() {
				twice++
			}
		}
		return reflect.DeepEqual(tablesOf(first), tablesOf(want)) &&
			reflect.DeepEqual(tablesOf(second), tablesOf(want)) &&
			grownItemsMatch(parent, first) && grownItemsMatch(parent, second) && twice == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExtendShardsMatchesShards: delta shard views must equal full ones.
func TestExtendShardsMatchesShards(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	recs := randomStream(6, 500)
	for _, n := range []int{1, 3, 8} {
		parent := (&Dataset{Records: recs[:300]}).Compile(opt)
		parentShards := parent.Shards(n)
		child := parent.Extend(recs[300:])
		got := child.ExtendShards(parentShards, len(parent.Items), len(parent.Triples))
		want := child.Shards(n)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: ExtendShards diverges from Shards", n)
		}
		// Parent views untouched.
		if !reflect.DeepEqual(parentShards, parent.Shards(n)) {
			t.Errorf("n=%d: ExtendShards mutated the parent views", n)
		}
	}
}

// TestExtendLabelCompiledPanics: positional-label snapshots cannot extend.
func TestExtendLabelCompiledPanics(t *testing.T) {
	recs := randomStream(7, 10)
	labels := make([]string, len(recs))
	for i := range labels {
		labels[i] = fmt.Sprintf("unit%d", i%3)
	}
	s := (&Dataset{Records: recs}).Compile(CompileOptions{SourceLabels: labels})
	defer func() {
		if recover() == nil {
			t.Error("Extend on a label-compiled snapshot must panic")
		}
	}()
	s.Extend(recs[:1])
}
