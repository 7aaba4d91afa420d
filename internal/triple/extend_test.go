package triple

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
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
// pattern, long enough for the intern layers to fold many times — must
// stay equal to one-shot compilation at every step.
func TestExtendChainMatchesCompile(t *testing.T) {
	recs := randomStream(2, 600)
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	const step = 10 // 60 extends
	snap := (&Dataset{Records: recs[:step]}).Compile(opt)
	for cut := step; cut < len(recs); cut += step {
		end := min(cut+step, len(recs))
		snap = snap.Extend(recs[cut:end])
		if (end/step)%12 == 0 || end == len(recs) {
			want := (&Dataset{Records: recs[:end]}).Compile(opt)
			requireEqualSnapshots(t, snap, want)
		}
	}
	// Layers more than double going down a chain, empty ones are skipped: sixty
	// forks leave a chain logarithmic in the vocabulary, not sixty deep.
	for name, tab := range map[string]*internTable{"items": snap.itemIdx, "extractors": snap.extractorIdx, "values": snap.valueIdx} {
		depth, labels := 0, 0
		for l := tab; l != nil; l = l.parent {
			depth++
			labels += len(l.idx)
		}
		if depth > bits.Len(uint(labels))+1 {
			t.Errorf("%s: %d intern layers over %d labels", name, depth, labels)
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

// wideStream emits n records over many items — item i witnessed by site i/4
// and read by two extractors; next carries the item counter across calls.
func wideStream(n int, next *int) []Record {
	recs := make([]Record, 0, n)
	for ; len(recs) < n; *next++ {
		site := fmt.Sprintf("w%05d.com", *next/4)
		for _, e := range []string{"E0", "E1"} {
			recs = append(recs, Record{Extractor: e, Website: site, Page: site + "/x",
				Subject: fmt.Sprintf("S%06d", *next), Predicate: "p", Object: "v", Confidence: 0.9})
		}
	}
	return recs
}

// sameArray reports whether two tables start in the same backing array.
func sameArray(a, b [][]int) bool { return &a[0] == &b[0] }

// TestExtendSharesUntouchedTables pins the sharing Extend's cost rests on, and
// that it is sound. A batch of new items on new sites leaves the outer arrays
// of ByTriple, TriplesOfItem, TriplesOfSource and ItemValues the parent's; it
// grows the two extractors' rows, so it copies those two small tables, and
// appends to the rows themselves in the parent's spare capacity. A batch that
// grows old rows everywhere then copies before it writes; a second child of
// the same snapshot, built after the first has appended in place, must not see
// those appends, nor may its own child collide with them. Every snapshot of
// the lineage equals Compile of its own records, table for table.
func TestExtendSharesUntouchedTables(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	next := 0
	base := wideStream(3200, &next)
	parent := (&Dataset{Records: base}).Compile(opt)
	fresh := wideStream(24, &next) // 12 new items on 3 new sites
	for name, tab := range map[string][][]int{"ByTriple": parent.ByTriple, "TriplesOfItem": parent.TriplesOfItem,
		"TriplesOfSource": parent.TriplesOfSource, "ItemValues": parent.ItemValues} {
		if cap(tab)-len(tab) < len(fresh) {
			t.Fatalf("test premise: the parent's %s has no room for the batch (len %d cap %d)", name, len(tab), cap(tab))
		}
	}
	first := parent.Extend(fresh)
	for name, tabs := range map[string][2][][]int{
		"ByTriple":        {first.ByTriple, parent.ByTriple},
		"TriplesOfItem":   {first.TriplesOfItem, parent.TriplesOfItem},
		"TriplesOfSource": {first.TriplesOfSource, parent.TriplesOfSource},
		"ItemValues":      {first.ItemValues, parent.ItemValues},
	} {
		if !sameArray(tabs[0], tabs[1]) {
			t.Errorf("%s was copied by a batch that grows none of the parent's rows in it", name)
		}
	}
	if sameArray(first.ObsOfExtractor, parent.ObsOfExtractor) || sameArray(first.SourcesOfExtractor, parent.SourcesOfExtractor) {
		t.Error("an extractor table grew a parent's row in the parent's own array")
	}
	// E0's observation row is the parent's with a tail: same backing array.
	e0 := parent.ExtractorID("E0")
	pr, cr := parent.ObsOfExtractor[e0], first.ObsOfExtractor[e0]
	if cap(pr) == len(pr) {
		t.Fatalf("test premise: the parent's E0 row has no spare capacity (len %d)", len(pr))
	}
	if len(cr) <= len(pr) || &cr[0] != &pr[0] {
		t.Errorf("E0's row was copied (parent len %d cap %d, child len %d); want an append in place", len(pr), cap(pr), len(cr))
	}

	// A new value for old items 5 and 6 (their TriplesOfItem, TriplesOfSource
	// and ItemValues rows grow), a second observation of old triple 7 by a new
	// extractor (its ByTriple row grows), and fresh items.
	grow := func(tag string) []Record {
		batch := []Record{
			{Extractor: "E0", Website: "w00001.com", Page: "x", Subject: "S000005", Predicate: "p", Object: "new" + tag},
			{Extractor: "E1", Website: "w00001.com", Page: "x", Subject: "S000006", Predicate: "p", Object: "new" + tag},
			{Extractor: "E2" + tag, Website: "w00001.com", Page: "x", Subject: "S000007", Predicate: "p", Object: "v"},
		}
		return append(batch, wideStream(20, &next)...)
	}
	secondRecs, thirdRecs, fourthRecs := grow("a"), grow("b"), grow("c")
	second := first.Extend(secondRecs) // claims first: shares until it grows an old row
	third := first.Extend(thirdRecs)   // after second has appended in place
	fourth := third.Extend(fourthRecs) // claims third: must not write where second did
	compiled := func(batches ...[]Record) *Snapshot {
		return (&Dataset{Records: slices.Concat(batches...)}).Compile(opt)
	}
	requireEqualSnapshots(t, parent, compiled(base))
	requireEqualSnapshots(t, first, compiled(base, fresh))
	requireEqualSnapshots(t, second, compiled(base, fresh, secondRecs))
	requireEqualSnapshots(t, third, compiled(base, fresh, thirdRecs))
	requireEqualSnapshots(t, fourth, compiled(base, fresh, thirdRecs, fourthRecs))
	if !grownItemsMatch(parent, first) || !grownItemsMatch(first, second) || !grownItemsMatch(first, third) || !grownItemsMatch(third, fourth) {
		t.Error("GrownItems does not name the items whose value rows grew")
	}
}

// TestExtendBesideParentReaders reads every row of a parent snapshot on one
// goroutine while a chain of children extends it on another: the children
// append into the parent's spare capacity, past every length the parent
// reads. The race detector is the referee; the checksum only keeps the reads
// honest.
func TestExtendBesideParentReaders(t *testing.T) {
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	next := 0
	parent := (&Dataset{Records: wideStream(2400, &next)}).Compile(opt)
	sum := func() (n int) {
		for _, tab := range [][][]int{parent.ByTriple, parent.TriplesOfItem, parent.TriplesOfSource,
			parent.ObsOfExtractor, parent.SourcesOfExtractor, parent.ItemValues} {
			for _, row := range tab {
				for _, x := range row {
					n += x
				}
			}
		}
		return n + len(parent.Obs) + len(parent.Triples)
	}
	want := sum()

	started, done := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; ; pass++ {
			if got := sum(); got != want {
				t.Errorf("pass %d: the parent's tables changed under its reader: checksum %d, want %d", pass, got, want)
				return
			}
			if pass == 0 {
				close(started)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-started
	child := parent
	for i := 0; i < 20; i++ {
		batch := append(wideStream(30, &next),
			Record{Extractor: "E0", Website: "w00000.com", Page: "x", Subject: "S000001", Predicate: "p", Object: fmt.Sprintf("n%d", i)})
		child = child.Extend(batch)
	}
	close(done)
	wg.Wait()
}

// TestExtendCostIndependentOfCorpus: what sixty 100-record Extends allocate
// must not grow with the base they extend — within 2x from 25k to 200k
// records (the cloned outer tables made it 6x) — on a group-local stream
// (every batch brings its own sources) and on a hub stream (one site and one
// extractor span the corpus, the other sources are a fixed 2048). A batch ends
// on a whole group of four items, as the benchmark's streams do: one that cuts
// a group makes the next grow a known source's row, which copies a header per
// source (group-local, cut: 122 KiB on 25k records, 346 on 200k). One Extend
// runs before the count starts: Compile sizes Obs exactly, so the first append
// regrows it, a cost every flat table pays once per quarter of its length,
// not per Extend.
func TestExtendCostIndependentOfCorpus(t *testing.T) {
	shapes := map[string]func(i int, add func(e, w string, wrong bool)){
		"group-local": func(i int, add func(e, w string, wrong bool)) {
			for k, site := range []string{"-a.com", "-b.com", "-c.com", "-d.com"} {
				for _, e := range []string{"E1", "E2", "E3"} {
					add(e, fmt.Sprintf("g%06d%s", i/4, site), k == 3 && i%10 < 7)
				}
			}
		},
		"hub": func(i int, add func(e, w string, wrong bool)) {
			add("EB", "hub.com", i%5 == 0)
			add("EB", fmt.Sprintf("leaf%04d.com", i/4%2048), false)
			add("EB", fmt.Sprintf("leaf%04d.com", (i/4+7)%2048), i%10 < 3)
		},
	}
	opt := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	for name, item := range shapes {
		next := 0
		stream := func(n int) []Record {
			recs := make([]Record, 0, n+48)
			for ; len(recs) < n || next%4 != 0; next++ {
				subj := fmt.Sprintf("S%07d", next)
				item(next, func(e, w string, wrong bool) {
					obj := "v" + subj
					if wrong {
						obj = "w" + subj
					}
					recs = append(recs, Record{Extractor: e, Website: w, Page: w + "/x",
						Subject: subj, Predicate: "p" + subj, Object: obj, Confidence: 0.9})
				})
			}
			return recs
		}
		perExtend := func(base int) uint64 {
			snap := (&Dataset{Records: stream(base)}).Compile(opt).Extend(stream(100))
			batches := make([][]Record, 60)
			for i := range batches {
				batches[i] = stream(100)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, b := range batches {
				snap = snap.Extend(b)
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / uint64(len(batches))
		}
		small, large := perExtend(25_000), perExtend(200_000)
		t.Logf("%s: %d KiB per Extend on 25k records, %d KiB on 200k", name, small>>10, large>>10)
		if large >= 2*small {
			t.Errorf("%s: an Extend allocates %d bytes on a 200k-record base, %d on 25k: the cost grows with the corpus", name, large, small)
		}
	}
}
