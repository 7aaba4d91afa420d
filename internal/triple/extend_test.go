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
	Obs             []Observation
	Sources         []string
	Extractors      []string
	Items           []string
	Values          []string
	Predicates      []string
	PredOfItem      []int32
	ItemValues      [][]int
	Triples         []TripleRef
	ByTriple        [][]int32
	TriplesOfItem   [][]int32
	TriplesOfSource [][]int32
	ObsOfExtractor  [][]int32
}

func tablesOf(s *Snapshot) snapshotTables {
	return snapshotTables{
		Obs:        s.Obs,
		Sources:    labelList(s.NumSources(), func(w int) string { return s.Source(w).String() }),
		Extractors: labelList(s.NumExtractors(), func(e int) string { return s.Extractor(e).String() }),
		Items:      labelList(len(s.Items), func(d int) string { return s.Item(d).String() }),
		Values:     labelList(s.NumValues(), s.Value),
		Predicates: labelList(s.NumPredicates(), s.Predicate),
		PredOfItem: s.PredOfItem, ItemValues: s.ItemValues,
		Triples: s.Triples, ByTriple: s.ByTriple,
		TriplesOfItem: s.TriplesOfItem, TriplesOfSource: s.TriplesOfSource,
		ObsOfExtractor: s.ObsOfExtractor,
	}
}

// labelList renders the labels of n units, label(id) each.
func labelList(n int, label func(id int) string) []string {
	out := make([]string, n)
	for id := range out {
		out[id] = label(id)
	}
	return out
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
	wt = tablesOf(want)
	for w, label := range wt.Sources {
		if got.SourceID(label) != w {
			t.Errorf("SourceID(%q) = %d, want %d", label, got.SourceID(label), w)
		}
	}
	for e, label := range wt.Extractors {
		if got.ExtractorID(label) != e {
			t.Errorf("ExtractorID(%q) = %d, want %d", label, got.ExtractorID(label), e)
		}
	}
	for v, label := range wt.Values {
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
	requireShallow := func(name string, depth, labels int) {
		if depth > bits.Len(uint(labels))+1 {
			t.Errorf("%s: %d intern layers over %d labels", name, depth, labels)
		}
	}
	depth, labels := 0, 0
	for l := snap.items.tuples; l != nil; l = l.parent {
		depth, labels = depth+1, labels+len(l.idx)
	}
	requireShallow("items", depth, labels)
	for name, f := range map[string]Field{"extractors": fieldExtractor, "values": fieldObject, "subjects": fieldSubject} {
		depth, labels := 0, 0
		for l := snap.table.index[f]; l != nil; l = l.parent {
			depth, labels = depth+1, labels+len(l.idx)
		}
		requireShallow(name, depth, labels)
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
			if parent.Item(di).String() == itemKey.Label(recs[0]) {
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
func sameArray(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

// spare is the room a table has past its length.
func spare(rows any) int { v := reflect.ValueOf(rows); return v.Cap() - v.Len() }

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
	for name, tab := range map[string]any{"ByTriple": parent.ByTriple, "TriplesOfItem": parent.TriplesOfItem,
		"TriplesOfSource": parent.TriplesOfSource, "ItemValues": parent.ItemValues} {
		if spare(tab) < len(fresh) {
			t.Fatalf("test premise: the parent's %s has no room for the batch (%d spare)", name, spare(tab))
		}
	}
	first := parent.Extend(fresh)
	for name, tabs := range map[string][2]any{
		"ByTriple":        {first.ByTriple, parent.ByTriple},
		"TriplesOfItem":   {first.TriplesOfItem, parent.TriplesOfItem},
		"TriplesOfSource": {first.TriplesOfSource, parent.TriplesOfSource},
		"ItemValues":      {first.ItemValues, parent.ItemValues},
	} {
		if !sameArray(tabs[0], tabs[1]) {
			t.Errorf("%s was copied by a batch that grows none of the parent's rows in it", name)
		}
	}
	if sameArray(first.ObsOfExtractor, parent.ObsOfExtractor) {
		t.Error("ObsOfExtractor grew a parent's row in the parent's own array")
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
		for _, tab := range [][][]int32{parent.ByTriple, parent.TriplesOfItem, parent.TriplesOfSource,
			parent.ObsOfExtractor} {
			for _, row := range tab {
				for _, x := range row {
					n += int(x)
				}
			}
		}
		for _, row := range parent.ItemValues {
			for _, x := range row {
				n += x
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

// referenceBuild compiles records one at a time through lookup maps — the
// record-at-a-time build that Compile and Extend replace with one sort of a
// batch's cells — sharing none of their code: the oracle for both.
func referenceBuild(recs []Record, opt CompileOptions) snapshotTables {
	var t snapshotTables
	vocab := map[*[]string]map[string]int{}
	intern := func(list *[]string, key string) (int, bool) {
		if vocab[list] == nil {
			vocab[list] = map[string]int{}
		}
		if i, ok := vocab[list][key]; ok {
			return i, false
		}
		vocab[list][key] = len(*list)
		*list = append(*list, key)
		return len(*list) - 1, true
	}
	insertSorted := func(row []int, x int) []int {
		if k, found := slices.BinarySearch(row, x); !found {
			return slices.Insert(row, k, x)
		}
		return row
	}
	tripleIdx, obsIdx := map[TripleRef]int{}, map[[2]int]int{}
	for _, r := range recs {
		e, newE := intern(&t.Extractors, opt.ExtractorKey.Label(r))
		if newE {
			t.ObsOfExtractor = append(t.ObsOfExtractor, nil)
		}
		w, newW := intern(&t.Sources, opt.SourceKey.Label(r))
		if newW {
			t.TriplesOfSource = append(t.TriplesOfSource, nil)
		}
		d, newD := intern(&t.Items, r.Subject+"\x1f"+r.Predicate)
		if newD {
			p, _ := intern(&t.Predicates, r.Predicate)
			t.PredOfItem = append(t.PredOfItem, int32(p))
			t.TriplesOfItem, t.ItemValues = append(t.TriplesOfItem, nil), append(t.ItemValues, nil)
		}
		v, _ := intern(&t.Values, r.Object)
		tr := TripleRef{W: int32(w), D: int32(d), V: int32(v)}
		ti, known := tripleIdx[tr]
		if !known {
			ti = len(t.Triples)
			tripleIdx[tr] = ti
			t.Triples, t.ByTriple = append(t.Triples, tr), append(t.ByTriple, nil)
			t.TriplesOfItem[d] = append(t.TriplesOfItem[d], int32(ti))
			t.TriplesOfSource[w] = append(t.TriplesOfSource[w], int32(ti))
			t.ItemValues[d] = insertSorted(t.ItemValues[d], v)
		}
		if oi, dup := obsIdx[[2]int{ti, e}]; dup {
			t.Obs[oi].Conf = max(t.Obs[oi].Conf, r.Conf())
			continue
		}
		oi := len(t.Obs)
		obsIdx[[2]int{ti, e}] = oi
		t.Obs = append(t.Obs, Observation{E: int32(e), W: int32(w), D: int32(d), V: int32(v), Conf: r.Conf()})
		t.ByTriple[ti] = append(t.ByTriple[ti], int32(oi))
		t.ObsOfExtractor[e] = append(t.ObsOfExtractor[e], int32(oi))
	}
	return t
}

// sameRows reports whether two tables hold equal rows.
func sameRows[T int | int32](a, b [][]T) bool { return slices.EqualFunc(a, b, slices.Equal) }

// rowLens lists the lengths of a table's rows.
func rowLens[T int | int32](rows [][]T) []int {
	n := make([]int, len(rows))
	for i, row := range rows {
		n[i] = len(row)
	}
	return n
}

// requireTables fails the test unless got's tables equal want, naming each
// table that differs (the tables are too large to print, and too large for
// reflect.DeepEqual under the race detector).
func requireTables(t *testing.T, what string, got *Snapshot, want snapshotTables) {
	t.Helper()
	g := tablesOf(got)
	for name, equal := range map[string]bool{
		"Obs": slices.Equal(g.Obs, want.Obs), "Sources": slices.Equal(g.Sources, want.Sources),
		"Extractors": slices.Equal(g.Extractors, want.Extractors), "Items": slices.Equal(g.Items, want.Items),
		"Values": slices.Equal(g.Values, want.Values), "Predicates": slices.Equal(g.Predicates, want.Predicates),
		"PredOfItem": slices.Equal(g.PredOfItem, want.PredOfItem), "ItemValues": sameRows(g.ItemValues, want.ItemValues),
		"Triples": slices.Equal(g.Triples, want.Triples), "ByTriple": sameRows(g.ByTriple, want.ByTriple),
		"TriplesOfItem": sameRows(g.TriplesOfItem, want.TriplesOfItem), "TriplesOfSource": sameRows(g.TriplesOfSource, want.TriplesOfSource),
		"ObsOfExtractor": sameRows(g.ObsOfExtractor, want.ObsOfExtractor),
	} {
		if !equal {
			t.Errorf("%s: table %s differs from the reference build", what, name)
		}
	}
}

// wideIDStream returns more than 65 536 distinct ids of every kind, then for
// each kind cells whose id differs from an earlier cell's only in byte 1 or 2,
// each followed by a duplicate of that earlier cell that raises or lowers its
// confidence: a sort that skips a digit, or is not stable, splits a group.
func wideIDStream() []Record {
	const n = 66_000
	mk := func(e, w, d, v int, conf float64) Record {
		return Record{Extractor: fmt.Sprintf("E%d", e), Website: fmt.Sprintf("w%d", w),
			Subject: fmt.Sprintf("S%d", d), Predicate: "p", Object: fmt.Sprintf("v%d", v), Confidence: conf}
	}
	recs := make([]Record, 0, n+4000)
	for i := 0; i < n; i++ {
		recs = append(recs, mk(i, i, i, i, 0.5))
	}
	for _, shift := range []int{256, 65_536} {
		for i := 0; i+shift < n; i += 331 {
			j := i + shift
			conf := []float64{0.9, 0.2}[i%2]
			recs = append(recs,
				mk(j, i, i, i, 0.7), mk(i, j, i, i, 0.7), mk(i, i, j, i, 0.7), mk(i, i, i, j, 0.7),
				mk(i, i, i, i, conf))
		}
	}
	return recs
}

// hubStream puts thousands of triples on one item, then extracts it again
// among fresh items.
func hubStream() []Record {
	var recs []Record
	for i := 0; i < 4000; i++ {
		recs = append(recs, Record{Extractor: fmt.Sprintf("E%d", i%3), Website: fmt.Sprintf("w%d", i%700),
			Subject: "hub", Predicate: "p", Object: fmt.Sprintf("v%d", i%37), Confidence: float64(i%10+1) / 10})
		if i%5 == 0 {
			recs = append(recs, Record{Extractor: "E0", Website: "w1", Subject: fmt.Sprintf("S%d", i), Predicate: "p", Object: "v0"})
		}
	}
	return recs
}

// TestCompileMatchesReferenceBuilder: Compile, and Extend at every split —
// the claimant child, an unclaimed second child of the same parent, and a
// chain — deep-equal the record-at-a-time reference build.
func TestCompileMatchesReferenceBuilder(t *testing.T) {
	website := CompileOptions{SourceKey: SourceKeyWebsite, ExtractorKey: ExtractorKeyName}
	corpora := []struct {
		name string
		recs []Record
		opt  CompileOptions
	}{
		{"random-website", randomStream(21, 500), website},
		{"random-finest", randomStream(22, 500), CompileOptions{SourceKey: SourceKeyFinest, ExtractorKey: ExtractorKeyFinest}},
		{"wide-ids", wideIDStream(), website},
		{"hub", hubStream(), website},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			want := referenceBuild(c.recs, c.opt)
			requireTables(t, "Compile", (&Dataset{Records: c.recs}).Compile(c.opt), want)
			n := len(c.recs)
			for _, cut := range []int{n / 3, n - n/7, n - 1} {
				parent := (&Dataset{Records: c.recs[:cut]}).Compile(c.opt)
				requireTables(t, fmt.Sprintf("cut %d, claimant", cut), parent.Extend(c.recs[cut:]), want)
				requireTables(t, fmt.Sprintf("cut %d, second child", cut), parent.Extend(c.recs[cut:]), want)
			}
			snap := (&Dataset{Records: c.recs[:n/2]}).Compile(c.opt)
			for cut, step := n/2, (n+9)/10; cut < n; cut += step {
				snap = snap.Extend(c.recs[cut:min(cut+step, n)])
			}
			requireTables(t, "chain", snap, want)
		})
	}

	// Every row of all five tables is at least four long, with spare capacity
	// after Compile, and a batch grows each by one cell: the claimant appends
	// in place, a second child of the same parent copies, and no snapshot may
	// see another's cells.
	t.Run("grow-every-row", func(t *testing.T) {
		const n = 64
		e := func(i int) string { return fmt.Sprintf("E%d", i%n) }
		w := func(i int) string { return fmt.Sprintf("w%d", i%n) }
		var base, grow []Record
		for i := 0; i < n; i++ {
			subj := fmt.Sprintf("S%d", i)
			for j := 0; j < 4; j++ {
				v := fmt.Sprintf("v%d.%d", i, j)
				for k := 0; k < 4; k++ {
					base = append(base, Record{Extractor: e(i + j + k), Website: w(i + j), Subject: subj, Predicate: "p", Object: v})
				}
				// One more observation of every triple, by a new extractor.
				grow = append(grow, Record{Extractor: "X", Website: w(i + j), Subject: subj, Predicate: "p", Object: v})
			}
			// A new value for every item, on a source that has not said it, by an
			// extractor that has not read that source.
			grow = append(grow, Record{Extractor: e(i + 8), Website: w(i + 4), Subject: subj, Predicate: "p", Object: fmt.Sprintf("new%d", i)})
		}
		parent := (&Dataset{Records: base}).Compile(website)
		if row := parent.TriplesOfItem[0]; cap(row) == len(row) {
			t.Fatalf("test premise: a compiled row has no spare capacity (len %d)", len(row))
		}
		first, second := parent.Extend(grow), parent.Extend(grow)
		for name, tabs := range map[string][2][]int{
			"ItemValues": {rowLens(parent.ItemValues), rowLens(first.ItemValues)}, "ByTriple": {rowLens(parent.ByTriple), rowLens(first.ByTriple)},
			"TriplesOfItem": {rowLens(parent.TriplesOfItem), rowLens(first.TriplesOfItem)}, "TriplesOfSource": {rowLens(parent.TriplesOfSource), rowLens(first.TriplesOfSource)},
			"ObsOfExtractor": {rowLens(parent.ObsOfExtractor), rowLens(first.ObsOfExtractor)},
		} {
			for i, n := range tabs[0] {
				if tabs[1][i] != n+1 {
					t.Fatalf("test premise: %s row %d grew from %d to %d cells, want one more", name, i, n, tabs[1][i])
				}
			}
		}
		all := slices.Concat(base, grow)
		want := referenceBuild(all, website)
		requireTables(t, "Compile", (&Dataset{Records: all}).Compile(website), want)
		requireTables(t, "claimant", first, want)
		requireTables(t, "second child", second, want)
		requireTables(t, "parent", parent, referenceBuild(base, website))
	})
}
