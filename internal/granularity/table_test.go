package granularity

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"kbt/internal/triple"
	"kbt/internal/websim"
)

// collidingCorpus draws records whose fields hold "\x1f", the separator unit
// labels are joined with, so that distinct field tuples share a label: a
// source ⟨"a\x1fb", "c", …⟩ and one ⟨"a", "b\x1fc", …⟩, an item ("s\x1fp", "q")
// and one ("s", "p\x1fq"). Units whose labels coincide are one unit of the
// snapshot, and the first record's predicate is its item's.
func collidingCorpus(seed int64, n int) []triple.Record {
	rng := rand.New(rand.NewSource(seed))
	pick := func(parts ...string) string { return parts[rng.Intn(len(parts))] }
	recs := make([]triple.Record, n)
	for i := range recs {
		recs[i] = triple.Record{
			Extractor: pick("E", "E\x1fx", "E\x1fx\x1fw"),
			Pattern:   pick("x", "x\x1fw", "", "y"),
			Website:   pick("w", "x\x1fw", "w\x1fp", "v"),
			Page:      pick("p", "p\x1fq", "q", ""),
			Subject:   pick("s", "s\x1fp", "t"),
			Predicate: pick("p", "q", "p\x1fq", "w"),
			Object:    pick("o", "o\x1fo", "v"),
		}
		if rng.Intn(3) == 0 {
			recs[i].Confidence = float64(rng.Intn(10)+1) / 10
		}
	}
	return recs
}

// webCorpus is the web simulator's corpus at a small scale.
func webCorpus(t *testing.T, scale float64) []triple.Record {
	t.Helper()
	p := websim.DefaultParams().Scale(scale)
	p.Seed = 5
	w, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w.Dataset.Records
}

// tablesOf returns the table the TSV reader reads from the records' TSV and
// the one Add builds, after checking that both hold the records.
func tablesOf(t *testing.T, recs []triple.Record) map[string]*triple.Table {
	t.Helper()
	var buf bytes.Buffer
	if err := triple.WriteTSV(&buf, &triple.Dataset{Records: recs}); err != nil {
		t.Fatal(err)
	}
	read, err := triple.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	added := &triple.Table{}
	for _, r := range recs {
		added.Add(r)
	}
	tables := map[string]*triple.Table{"read": read, "added": added}
	for name, tab := range tables {
		if !slices.Equal(tab.Records(), recs) {
			t.Fatalf("%s table: its records differ from the corpus", name)
		}
	}
	return tables
}

// sameRows reports whether two tables hold equal rows.
func sameRows[T int | int32](a, b [][]T) bool { return slices.EqualFunc(a, b, slices.Equal) }

// labelLists renders a snapshot's labels by kind, each in its joined form.
func labelLists(s *triple.Snapshot) map[string][]string {
	list := func(n int, label func(id int) string) []string {
		out := make([]string, n)
		for id := range out {
			out[id] = label(id)
		}
		return out
	}
	return map[string][]string{
		"Sources":    list(s.NumSources(), func(w int) string { return s.Source(w).String() }),
		"Extractors": list(s.NumExtractors(), func(e int) string { return s.Extractor(e).String() }),
		"Items":      list(len(s.Items), func(d int) string { return s.Item(d).String() }),
		"Values":     list(s.NumValues(), s.Value),
		"Predicates": list(s.NumPredicates(), s.Predicate),
	}
}

// requireSameSnapshot fails the test unless got equals want table for table
// and answers every lookup of want's labels alike.
func requireSameSnapshot(t *testing.T, what string, got, want *triple.Snapshot) {
	t.Helper()
	for name, equal := range map[string]bool{
		"Obs": slices.Equal(got.Obs, want.Obs), "Items": slices.Equal(got.Items, want.Items),
		"PredOfItem": slices.Equal(got.PredOfItem, want.PredOfItem), "ItemValues": sameRows(got.ItemValues, want.ItemValues),
		"Triples": slices.Equal(got.Triples, want.Triples), "ByTriple": sameRows(got.ByTriple, want.ByTriple),
		"TriplesOfItem": sameRows(got.TriplesOfItem, want.TriplesOfItem), "TriplesOfSource": sameRows(got.TriplesOfSource, want.TriplesOfSource),
		"ObsOfExtractor": sameRows(got.ObsOfExtractor, want.ObsOfExtractor),
	} {
		if !equal {
			t.Errorf("%s: table %s differs from the record build", what, name)
		}
	}
	gl, wl := labelLists(got), labelLists(want)
	for kind, list := range wl {
		if !slices.Equal(gl[kind], list) {
			t.Errorf("%s: %s labels differ from the record build", what, kind)
		}
	}
	lookups := 0
	for w, label := range wl["Sources"] {
		lookups += btoi(got.SourceID(label) != w)
	}
	for e, label := range wl["Extractors"] {
		lookups += btoi(got.ExtractorID(label) != e)
	}
	for d := range want.Items {
		lookups += btoi(got.ItemID(want.ItemFields(d)) != d)
	}
	for v, label := range wl["Values"] {
		lookups += btoi(got.ValueID(label) != v)
	}
	if got.SourceID("\x00absent") != -1 || got.ExtractorID("\x00absent") != -1 ||
		got.ItemID("\x00absent", "x") != -1 || got.ValueID("\x00absent") != -1 {
		lookups++
	}
	if lookups > 0 {
		t.Errorf("%s: %d lookups differ from the record build", what, lookups)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTableCompileMatchesRecordCompile: a table's build equals the record
// build (Dataset.Compile) of its records bit for bit, every table and every
// lookup, at auto (the table's split-and-merge units against the records'
// labels), website, page, finest and provenance granularity; on the web
// corpus, on skewed corpora whose units merge to the top and split at every
// level, and on labels holding the "\x1f" separator. The tables are read from
// TSV and built by Add.
func TestTableCompileMatchesRecordCompile(t *testing.T) {
	keyed := []struct {
		name     string
		src, ext triple.Grouping
	}{
		{"website", triple.SourceKeyWebsite, triple.ExtractorKeyName},
		{"page", triple.SourceKeyPage, triple.ExtractorKeyName},
		{"finest", triple.SourceKeyFinest, triple.ExtractorKeyFinest},
		{"provenance", triple.ProvenanceKey, triple.ExtractorKeyName},
	}
	corpora := []struct {
		name string
		recs []triple.Record
		m, M int
	}{
		{"web", webCorpus(t, 0.3), 5, 10000},
		{"web-split", webCorpus(t, 0.3), 5, 40},
		{"skewed-top", skewedCorpus(4, 6000), 400, 10000},
		{"skewed-split", skewedCorpus(5, 6000), 5, 6},
		{"colliding", collidingCorpus(6, 3000), 40, 50},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			d := &triple.Dataset{Records: c.recs}
			for name, tab := range tablesOf(t, c.recs) {
				src, srcRep, err := TableSources(tab, c.m, c.M, 9)
				if err != nil {
					t.Fatal(err)
				}
				ext, extRep, err := TableExtractors(tab, c.m, c.M, 9)
				if err != nil {
					t.Fatal(err)
				}
				srcLabels, wantSrcRep, _ := Sources(c.recs, c.m, c.M, 9)
				extLabels, wantExtRep, _ := Extractors(c.recs, c.m, c.M, 9)
				if srcRep != wantSrcRep || extRep != wantExtRep {
					t.Errorf("%s table: reports %v, %v; the records' %v, %v", name, srcRep, extRep, wantSrcRep, wantExtRep)
				}
				requireSameSnapshot(t, name+" table, auto",
					tab.Compile(triple.Grouping{Units: src}, triple.Grouping{Units: ext}),
					d.Compile(triple.CompileOptions{SourceLabels: srcLabels, ExtractorLabels: extLabels}))
				requireSameSnapshot(t, name+" table, finest sources and auto extractors",
					tab.Compile(triple.SourceKeyFinest, triple.Grouping{Units: ext}),
					d.Compile(triple.CompileOptions{SourceKey: triple.SourceKeyFinest, ExtractorLabels: extLabels}))
				for _, k := range keyed {
					requireSameSnapshot(t, name+" table, "+k.name,
						tab.Compile(k.src, k.ext),
						d.Compile(triple.CompileOptions{SourceKey: k.src, ExtractorKey: k.ext}))
				}
			}
		})
	}
}

// TestSplitAndMergeTableMatchesReference: split-and-merge over a table's id
// columns labels every record and reports exactly as the string-keyed
// reference does, for both hierarchies, on the skewed corpora and sizes of
// TestSplitAndMergeMatchesReference.
func TestSplitAndMergeTableMatchesReference(t *testing.T) {
	hierarchies := []struct {
		name   string
		run    func(*triple.Table, int, int, int64) (*triple.Units, Report, error)
		levels []func(triple.Record) string
		shift  int64
	}{
		{"sources", TableSources, referenceSourceLevels, 0},
		{"extractors", TableExtractors, referenceExtractorLevels, extractorSeed},
	}
	for seed := int64(1); seed <= 3; seed++ {
		recs := skewedCorpus(seed, 6000)
		tab := tablesOf(t, recs)["read"]
		for _, h := range hierarchies {
			for _, sz := range []struct{ m, M int }{{0, 10000}, {0, 7}, {400, 10000}, {40, 50}, {5, 6}} {
				units, rep, err := h.run(tab, sz.m, sz.M, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRep := referenceSplitAndMerge(recs, h.levels, sz.m, sz.M, seed+h.shift)
				got := make([]string, len(units.Of))
				for i, u := range units.Of {
					got[i] = units.Labels[u]
				}
				if rep != wantRep || !slices.Equal(got, want) {
					t.Errorf("seed %d %s m=%d M=%d: report %+v, labels equal %v; reference %+v",
						seed, h.name, sz.m, sz.M, rep, slices.Equal(got, want), wantRep)
				}
				if len(units.Labels) != rep.FinalUnits {
					t.Errorf("seed %d %s m=%d M=%d: %d units for %d final units", seed, h.name, sz.m, sz.M, len(units.Labels), rep.FinalUnits)
				}
			}
		}
	}
}

// TestCollidingLabelsShareAUnit pins the label-collision rule the differential
// above holds both builds to: distinct field tuples whose joined labels
// coincide compile to one source, and two items whose keys coincide to one
// item, with the first record's predicate.
func TestCollidingLabelsShareAUnit(t *testing.T) {
	tab := &triple.Table{}
	for _, r := range []triple.Record{
		{Extractor: "E", Website: "a\x1fb", Predicate: "q", Page: "p", Subject: "s\x1fb", Object: "o"},
		{Extractor: "E", Website: "a", Predicate: "b\x1fq", Page: "p", Subject: "s", Object: "o"},
	} {
		tab.Add(r)
	}
	snap := tab.Compile(triple.SourceKeyFinest, triple.ExtractorKeyName)
	labels := labelLists(snap)
	if want := []string{"a\x1fb\x1fq\x1fp"}; !slices.Equal(labels["Sources"], want) {
		t.Errorf("sources %q, want %q", labels["Sources"], want)
	}
	if want := []string{"s\x1fb\x1fq"}; !slices.Equal(labels["Items"], want) || snap.Predicate(int(snap.PredOfItem[0])) != "q" {
		t.Errorf("items %q with predicates %q, want %q of predicate q", labels["Items"], labels["Predicates"], want)
	}
	if len(snap.Obs) != 1 {
		t.Errorf("%d observations, want the two records in one cell", len(snap.Obs))
	}
}
