package core

import (
	"math"
	"slices"
	"testing"

	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// chunkAddr returns the address of a chunk's first element, for sharing
// assertions.
func chunkAddr(v unitVec[float64], ci int) *float64 { return &v.chunks[ci][0] }

func TestBuildUnitVecSharesCleanChunks(t *testing.T) {
	n := 2*unitChunk + 7
	work := make([]float64, n)
	for i := range work {
		work[i] = float64(i)
	}
	dirty := make([]uint32, numUnitChunks(n))
	base := buildUnitVec(unitVec[float64]{}, work, dirty)
	if base.Len() != n || base.At(0) != 0 || base.At(n-1) != float64(n-1) {
		t.Fatalf("base vec wrong: len=%d", base.Len())
	}

	// No writes: every chunk shared.
	same := buildUnitVec(base, work, dirty)
	for ci := range same.chunks {
		if chunkAddr(same, ci) != chunkAddr(base, ci) {
			t.Fatalf("clean chunk %d was copied", ci)
		}
	}

	// One dirtied chunk: only it is copied.
	work[unitChunk+3] = -1
	markUnit(dirty, unitChunk+3)
	next := buildUnitVec(base, work, dirty)
	if chunkAddr(next, 0) != chunkAddr(base, 0) || chunkAddr(next, 2) != chunkAddr(base, 2) {
		t.Fatal("clean chunks were copied")
	}
	if chunkAddr(next, 1) == chunkAddr(base, 1) {
		t.Fatal("dirty chunk was shared")
	}
	if next.At(unitChunk+3) != -1 || base.At(unitChunk+3) != float64(unitChunk+3) {
		t.Fatal("copy-on-write leaked into the previous generation")
	}

	// Growth: the boundary chunk re-copies via the length test even with a
	// clear mark; whole chunks before it stay shared.
	clear(dirty)
	grown := append(work, 1, 2, 3)
	gv := buildUnitVec(base, grown, dirty)
	if chunkAddr(gv, 0) != chunkAddr(base, 0) || chunkAddr(gv, 1) != chunkAddr(base, 1) {
		t.Fatal("full chunks not shared across growth")
	}
	if len(gv.chunks[2]) != 10 || gv.At(n+2) != 3 {
		t.Fatalf("boundary chunk not extended: len=%d", len(gv.chunks[2]))
	}
}

// publishFixture is an EM over a group-local corpus, published once cold and
// then extended with new groups, its posterior arrays grown as the engine
// grows them: the state a narrow warm refresh publishes from.
type publishFixture struct {
	em                 *EM
	snap               *triple.Snapshot
	cProb, restMass    []float64
	valueProb          [][]float64
	covered            []bool
	gen0, deep0        *Result
	newItems, newTris  []int
	prevItems, prevTri int
}

func newPublishFixture(tb testing.TB, groups, newGroups int) *publishFixture {
	tb.Helper()
	copt := triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}
	opt := DefaultOptions()
	opt.IncrementalAggregates = true
	f := &publishFixture{snap: (&triple.Dataset{Records: synthetic.GroupLocalCorpus(0, groups)}).Compile(copt)}
	var err error
	if f.em, err = NewEM(f.snap, opt); err != nil {
		tb.Fatal(err)
	}
	nTri, nItem := len(f.snap.Triples), len(f.snap.Items)
	f.cProb, f.restMass = make([]float64, nTri), make([]float64, nItem)
	f.valueProb, f.covered = make([][]float64, nItem), make([]bool, nItem)
	f.em.Bootstrap(f.cProb)
	f.pass(nil, nil)
	f.gen0, f.deep0 = f.publish(nil), f.deep()

	// New groups bring new items and sites only, so the arrays just append.
	f.prevItems, f.prevTri = nItem, nTri
	f.snap = f.snap.Extend(synthetic.GroupLocalCorpus(groups, newGroups))
	if f.em, err = NewEMFrom(f.em, f.snap, opt); err != nil {
		tb.Fatal(err)
	}
	for d := nItem; d < len(f.snap.Items); d++ {
		f.newItems = append(f.newItems, d)
		f.valueProb, f.restMass, f.covered = append(f.valueProb, nil), append(f.restMass, 0), append(f.covered, false)
	}
	for ti := nTri; ti < len(f.snap.Triples); ti++ {
		f.newTris = append(f.newTris, ti)
		f.cProb = append(f.cProb, opt.Alpha)
	}
	return f
}

// pass runs one EM iteration over items and their triples tris (nil: all).
func (f *publishFixture) pass(items, tris []int) {
	f.em.BeginIteration(items == nil)
	f.em.EStepTriples(f.cProb, tris, 0)
	f.em.EStepItems(f.cProb, f.valueProb, f.restMass, f.covered, items, 0)
	f.em.MStepSources(f.cProb, f.valueProb, tris)
	f.em.MStepExtractors(f.cProb, tris)
}

func (f *publishFixture) publish(prev *Result) *Result {
	return f.em.BuildResultFrom(prev, f.cProb, f.valueProb, f.restMass, f.covered, 1, false)
}

func (f *publishFixture) deep() *Result {
	return f.em.BuildResult(f.cProb, f.valueProb, f.restMass, f.covered, 1, false)
}

// posteriorChunks lists, per triple chunk and per item chunk of r, the
// storage address of every posterior array's chunk.
func posteriorChunks(r *Result) (tri, item [][]any) {
	for ci := range r.cProb.chunks {
		tri = append(tri, []any{&r.cProb.chunks[ci][0], &r.coveredTriple.chunks[ci][0]})
	}
	for ci := range r.rows {
		item = append(item, []any{&r.restMass.chunks[ci][0], &r.coveredItem.chunks[ci][0], &r.rows[ci].off[0]})
	}
	return tri, item
}

// assertSharing requires that chunk ci of cur share every array's storage
// with prev exactly when want[ci].
func assertSharing(t *testing.T, tag string, prev, cur [][]any, want []bool) {
	t.Helper()
	if len(cur) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", tag, len(cur), len(want))
	}
	for ci, addrs := range cur {
		for k, a := range addrs {
			if shared := ci < len(prev) && prev[ci][k] == a; shared != want[ci] {
				t.Fatalf("%s: chunk %d array %d shared %v, want %v", tag, ci, k, shared, want[ci])
			}
		}
	}
}

// unwritten reports, per chunk of an n-id space grown from prevN ids, whether
// no id of listed lies in it and the growth did not reach it.
func unwritten(listed []int, prevN, n int) []bool {
	keep := make([]bool, numUnitChunks(n))
	for ci := range keep {
		keep[ci] = (ci+1)*unitChunk <= prevN
	}
	for _, i := range listed {
		keep[i/unitChunk] = false
	}
	return keep
}

// assertSameResult compares every posterior of two results bit for bit.
func assertSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.NumTriples() != want.NumTriples() || got.NumItems() != want.NumItems() {
		t.Fatalf("%s: sizes %d/%d, want %d/%d", tag, got.NumTriples(), got.NumItems(), want.NumTriples(), want.NumItems())
	}
	for ti := 0; ti < want.NumTriples(); ti++ {
		if got.CProbAt(ti) != want.CProbAt(ti) || got.CoveredTripleAt(ti) != want.CoveredTripleAt(ti) {
			t.Fatalf("%s: triple %d differs", tag, ti)
		}
	}
	for d := 0; d < want.NumItems(); d++ {
		if got.RestMassAt(d) != want.RestMassAt(d) || got.CoveredItemAt(d) != want.CoveredItemAt(d) ||
			!slices.Equal(got.ValueRow(d), want.ValueRow(d)) {
			t.Fatalf("%s: item %d differs", tag, d)
		}
	}
}

// TestPublishSharesUnwrittenChunks pins the O(written) copy that the bitwise
// publication checks cannot see: a narrow warm refresh shares with the
// previous generation exactly the posterior chunks its pass did not list and
// the tail growth did not reach, a full pass shares none, and every older
// generation reads back unchanged.
func TestPublishSharesUnwrittenChunks(t *testing.T) {
	f := newPublishFixture(t, 400, 2)
	if numUnitChunks(f.prevItems) < 3 {
		t.Fatalf("%d items: the corpus must span several chunks", f.prevItems)
	}
	// The new groups' items and one old group's, mid-corpus.
	items := append([]int{800, 801, 802, 803}, f.newItems...)
	var tris []int
	for _, d := range items {
		tris = append(tris, ints(f.snap.TriplesOfItem[d])...)
	}
	slices.Sort(tris)
	f.pass(items, tris)
	gen1, deep1 := f.publish(f.gen0), f.deep()

	tri0, item0 := posteriorChunks(f.gen0)
	tri1, item1 := posteriorChunks(gen1)
	wantTri, wantItem := unwritten(tris, f.prevTri, len(f.snap.Triples)), unwritten(items, f.prevItems, len(f.snap.Items))
	if !slices.Contains(wantTri, true) || !slices.Contains(wantItem, true) {
		t.Fatal("the narrow pass must leave chunks to share")
	}
	assertSharing(t, "narrow pass, triples", tri0, tri1, wantTri)
	assertSharing(t, "narrow pass, items", item0, item1, wantItem)

	f.pass(nil, nil)
	gen2, deep2 := f.publish(gen1), f.deep()
	tri2, item2 := posteriorChunks(gen2)
	assertSharing(t, "full pass, triples", tri1, tri2, make([]bool, len(tri2)))
	assertSharing(t, "full pass, items", item1, item2, make([]bool, len(item2)))

	assertSameResult(t, "generation 0", f.gen0, f.deep0)
	assertSameResult(t, "generation 1", gen1, deep1)
	assertSameResult(t, "generation 2", gen2, deep2)
}

func TestInheritMarks(t *testing.T) {
	prevN := unitChunk + 10
	n := 2*unitChunk + 1
	src := []uint32{0, 1}
	dst := make([]uint32, numUnitChunks(n))
	inheritMarks(dst, src, prevN, n)
	if dst[0] != 0 {
		t.Error("fully copied clean chunk should inherit clean")
	}
	if dst[1] != 1 || dst[2] != 1 {
		t.Error("boundary and new chunks must be dirty")
	}
	// Equal sizes: everything inherits, including the short tail chunk.
	dst2 := make([]uint32, 2)
	inheritMarks(dst2, src, prevN, prevN)
	if dst2[0] != 0 || dst2[1] != 1 {
		t.Errorf("equal-size inherit wrong: %v", dst2)
	}
}

func TestSliceAndCopyVec(t *testing.T) {
	vals := []float64{1, 2, 3}
	sv := sliceVec(vals)
	cv := copyVec(vals)
	vals[1] = math.Pi
	if sv.At(1) != math.Pi {
		t.Error("sliceVec must alias the caller's slice")
	}
	if cv.At(1) != 2 {
		t.Error("copyVec must not alias the caller's slice")
	}
}
