package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kbt/internal/triple"
)

// extendRecords draws a corpus whose splits into batches exercise every event
// an extension handles: low unit ids are common and high ones rare, so a rare
// source or extractor crosses its support threshold in a later batch; few
// subjects, predicates and objects make later batches re-extract known triples
// through other extractors, add values to known items, and repeat a record at
// a higher confidence.
func extendRecords(rng *rand.Rand, n int) []triple.Record {
	skew := func(k int) int { return rng.Intn(rng.Intn(k) + 1) }
	recs := make([]triple.Record, n)
	for i := range recs {
		site := fmt.Sprintf("site%02d.com", skew(12))
		recs[i] = triple.Record{Extractor: fmt.Sprintf("E%d", skew(6)), Website: site, Page: site + "/x",
			Subject: fmt.Sprintf("S%02d", rng.Intn(30)), Predicate: fmt.Sprintf("p%d", rng.Intn(3)),
			Object: fmt.Sprintf("v%d", rng.Intn(4)), Confidence: []float64{0.3, 0.6, 0.9}[rng.Intn(3)]}
	}
	return recs
}

// TestExtendedStateMatchesFreshBuild pins the one-builder contract: a state
// extended batch by batch over a random split of a corpus, with no EM
// iteration between the extensions, equals NewEM over each step's snapshot
// field for field, under both absence scopes, with and without incremental
// aggregates and a staleness ledger; so does a same-snapshot NewEMFrom. The
// splits re-extract known triples (the TripleIndex fallback), grow known
// items, raise confidences and flip old units' inclusion (the structural
// rebuild), and the test checks that each happened.
func TestExtendedStateMatchesFreshBuild(t *testing.T) {
	copts := triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}
	var reExtracted, grown, raised, flipped int
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		recs := extendRecords(rng, 400)
		cuts := []int{0, len(recs)}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			cuts = append(cuts, 1+rng.Intn(len(recs)-1))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		for variant := 0; variant < 8; variant++ {
			opt := DefaultOptions()
			opt.Scope = []AbsenceScope{ScopeAttemptedSources, ScopeAllExtractors}[variant%2]
			opt.IncrementalAggregates = variant&2 != 0
			ledger := variant&4 != 0
			opt.MinSourceSupport, opt.MinExtractorSupport = 3, 4
			fresh := func(s *triple.Snapshot) *EM {
				em, err := NewEM(s, opt)
				if err != nil {
					t.Fatal(err)
				}
				if ledger {
					em.EnableStaleness()
				}
				return em
			}
			s := (&triple.Dataset{Records: recs[:cuts[1]]}).Compile(copts)
			em := fresh(s)
			for step := 2; step < len(cuts); step++ {
				tag := fmt.Sprintf("trial %d, scope %d, aggregates %v, ledger %v, step %d",
					trial, opt.Scope, opt.IncrementalAggregates, ledger, step-1)
				prev := s
				s = s.Extend(recs[cuts[step-1]:cuts[step]])
				var err error
				if em, err = NewEMFrom(em, s, opt); err != nil {
					t.Fatal(err)
				}
				sameBuild(t, tag, em.st, fresh(s).st)
				if em, err = NewEMFrom(em, s, opt); err != nil {
					t.Fatal(err)
				}
				if em.InclusionFlipped() {
					t.Fatalf("%s: extending by nothing flipped an inclusion", tag)
				}
				sameBuild(t, tag+", extended by nothing", em.st, fresh(s).st)
				if variant == 0 {
					d, _ := s.ParentDelta()
					for _, o := range s.Obs[d.Obs:] {
						if s.TripleIndex(int(o.W), int(o.D), int(o.V)) < d.Triples {
							reExtracted++
						}
					}
					grown += len(d.GrownItems)
					raised += len(d.RaisedObs)
					was, is := fresh(prev).st, fresh(s).st
					if !slices.Equal(was.srcIncluded, is.srcIncluded[:d.Sources]) ||
						!slices.Equal(was.extIncluded, is.extIncluded[:d.Extractors]) {
						flipped++
					}
				}
			}
		}
	}
	if reExtracted == 0 || grown == 0 || raised == 0 || flipped == 0 {
		t.Fatalf("fixture: %d re-extractions, %d grown items, %d raised confidences, %d inclusion flips; want each", reExtracted, grown, raised, flipped)
	}
}

// sameBuild fails unless got's index structures, confidences, parameters,
// priors, attempt sets and ledger indexes equal want's. Set ids follow
// interning order, so sets compare by members; an extended state also keeps
// the sets its cells moved through, so an extractor's sets compare as the
// ones some cell is in.
func sameBuild(t *testing.T, tag string, got, want *state) {
	t.Helper()
	check := func(what string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: %s differs from a fresh build's", tag, what)
		}
	}
	check("tripleOfObs", slices.Equal(got.tripleOfObs, want.tripleOfObs))
	check("obsE", slices.Equal(got.obsE, want.obsE))
	check("slotOfTriple", slices.Equal(got.slotOfTriple, want.slotOfTriple))
	check("cellOfTriple", slices.Equal(got.cellOfTriple, want.cellOfTriple))
	check("coveredTriple", slices.Equal(got.coveredTriple, want.coveredTriple))
	check("srcIncluded", slices.Equal(got.srcIncluded, want.srcIncluded))
	check("extIncluded", slices.Equal(got.extIncluded, want.extIncluded))
	check("pDen", slices.Equal(got.pDen, want.pDen))
	for _, v := range []struct {
		name      string
		got, want []float64
	}{
		{"conf", got.conf, want.conf}, {"A", got.a, want.a}, {"P", got.p, want.p}, {"R", got.r, want.r},
		{"Q", got.q, want.q}, {"alpha", got.alpha, want.alpha}, {"cOdds", got.cOdds, want.cOdds},
	} {
		check(v.name, slices.EqualFunc(v.got, v.want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }))
	}
	check("agg presence", (got.agg == nil) == (want.agg == nil))

	check("cell count", got.numCells == want.numCells && len(got.setOfCell) == len(want.setOfCell))
	occupied := make([]bool, len(got.setMembers))
	for c := range want.setOfCell {
		occupied[got.setOfCell[c]] = true
		check(fmt.Sprintf("cell %d's attempt set", c), slices.Equal(got.setMembers[got.setOfCell[c]], want.setMembers[want.setOfCell[c]]))
	}
	check("extractor count", len(got.cellsOfExtractor) == len(want.cellsOfExtractor) && len(got.setsOfExtractor) == len(want.setsOfExtractor))
	for e := range want.cellsOfExtractor {
		check(fmt.Sprintf("extractor %d's cells", e), slices.Equal(sorted(got.cellsOfExtractor[e]), sorted(want.cellsOfExtractor[e])))
		var gotSets, wantSets []string
		for _, set := range got.setsOfExtractor[e] {
			check(fmt.Sprintf("extractor %d's membership of set %d", e, set), slices.Contains(got.setMembers[set], int32(e)))
			if occupied[set] || set == 0 {
				gotSets = append(gotSets, fmt.Sprint(got.setMembers[set]))
			}
		}
		for _, set := range want.setsOfExtractor[e] {
			wantSets = append(wantSets, fmt.Sprint(want.setMembers[set]))
		}
		check(fmt.Sprintf("extractor %d's sets", e), slices.Equal(sorted(gotSets), sorted(wantSets)))
	}

	check("ledger presence", (got.ledger == nil) == (want.ledger == nil))
	if got.ledger != nil {
		check("triplesOfCell", slices.EqualFunc(got.ledger.triplesOfCell, want.ledger.triplesOfCell, slices.Equal[[]int32]))
	}
}

// sorted returns a sorted copy of s.
func sorted[T int | int32 | string](s []T) []T { return slices.Sorted(slices.Values(s)) }
