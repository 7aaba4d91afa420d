package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestMStepShuffledDirtyListMatchesFull: the delta M-steps fed a dirty list in
// any order leave the parameters the ascending list leaves, bit for bit, and
// both equal a full aggregation (a nil list) over the same posteriors. The
// sufficient statistics are exact sums, so neither the order of the
// subtract-and-add updates nor the path can move a bit — under both absence
// scopes, with the votes frozen (the delta loop) and refreshed (every
// extractor's vote-shift rescan).
func TestMStepShuffledDirtyListMatchesFull(t *testing.T) {
	s := compileBlocks(t)
	// A partial pass over every third item, as a warm engine refresh runs.
	var items, tis []int
	for d := range s.Items {
		if d%3 == 0 {
			items = append(items, d)
			tis = append(tis, s.TriplesOfItem[d]...)
		}
	}
	slices.Sort(tis)
	shuffled := slices.Clone(tis)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	for _, scope := range []AbsenceScope{ScopeAttemptedSources, ScopeAllExtractors} {
		for _, refresh := range []bool{false, true} {
			tag := fmt.Sprintf("scope=%d refreshVotes=%v", scope, refresh)
			opt := DefaultOptions()
			opt.Scope = scope
			opt.IncrementalAggregates = true
			run := func(dirty []int) *EM {
				em, err := NewEM(s, opt)
				if err != nil {
					t.Fatal(err)
				}
				nItem := len(s.Items)
				cProb := make([]float64, len(s.Triples))
				valueProb, restMass, covered := make([][]float64, nItem), make([]float64, nItem), make([]bool, nItem)
				em.Bootstrap(cProb)
				em.Iterate(cProb, valueProb, restMass, covered, Pass{Iter: 1, RefreshVotes: true})
				// Move every prior, then re-estimate a third of the items
				// under them.
				em.UpdatePrior(valueProb, nil, 0)
				em.BeginIteration(refresh)
				em.EStepTriples(cProb, tis, 0)
				em.EStepItems(cProb, valueProb, restMass, covered, items, 0)
				delta0, full0 := em.AggStepCounts()
				em.MStepSources(cProb, valueProb, dirty)
				em.MStepExtractors(cProb, dirty)
				delta1, full1 := em.AggStepCounts()
				if dirty != nil && delta1-delta0 != 2 || dirty == nil && full1-full0 != 2 {
					t.Fatalf("%s: the M-steps took %d delta and %d full paths", tag, delta1-delta0, full1-full0)
				}
				return em
			}
			asc := run(tis)
			for _, c := range []struct {
				name string
				em   *EM
			}{{"shuffled", run(shuffled)}, {"full", run(nil)}} {
				for _, v := range []struct {
					name      string
					got, want []float64
				}{
					{"A", c.em.st.a, asc.st.a}, {"P", c.em.st.p, asc.st.p},
					{"R", c.em.st.r, asc.st.r}, {"Q", c.em.st.q, asc.st.q},
				} {
					for i := range v.want {
						if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
							t.Fatalf("%s: %s list: %s[%d] = %v, ascending list %v", tag, c.name, v.name, i, v.got[i], v.want[i])
						}
					}
				}
			}
		}
	}
}
