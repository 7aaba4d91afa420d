package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kbt/internal/synthetic"
	"kbt/internal/triple"
)

// checkSourceVotes is the state's vote invariant as an executable check:
// every kept Stage II vote is bit-equal to SourceVote(a[w], N) times the
// source's weight.
func checkSourceVotes(t *testing.T, tag string, em *EM) {
	t.Helper()
	st := em.st
	if len(st.srcVote) != len(st.a) {
		t.Fatalf("%s: %d kept votes for %d sources", tag, len(st.srcVote), len(st.a))
	}
	for w, a := range st.a {
		want := SourceVote(a, st.opt.N)
		if st.voteWeight != nil {
			want *= st.voteWeight[w]
		}
		if math.Float64bits(st.srcVote[w]) != math.Float64bits(want) {
			t.Fatalf("%s: source %d keeps vote %v, its accuracy %v and weight give %v", tag, w, st.srcVote[w], a, want)
		}
	}
}

// TestSourceVoteInvariant drives every writer of a source's accuracy or vote
// weight — a fresh state, an extension that brings new sources, the Stage III
// M-step, SetSourceVoteWeights (first install, short slices, changed entries)
// and the two bulk carries into a fresh state — in a random order, and checks
// the invariant after each: prepareVotes no longer recomputes the votes, so a
// writer that forgot its source would leave Stage II reading a stale one.
func TestSourceVoteInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opt := DefaultOptions()
	copt := triple.CompileOptions{SourceKey: triple.SourceKeyWebsite, ExtractorKey: triple.ExtractorKeyName}
	groups := 6
	snap := (&triple.Dataset{Records: synthetic.GroupLocalCorpus(0, groups)}).Compile(copt)
	em, err := NewEM(snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkSourceVotes(t, "fresh state", em)

	for step := 0; step < 40; step++ {
		var tag string
		switch op := rng.Intn(4); op {
		case 0:
			tag = "extension"
			snap = snap.Extend(synthetic.GroupLocalCorpus(groups, 2))
			groups += 2
			if em, err = NewEMFrom(em, snap, opt); err != nil {
				t.Fatal(err)
			}
		case 1:
			tag = "iteration"
			cProb := make([]float64, len(snap.Triples))
			valueProb := make([][]float64, len(snap.Items))
			restMass, covered := make([]float64, len(snap.Items)), make([]bool, len(snap.Items))
			em.BeginIteration(true)
			em.EStepTriples(cProb, nil, 1)
			em.EStepItems(cProb, valueProb, restMass, covered, nil, 1)
			em.MStepSources(cProb, valueProb, nil)
			em.MStepExtractors(cProb, nil)
		case 2:
			tag = "vote weights"
			weights := make([]float64, rng.Intn(snap.NumSources()+1))
			for w := range weights {
				weights[w] = 1 - 0.7*rng.Float64()*float64(rng.Intn(2))
			}
			em.SetSourceVoteWeights(weights)
		case 3:
			tag = "carry into a fresh state"
			fresh, err := NewEM(snap, opt)
			if err != nil {
				t.Fatal(err)
			}
			fresh.CarryParamsFrom(em)
			checkSourceVotes(t, fmt.Sprintf("step %d: parameters carried", step), fresh)
			fresh.CarrySourceVoteWeightsFrom(em)
			em = fresh
		}
		checkSourceVotes(t, fmt.Sprintf("step %d: %s", step, tag), em)
	}

	// A longer state carries its prefix, as copy does.
	short, err := NewEM((&triple.Dataset{Records: synthetic.GroupLocalCorpus(0, 1)}).Compile(copt), opt)
	if err != nil {
		t.Fatal(err)
	}
	short.CarryParamsFrom(em)
	checkSourceVotes(t, "carried from a longer state", short)

	// N is an input of every kept vote: NewEMFrom refuses to carry them to another.
	other := opt
	other.N++
	if _, err := NewEMFrom(em, snap, other); err == nil {
		t.Error("NewEMFrom accepted an N other than the one the kept votes were derived from")
	}
}
