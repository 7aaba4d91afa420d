package core

import (
	"math"

	"kbt/internal/stats"
)

// This file keeps the term caches behind the stage III/IV M-steps and the
// grouping both stages run on.
//
// The global M-steps of Algorithm 1 are sums of per-index terms: source
// accuracy (Eq 27/28) sums a (num, den) pair over the source's candidate
// triples, and extractor precision/recall (Eqs 29-33) sum a numerator over the
// extractor's observations and a correctness mass over the triples of the
// (source, predicate) cells the extractor attempts, kept per attempt set
// (state.setC; the confidence masses are state.pDen). Every
// sum is an exact stats.Sum, a function of its multiset of terms alone, so
// each M-stage is one body: a loop over the indices its call visited, grouped
// by unit, where a visited index replaces its cached term in its unit's sum
// (a unit visited whole starts from zero), then a derivation of every unit it
// touched. A call over a list costs O(list) and lands on the bits a call over
// every index would.
//
// A call visits every index when its list is nil, when there are no valid
// caches to honour a list with (Options.IncrementalAggregates off, a fresh
// state, an inclusion flip), or when the list names at least half the triples
// (aggState.visitsAll). One more case visits a unit whole: under
// Options.LeaveOneOut an observation's numerator term depends on its
// extractor's own presence/absence votes, so an extractor whose votes moved
// since its terms were cached has every observation stale.
//
// A list must name every candidate triple whose Stage I/II outputs (cProb,
// value posterior slots, coverage) or effective confidence changed since the
// previous M-step call, each at most once; the engine passes exactly the
// scope it re-estimated.

// aggState holds the term caches and per-unit sums of the stage III/IV
// M-steps.
type aggState struct {
	// valid reports, per M-stage, whether its caches have been filled by a
	// call over every index; cleared on structural changes (inclusion flips).
	valid [2]bool

	// Stage III: per-source (num, den) sums and per-triple terms.
	aNum, aDen   []stats.Sum
	aNumC, aDenC []float64

	// Stage IV: per-extractor numerator sums, the per-observation numerator
	// terms, and the votes they were computed with (NaN until first filled,
	// which never compares equal).
	eNum        []stats.Sum
	obsNumC     []float64
	preAt, abAt []float64

	// Correctness mass: the per-triple covered-gated term and the
	// per-extractor recall denominator, the sum of the extractor's attempt
	// sets' masses (state.setC).
	cCov []float64
	rDen []stats.Sum

	// exp is the per-source Σ p(C|X) of the last BuildResultFrom publication
	// (nil before one), expF its float mirror, expDirty the mirror's marks.
	exp      []stats.Sum
	expF     []float64
	expDirty []uint32

	// listSteps / wholeSteps count the M-stage calls that honoured a list
	// respectively visited every index, for diagnostics.
	listSteps, wholeSteps int
}

func newAggState(nSrc, nExt, nTri, nObs int) *aggState {
	ag := &aggState{}
	ag.growTo(nSrc, nExt, nTri, nObs)
	return ag
}

// growTo extends every per-index array to the new table sizes, preserving
// existing entries. New preAt/abAt entries are NaN so a vote comparison can
// never mistake them for cached.
func (ag *aggState) growTo(nSrc, nExt, nTri, nObs int) {
	ag.aNum = grow(ag.aNum, nSrc, stats.Sum{})
	ag.aDen = grow(ag.aDen, nSrc, stats.Sum{})
	ag.aNumC = grow(ag.aNumC, nTri, 0)
	ag.aDenC = grow(ag.aDenC, nTri, 0)
	ag.cCov = grow(ag.cCov, nTri, 0)
	ag.eNum = grow(ag.eNum, nExt, stats.Sum{})
	ag.rDen = grow(ag.rDen, nExt, stats.Sum{})
	ag.preAt = grow(ag.preAt, nExt, math.NaN())
	ag.abAt = grow(ag.abAt, nExt, math.NaN())
	ag.obsNumC = grow(ag.obsNumC, nObs, 0)
}

// The M-stages, by the index of their caches' validity.
const (
	stageSources = iota
	stageExtractors
)

// visitsAll reports whether a call of the given M-stage over tis visits every
// one of the n triples — filling the stage's caches — and counts the call. It
// does when tis is nil, when there are no valid caches to honour a list with
// (always without caches), and when tis names at least half the triples:
// replacing a term costs a subtraction beside the addition, after a serial
// grouping, so such a list costs more than summing every term from zero.
// That last rule chooses the scope only — both scopes derive the same bits.
func (ag *aggState) visitsAll(stage int, tis []int, n int) bool {
	if ag == nil {
		return true
	}
	whole := tis == nil || !ag.valid[stage] || 2*len(tis) >= n
	if whole {
		ag.wholeSteps++
		ag.valid[stage] = true
	} else {
		ag.listSteps++
	}
	return whole
}

// groups buckets the indices an M-stage call visits by unit in O(visited +
// units touched): a counting sort whose per-unit arrays persist and reset
// only for the units a call touches, so a narrow call allocates nothing once
// warm. A call runs reset, touch or add, place, then tasks.
type groups struct {
	gen   int32
	mark  []int32    // the gen of the call that last touched the unit
	at    []int32    // the unit's count, then its next slot in idx, then its span's end
	whole []bool     // the call visits the unit whole (cleared by tasks)
	units []int      // the touched units, in first-touch order: their spans follow one another
	added [][2]int32 // the (unit, index) pairs add took, in order
	idx   []int      // the visited indices, unit by unit
}

// reset starts a call over n units.
func (g *groups) reset(n int) *groups {
	g.mark, g.at, g.whole = grow(g.mark, n, 0), grow(g.at, n, 0), grow(g.whole, n, false)
	g.gen++
	g.units = g.units[:0]
	return g
}

// touch adds unit u to the call's units, visited whole if whole.
func (g *groups) touch(u int, whole bool) {
	if g.mark[u] != g.gen {
		g.mark[u], g.at[u] = g.gen, 0
		g.units = append(g.units, u)
	}
	if whole {
		g.whole[u] = true
	}
}

// add visits index i of unit u.
func (g *groups) add(u, i int) {
	g.touch(u, false)
	g.at[u]++
	g.added = append(g.added, [2]int32{int32(u), int32(i)})
}

// place lays the visited indices out unit by unit.
func (g *groups) place() {
	var n int32
	for _, u := range g.units {
		n, g.at[u] = n+g.at[u], n
	}
	g.idx = grow(g.idx, int(n), 0)
	for _, p := range g.added {
		g.idx[g.at[p[0]]] = int(p[1])
		g.at[p[0]]++
	}
	g.added = g.added[:0]
}

// span returns the visited indices of the k-th touched unit.
func (g *groups) span(k int) []int {
	var lo int32
	if k > 0 {
		lo = g.at[g.units[k-1]]
	}
	return g.idx[lo:g.at[g.units[k]]]
}

// tasks appends Stage IV's tasks for the touched units, and counts their
// observations: a unit's visited observations — all[u] when it is visited
// whole — in blocks of at most obsBlock. A unit with none still gets a task,
// so it is derived.
func (g *groups) tasks(tasks []obsTask, all [][]int) (_ []obsTask, work int) {
	for k, u := range g.units {
		obs, whole := g.span(k), g.whole[u]
		if g.whole[u] = false; whole {
			obs = all[u]
		}
		work += len(obs)
		for lo := 0; lo == 0 || lo < len(obs); lo += obsBlock {
			tasks = append(tasks, obsTask{e: u, lo: lo, obs: obs[lo:min(lo+obsBlock, len(obs))], whole: whole})
		}
	}
	return tasks, work
}

// grow extends s to length n, filling the new entries.
func grow[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}
