package core

import (
	"math"

	"kbt/internal/stats"
)

// AbsenceScope controls which extractors contribute absence votes (Eq 13)
// for a candidate triple they did not extract, and symmetrically which
// candidate triples appear in an extractor's recall denominator (Eq 30).
type AbsenceScope int

const (
	// ScopeAttemptedSources counts, for a triple (w,d,v), only the
	// extractors that extracted at least one triple from the (source,
	// predicate) cell of (w,d) — the triples the extractor demonstrably
	// attempts. This keeps a pattern that only ever extracts nationality
	// facts from casting absence votes against a site's birth-place facts,
	// which matters at the fine extractor granularity of §5.1.2 where each
	// extractor unit is pinned to one (pattern, predicate, website).
	ScopeAttemptedSources AbsenceScope = iota
	// ScopeAllExtractors counts every (included) extractor in the dataset,
	// matching the arithmetic of Example 3.1 where all five extractors vote
	// on every candidate triple.
	ScopeAllExtractors
)

// Options configures a multi-layer run. Start from DefaultOptions; the zero
// value is invalid.
type Options struct {
	// N is the assumed number of false values per data item (|dom|=N+1).
	// The paper's multi-layer experiments use N=10.
	N int
	// Gamma is γ = p(C_wdv=1) used when deriving Q from P and R (Eq 7).
	Gamma float64
	// Alpha is the initial prior p(C_wdv = 1) = α (§3.3.1). The paper's
	// examples use 0.5, but γ and α name the same quantity, so the default
	// here is γ = 0.25; on corpora where extraction errors outnumber
	// provided triples (as in KV, where they are "far more prevalent than
	// source errors"), α = 0.5 overcommits to candidate triples being
	// provided and can push source accuracies below ½, after which the
	// prior re-estimation of Eq 26 inverts.
	Alpha float64
	// MaxIter bounds Algorithm 1's iterations (paper: 5).
	MaxIter int
	// Tol declares convergence when no parameter moves by more than this.
	Tol float64

	// InitAccuracy, InitRecall, InitQ are the default parameter values
	// (paper: A=0.8, R=0.8, Q=0.2); the initial precision is derived by
	// inverting Eq 7.
	InitAccuracy float64
	InitRecall   float64
	InitQ        float64

	// AccuracyClamp bounds re-estimated source accuracies to
	// [1-AccuracyClamp, AccuracyClamp]. Unclamped, a mostly-correct source
	// drifts to A≈1, the re-estimated prior of Eq 26 then assigns its
	// minority false claims α≈0, the Ĉ gate drops them, and the source
	// ends up disowning its own errors at exactly 1.0. The clamp keeps the
	// feedback bounded; 0.95 still lands in Figure 7's top histogram bin.
	AccuracyClamp float64

	// LeaveOneOut removes each extraction's own vote from p(C_wdv|X) when
	// re-estimating its extractor's precision and recall (Eqs 29-33). The
	// plain estimator lets an extraction certify itself: its presence vote
	// raises p(C), which raises the extractor's precision, which raises the
	// presence vote — a self-confirming ratchet that drives P̂ to 1 on
	// sparse data. With leave-one-out, precision measures how often other
	// evidence corroborates the extractor, which is the quantity Eq 29 is
	// after.
	LeaveOneOut bool

	// QFloor bounds Q_e away from zero during re-estimation. Without it,
	// an overestimated precision drives Q towards zero through Eq 7, the
	// presence vote log(R/Q) explodes, every extracted triple is declared
	// provided, and the precision overestimate becomes self-confirming.
	// The paper's extractors never drop below Q=0.01 (Table 3).
	QFloor float64
	// Smoothing is the pseudo-count added to the precision/recall M-steps
	// (anchored at 1/2), keeping estimates for small extractor units away
	// from the degenerate 0/1 boundary.
	Smoothing float64

	// InitialSourceAccuracy, InitialExtractorPrecision and
	// InitialExtractorRecall seed per-unit parameters (the "+" variants that
	// initialise quality from a gold standard, §5.1.2). Keys are snapshot
	// ids; unknown ids keep defaults.
	InitialSourceAccuracy     map[int]float64
	InitialExtractorPrecision map[int]float64
	InitialExtractorRecall    map[int]float64
	// InitialExtractorQ overrides the Q derived from precision/recall for
	// specific extractors (the worked examples fix Q directly).
	InitialExtractorQ map[int]float64

	// MinSourceSupport and MinExtractorSupport exclude units with fewer
	// observations than the threshold: their quality stays at the default
	// and they neither vote nor get re-estimated, which reduces coverage
	// (the Cov metric). 0 or 1 disables exclusion.
	MinSourceSupport    int
	MinExtractorSupport int

	// WeightedVote enables the improved estimator of §3.3.3: value votes and
	// accuracy updates are weighted by p(C|X) instead of thresholding the
	// MAP estimate Ĉ. Disabling it reproduces the "p(Vd|Ĉd)" ablation row
	// of Table 6.
	WeightedVote bool
	// UpdatePrior enables re-estimating p(C_wdv=1) from the previous
	// iteration's value posterior (§3.3.4, Eq 26). Disabling it reproduces
	// the "Not updating α" ablation row of Table 6.
	UpdatePrior bool
	// UpdatePriorFromIter is the first iteration that uses the re-estimated
	// prior (paper: the third, §5.1.2).
	UpdatePriorFromIter int

	// UseConfidence treats extractor confidences as soft evidence (§3.5).
	// When false together with BinarizeAt >= 0, observations are thresholded
	// at BinarizeAt (the "p(C|I(X>φ))" ablation row of Table 6).
	UseConfidence bool
	// BinarizeAt, when >= 0 and UseConfidence is false, converts confidence
	// c into 1 if c > BinarizeAt else 0. A value < 0 with UseConfidence
	// false treats every observation as confidence 1.
	BinarizeAt float64

	// Scope picks the absence-vote universe; see AbsenceScope.
	Scope AbsenceScope

	// FreezeSources / FreezeExtractors skip the corresponding M-steps,
	// keeping initial parameters fixed. Used by the worked-example tests and
	// available for semi-supervised runs.
	FreezeSources    bool
	FreezeExtractors bool

	// DisableBootstrap turns off the extractor-quality bootstrap. By
	// default, Run performs one M-step for (P,R,Q) from the prior
	// p(C)=Alpha before the first iteration, so per-unit recall reflects
	// the data rather than the optimistic defaults. Without it, fine
	// extractor granularities start from R=0.8/Q=0.2 absence votes strong
	// enough to collapse the first E-step beyond recovery. The bootstrap is
	// skipped automatically when extractors are frozen or explicitly
	// initialised.
	DisableBootstrap bool

	// IncrementalAggregates keeps the stage III/IV terms and their per-unit
	// sums (per-source accuracy sums, per-extractor precision/recall sums and
	// the per-cell correctness mass) across M-step calls, so an M-step over
	// the triple list of an iteration whose E-steps touched a subset costs
	// O(list) instead of O(corpus): each listed term replaces its cached one
	// (see aggregates.go). The sums are exact, so a call over a list derives
	// the bits a call over every index would. Without it there are no caches
	// and every M-step call visits every index. Used by the incremental
	// engine; off by default.
	IncrementalAggregates bool

	// Workers is the parallelism for the inference stages (0 = GOMAXPROCS).
	Workers int
}

// DefaultOptions returns the paper's multi-layer settings (§5.1.2).
func DefaultOptions() Options {
	return Options{
		N:                   10,
		Gamma:               0.25,
		Alpha:               0.25,
		MaxIter:             5,
		Tol:                 1e-9,
		InitAccuracy:        0.8,
		InitRecall:          0.8,
		InitQ:               0.2,
		AccuracyClamp:       0.95,
		LeaveOneOut:         true,
		QFloor:              0.005,
		Smoothing:           1,
		MinSourceSupport:    1,
		MinExtractorSupport: 1,
		WeightedVote:        true,
		UpdatePrior:         true,
		UpdatePriorFromIter: 3,
		UseConfidence:       true,
		BinarizeAt:          -1,
		Scope:               ScopeAttemptedSources,
	}
}

// WithSharedKnobs returns o with the cross-layer model knobs applied — the
// single mapping every public surface (the batch estimator, the incremental
// engine, the durable server) funnels through, so a shared knob is wired
// here once instead of once per layer.
func (o Options) WithSharedKnobs(domainSize, iterations, minSupport int, useConfidence, allExtractorsVoteAbsence bool) Options {
	o.N = domainSize
	o.MaxIter = iterations
	o.MinSourceSupport = minSupport
	o.MinExtractorSupport = minSupport
	o.UseConfidence = useConfidence
	if allExtractorsVoteAbsence {
		o.Scope = ScopeAllExtractors
	} else {
		o.Scope = ScopeAttemptedSources
	}
	return o
}

// PresenceVote returns Pre_e = log R - log Q (Eq 12), the vote an extractor
// casts for a triple it extracts.
func PresenceVote(r, q float64) float64 {
	return math.Log(stats.ClampProb(r)) - math.Log(stats.ClampProb(q))
}

// AbsenceVote returns Abs_e = log(1-R) - log(1-Q) (Eq 13), the vote an
// extractor casts against a triple it does not extract.
func AbsenceVote(r, q float64) float64 {
	return math.Log1p(-stats.ClampProb(r)) - math.Log1p(-stats.ClampProb(q))
}

// QFromPR derives Q_e from precision, recall and γ (Eq 7):
// Q = γ/(1-γ) · (1-P)/P · R, clamped to a valid probability.
func QFromPR(p, r, gamma float64) float64 {
	p = stats.ClampProb(p)
	r = stats.ClampProb(r)
	gamma = stats.ClampProb(gamma)
	return stats.ClampProb(gamma / (1 - gamma) * (1 - p) / p * r)
}

// PFromQR inverts Eq 7 to recover the precision implied by Q, R and γ:
// P = γR / (γR + (1-γ)Q).
func PFromQR(q, r, gamma float64) float64 {
	q = stats.ClampProb(q)
	r = stats.ClampProb(r)
	gamma = stats.ClampProb(gamma)
	return stats.ClampProb(gamma * r / (gamma*r + (1-gamma)*q))
}

// SourceVote returns VCV(w) = log(n·A/(1-A)) (Eq 19), the vote a source
// casts for a value it provides.
func SourceVote(a float64, n int) float64 {
	a = stats.ClampProb(a)
	return math.Log(float64(n)*a) - math.Log1p(-a)
}
