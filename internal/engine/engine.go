// Package engine is the incremental driver for the multi-layer KBT model —
// the serving-oriented counterpart to the batch core.Run. It is the
// orchestration layer: every number it publishes is computed by the
// internal/core kernels, one core.EM.Iterate call per EM iteration; the
// engine decides which rows they run on.
//
// The engine keeps the snapshot, EM state and posteriors of the previous
// estimation, and runs each Refresh after an Ingest as five phases over one
// refreshRun:
//
//   - begin captures the corpus and the pending records under the state
//     lock, or serves the cached generation when nothing is pending and the
//     previous estimate converged;
//   - buildState extends the previous snapshot (triple.Snapshot.Extend), EM
//     state (core.NewEMFrom) and posterior arrays append-only with the
//     pending records — bit-identical to recompiling the corpus, at a cost
//     proportional to the ingest;
//   - settle runs Algorithm 1's E/M loop over a dirty scope (core.ScopeSet)
//     of marked items: the items sharing a (source, predicate) absence-vote
//     cell with a new record, plus whatever the per-unit staleness ledger
//     (core.EM.EnableStaleness) marks as holding above-Tol accumulated
//     parameter drift — narrow units mark exactly their items, a unit
//     reaching a quarter of the corpus marks the whole corpus. The global
//     M-steps visit exactly the scope's triples, each replacing its cached
//     term in its unit's exact sum (core.Options.IncrementalAggregates), and
//     land on the bits an M-step over every index would;
//   - layer6 brings the streaming copy detector up to the posteriors settle
//     left — re-reading only the items whose evidence crossed a 0.5 gate in
//     an E-step (core.EM.TakeMovedItems) or gained a candidate triple — and
//     joins the refresh of the fusion store, which reads none of the
//     multi-layer state and so has been running on its own goroutine since
//     begin returned — when those layers are on;
//   - publish stores the result as an immutable generation behind an atomic
//     pointer (core.BuildResultFrom): only the dense-id chunks a pass wrote
//     or the ingest grew — posteriors and moved units' parameters alike —
//     are copied out of the working arrays, every other chunk is shared with
//     the previous generation, and readers (Last) never block a running
//     Refresh — a generation a reader holds stays valid and bit-stable across
//     any number of later swaps.
//
// Stages I and II of Algorithm 1 are independent per candidate triple
// respectively per item, so a pass hands the kernels one index list — the
// scope's items in ascending dense-id order with their candidate triples
// (core.EM.CompileScope), or nil, the kernels' "every index" path, when the
// scope is every item — and the internal/parallel pool splits it into
// contiguous blocks: a pass reads the per-item and per-triple arrays once,
// front to back. Stages III and IV (the per-source and per-extractor M-steps)
// stay global but cost only the dirty contributions. A cold Refresh makes
// core.Run's calls and reproduces its posteriors exactly.
//
// Shards (triple.ShardOf over item keys) are only the unit the refresh
// statistics count in (Result.FirstPassShards, TouchedShards, SettledShards,
// PartialShards): no pass, publication or copy-tracker update runs by shard.
//
// The pipeline has one execution mode. Options.FullRecompile and
// Options.FullAggregates select reference implementations of the state phase
// that the fuzz and oracle suites compare the pipeline against; no public
// surface can set them.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kbt/internal/copydetect"
	"kbt/internal/core"
	"kbt/internal/fusion"
	"kbt/internal/triple"
)

// Options configures an Engine. Start from DefaultOptions.
type Options struct {
	// Shards is the number of item partitions (default 8) the refresh
	// statistics count in; neither the E-step's parallelism, publication nor
	// the copy tracker depends on it.
	Shards int
	// Core configures the multi-layer model (default core.DefaultOptions).
	Core core.Options
	// SourceKey and ExtractorKey fix the granularity. They must be pure
	// functions of the record — the split-and-merge "auto" granularity
	// reassigns units as data grows and is not supported incrementally.
	// Defaults: triple.SourceKeyWebsite, triple.ExtractorKeyName.
	SourceKey    triple.SourceKeyFunc
	ExtractorKey triple.ExtractorKeyFunc
	// FullRecompile is a test oracle, not an operating mode: every Refresh
	// rebuilds the snapshot with Dataset.Compile over the whole corpus,
	// rebuilds the EM state from it, aggregates every M-step in full and
	// recounts copy statistics with the batch detector. The pipeline must
	// reproduce it bit for bit — state extension and the M-steps over lists
	// alike — and the fuzz suites hold it to that. Unreachable
	// from the kbt facade and the CLI.
	FullRecompile bool
	// FullAggregates is the second test oracle: the extended-state warm path
	// with no M-step caches, so every global M-step visits every index
	// instead of the pass's list. It matches FullRecompile and the default
	// path to the bit, and isolates the M-steps over lists when one of them
	// does not.
	FullAggregates bool

	// CopyDetect maintains streaming inter-source copy statistics: after
	// every refresh a persistent tracker re-reads the discretised evidence of
	// the items whose evidence crossed a gate in the E-steps or gained a
	// candidate triple, and moves its pair statistics where an item's
	// changed, and the resulting dependence list publishes with the
	// generation (Result.CopyDeps) — integer-exactly what a batch
	// copydetect.Detect over the published evidence would count. Under
	// FullRecompile the batch Detect itself runs every refresh (the
	// bit-exact oracle).
	CopyDetect bool
	// Copy configures the detector; the zero value means
	// copydetect.DefaultOptions().
	Copy copydetect.Options
	// CopyDiscount feeds the detected dependencies back into the E-step:
	// the less-accurate member of each dependent pair keeps only the
	// independent share 1 − CopyRate·p(dependent) of its Stage II vote, so
	// copied mistakes stop counting as corroboration. The weight movement is
	// charged to the staleness ledger (the discounted source's items
	// re-estimate at the next refresh under the usual Tol contract), and a
	// refresh whose discounts moved by ≥ Tol publishes unconverged so the
	// feedback settles instead of being frozen by the NoOp shortcut.
	// Implies CopyDetect.
	CopyDiscount bool
	// Fusion maintains the paper's single-layer fusion baseline (§2.2) as a
	// streaming per-item posterior store over the same record feed, at
	// provenance granularity: each refresh re-fuses only the items the
	// ingest touched plus those whose provenance accuracies drifted beyond
	// the fusion Tol (fusion.Incremental). The fused posteriors publish with
	// the generation (Result.Fusion / Result.FusionSnap).
	Fusion bool
	// Fuse configures fusion; a zero N means fusion.DefaultOptions(). Under
	// FullRecompile or FullAggregates the store runs with full M-step
	// aggregation — the fusion oracle mode.
	Fuse fusion.Options
}

// DefaultOptions returns the engine defaults: 8 shards, website sources,
// per-system extractors, and the paper's model settings.
func DefaultOptions() Options {
	return Options{
		Shards:       8,
		Core:         core.DefaultOptions(),
		SourceKey:    triple.SourceKeyWebsite,
		ExtractorKey: triple.ExtractorKeyName,
	}
}

// Result is the outcome of one Refresh.
type Result struct {
	// Snapshot is the compiled view the inference ran on.
	Snapshot *triple.Snapshot
	// Inference holds the posteriors and parameter estimates, in the same
	// shape core.Run returns.
	Inference *core.Result
	// Warm reports whether the refresh warm-started from a previous one.
	Warm bool
	// Extended reports whether the snapshot was built by extending the
	// previous one (the O(ingest) path) rather than recompiling the corpus.
	// False on a NoOp refresh: no snapshot work happened at all.
	Extended bool
	// NoOp reports that the refresh had nothing to do — no pending records
	// and an already-converged previous estimate — and served the cached
	// result unchanged.
	NoOp bool
	// FirstPassShards is the number of shards the first EM iteration
	// re-estimated (== TotalShards on a cold refresh); TotalShards is the
	// configured shard count.
	FirstPassShards, TotalShards int
	// TouchedShards is the number of distinct shards any EM iteration of the
	// refresh re-estimated, wholly or in part; SettledShards = TotalShards -
	// TouchedShards is the corpus fraction whose cached posteriors were
	// already within the staleness tolerance of the published parameters and
	// never ran. PartialShards counts the touched shards that were only ever
	// re-estimated at sub-shard granularity, through individually marked
	// items — their settled remainder never ran either.
	TouchedShards, SettledShards int
	PartialShards                int
	// Escalations counts the EM iterations whose E-step set had to widen
	// beyond the ingest footprint to re-anchor drift-exceeding units (zero
	// on cold refreshes, where the footprint is everything).
	Escalations int
	// AggDeltaSteps / AggFullSteps count the global M-step stage calls of
	// this refresh that visited the pass's triple list respectively every
	// index (both zero when incremental aggregates are disabled).
	AggDeltaSteps, AggFullSteps int
	// CopyDeps is the generation's copy-dependence list, strongest-first,
	// scored against this generation's posteriors and accuracies (nil unless
	// Options.CopyDetect). CopyPairs = len(CopyDeps). CopyItems counts the
	// item signatures the streaming tracker rebuilt for it (zero without the
	// tracker, and on a NoOp refresh).
	CopyDeps  []copydetect.Dependence
	CopyPairs int
	CopyItems int
	// Fusion / FusionSnap are the generation's single-layer fused posteriors
	// and the provenance-granularity snapshot its dense ids resolve against
	// (nil unless Options.Fusion). FusedItems counts the items this refresh
	// re-fused; FusionIterations its fusion EM iterations (both zero on a
	// NoOp refresh, which carries the previous fusion generation unchanged).
	Fusion           *fusion.Result
	FusionSnap       *triple.Snapshot
	FusedItems       int
	FusionIterations int
	// Times is where the refresh's wall time went (zero on a NoOp refresh).
	Times Times
}

// Times is the refresh's clock: the wall time of its phases and, inside
// settle, of the EM stages (core.StageTimes). Fuse is the fusion pass's span
// on its own goroutine, which runs beside Build and Settle; Layer6 includes
// the wait to join it. Publish is the build of the generation.
type Times struct {
	Build, Settle, Layer6, Publish, Fuse time.Duration
	Stages                               core.StageTimes
}

// Engine accumulates extraction records and re-estimates KBT incrementally.
// All methods are safe for concurrent use; Ingest never blocks on a running
// Refresh (the estimation runs outside the state lock), so a live feed can
// keep streaming while the model re-estimates.
type Engine struct {
	// refreshMu serialises Refresh calls; mu guards the fields below and
	// is held only briefly (Ingest, accessors, Refresh's begin and publish
	// phases). The phases in between work on the copy begin captured.
	refreshMu sync.Mutex
	mu        sync.Mutex
	opt       Options

	// ds holds every record ingested, in order; modelState covers its first
	// estimated records and the rest are pending. Records only append, so the
	// mark is all that tells the two apart.
	ds        *triple.Dataset
	estimated int

	modelState // persisted across refreshes

	// Refresh scratch, owned exclusively by Refresh (serialised by
	// refreshMu) and persisted across refreshes so a steady-state warm
	// refresh re-allocates none of it: the run value the phases share, the
	// E-step scopes (current, successor, and the ingest footprint), the
	// touched-shard masks the shard statistics count, and the item list
	// handed to the copy tracker.
	run                         refreshRun
	scope, scopeNext, scopeBase *core.ScopeSet
	touched, touchedWhole       []bool
	copyIdx                     []int

	// tracker persists the streaming copy-detection statistics across
	// refreshes (nil unless CopyDetect, and nil under FullRecompile, where
	// the batch Detect runs instead). fus persists the streaming fusion
	// store (nil unless Fusion). Both are written only by Refresh under
	// refreshMu.
	tracker *copydetect.Tracker
	fus     *fusion.Incremental

	// last is the published generation, swapped atomically so readers never
	// block a running Refresh and Refresh never waits for readers. Each
	// Result is immutable once stored; generations share unwritten chunks
	// (core.BuildResultFrom), and an old generation a reader still holds
	// stays fully valid after any number of swaps.
	last atomic.Pointer[Result]
}

// New returns an empty engine.
func New(opt Options) *Engine {
	if opt.Shards < 1 {
		opt.Shards = DefaultOptions().Shards
	}
	if opt.SourceKey == nil {
		opt.SourceKey = triple.SourceKeyWebsite
	}
	if opt.ExtractorKey == nil {
		opt.ExtractorKey = triple.ExtractorKeyName
	}
	if opt.CopyDiscount {
		opt.CopyDetect = true
	}
	if opt.CopyDetect && opt.Copy == (copydetect.Options{}) {
		opt.Copy = copydetect.DefaultOptions()
	}
	if opt.Fusion {
		if opt.Fuse.N == 0 {
			opt.Fuse = fusion.DefaultOptions()
		}
		if opt.FullRecompile || opt.FullAggregates {
			opt.Fuse.FullAggregates = true
		}
	}
	return &Engine{opt: opt, ds: triple.NewDataset()}
}

// Ingest validates and appends extraction records. The new evidence takes
// effect at the next Refresh.
//
// Validation happens here, not at Refresh: a malformed record (empty
// identity fields, an out-of-range confidence, or a record the configured
// granularity maps to an empty unit label) would otherwise compile into a
// degenerate source or value and silently skew every later estimate. The
// batch is atomic — on error no record is ingested.
func (e *Engine) Ingest(recs ...triple.Record) error {
	if err := e.Validate(recs...); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ds.Records = append(e.ds.Records, recs...)
	return nil
}

// Validate runs the per-record ingest validation over a batch without
// appending anything — the check side of Ingest, exposed so a line-oriented
// feed can skip a bad record before it batches the good ones.
func (e *Engine) Validate(recs ...triple.Record) error {
	for i := range recs {
		if err := e.validateRecord(recs[i]); err != nil {
			return fmt.Errorf("engine: rejecting ingest batch, record %d: %w", i, err)
		}
	}
	return nil
}

// validateRecord rejects records that cannot compile consistently.
func (e *Engine) validateRecord(r triple.Record) error {
	switch {
	case r.Extractor == "":
		return errors.New("empty Extractor")
	case r.Website == "":
		return errors.New("empty Website")
	case r.Subject == "":
		return errors.New("empty Subject")
	case r.Predicate == "":
		return errors.New("empty Predicate")
	case r.Object == "":
		return errors.New("empty Object")
	}
	if err := triple.CheckConfidence(r.Confidence); err != nil {
		return err
	}
	if e.opt.SourceKey(r) == "" {
		return errors.New("record maps to an empty source label under the configured granularity (missing Page?)")
	}
	if e.opt.ExtractorKey(r) == "" {
		return errors.New("record maps to an empty extractor label under the configured granularity")
	}
	return nil
}

// Len returns the number of records ingested so far.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ds.Records)
}

// Records returns the full ingest-ordered record sequence. The returned
// slice is capped at its length, so a concurrent Ingest appends into fresh
// backing storage rather than aliasing the caller's view — the same
// append-only discipline the snapshot compiler relies on. Used by the
// durable engine to persist its checkpoint image.
func (e *Engine) Records() []triple.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.ds.Records)
	return e.ds.Records[:n:n]
}

// Pending returns the number of records ingested since the last Refresh.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ds.Records) - e.estimated
}

// Last returns the most recent Refresh result, or nil before the first one.
// The read is a single atomic load — it never blocks a running Refresh —
// and the returned generation stays valid indefinitely: later refreshes
// publish new generations instead of mutating it.
func (e *Engine) Last() *Result {
	return e.last.Load()
}

// modelState is what a refresh estimates on and the next one starts from:
// the snapshot, the EM state — index structures, parameters, priors, vote
// caches, M-step aggregates and staleness ledger — and the engine-owned
// posterior arrays. All of it extends append-only with the snapshot
// (triple.Snapshot.Extend, core.NewEMFrom, extendPosteriors), so a warm
// refresh rebuilds none of it from the corpus, and none of it can be derived
// from the rest.
type modelState struct {
	snap        *triple.Snapshot
	em          *core.EM
	cProb       []float64
	valueProb   [][]float64
	restMass    []float64
	coveredItem []bool
}

// refreshRun carries one Refresh through its five phases. A phase reads the
// groups above its own and fills its own; nothing else passes between phases.
// The value lives in Engine.run under refreshMu, so it costs a refresh no
// allocation.
type refreshRun struct {
	// begin: the inputs captured under the state lock. records is the corpus
	// this refresh estimates; prev, the previous refresh's state (zero on a
	// cold run), was built from its first estimated records, and the rest are
	// the pending ones this refresh consumes.
	warm      bool
	records   []triple.Record
	estimated int
	prev      modelState

	// state: the model state the run estimates on, and the core options.
	// extended says the state continues prev's snapshot chain (so the
	// previous generation's chunks may be shared at publication) rather than
	// starting from a fresh compile; structural that an old unit's support
	// crossed its inclusion threshold on the way from prev.
	modelState
	extended   bool
	structural bool
	copt       core.Options

	// settle: what the EM loop did. passItems/passTris are the index lists of
	// the pass about to run (nil: every index); touched/touchedWhole mark the
	// shards any iteration re-estimated at all / as a whole shard.
	voteForce                  bool
	passItems, passTris        []int
	touched, touchedWhole      []bool
	touchedCount, partialCount int
	firstPass, escalations     int
	iterations                 int
	converged                  bool
	aggDelta0, aggFull0        int
	stages0                    core.StageTimes

	// times: the phases' clock, filled as each phase returns.
	times Times

	// layer-6: the generation's copy dependencies and fused posteriors.
	copyDeps   []copydetect.Dependence
	copyItems  int
	fusRes     *fusion.Result
	fusSnap    *triple.Snapshot
	fusedItems int
}

// Refresh re-estimates the model over everything ingested so far and
// publishes the result as a new generation. The first call runs cold —
// identical to core.Run on the full dataset; later calls warm-start from the
// previous refresh and re-estimate only what the new records made stale.
// Calling Refresh with no new records resumes EM from the previous fixed
// point (useful when a prior run stopped at MaxIter before converging).
//
// The refresh is a pipeline of five phases over one refreshRun: begin
// (capture the inputs, or serve the cached generation), buildState (snapshot
// and EM state), settle (Algorithm 1's Stage I–IV loop over the stale
// scope), layer6 (copy detection and fusion) and publish. Only begin and
// publish take the state lock, so Ingest keeps streaming while the model
// estimates; records that arrive meanwhile wait for the next Refresh.
//
// Fusion reads only the records begin captured and its own store, so its half
// of layer6 starts on a goroutine of its own as soon as begin returns and
// runs beside buildState and settle; layer6 joins it.
func (e *Engine) Refresh() (*Result, error) {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	r := &e.run
	defer func() { *r = refreshRun{} }()

	if cached, err := e.begin(r); cached != nil || err != nil {
		return cached, err
	}
	fused := e.startFuse(r)
	// Deferred after the reset above, so on an error return too the fusion
	// pass has ended before the run it reads and fills is cleared.
	defer fused()
	t0 := time.Now()
	if err := e.buildState(r); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := e.settle(r); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if err := e.layer6(r, fused); err != nil {
		return nil, err
	}
	r.times.Build, r.times.Settle, r.times.Layer6 = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return e.publish(r), nil
}

// begin captures the run's inputs under the state lock (fills r's begin
// group). With nothing pending and a converged previous generation the
// estimates are already at the fixed point: begin then returns the generation
// to serve — Iterations 0, NoOp set, the copy and fusion layers carried over
// whole — and the remaining phases do not run. An already-NoOp generation is
// served as the same pointer, keeping reader-side caches keyed on it warm.
func (e *Engine) begin(r *refreshRun) (cached *Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	nRec := len(e.ds.Records)
	if nRec == 0 {
		return nil, errors.New("engine: empty dataset")
	}
	r.warm = e.snap != nil
	if last := e.last.Load(); r.warm && e.estimated == nRec && last != nil && last.Inference.Converged {
		if last.NoOp {
			return last, nil
		}
		inf := *last.Inference
		inf.Iterations = 0
		res := &Result{
			Snapshot:      e.snap,
			Inference:     &inf,
			Warm:          true,
			NoOp:          true,
			TotalShards:   last.TotalShards,
			SettledShards: last.TotalShards,
			CopyDeps:      last.CopyDeps,
			CopyPairs:     len(last.CopyDeps),
			Fusion:        last.Fusion,
			FusionSnap:    last.FusionSnap,
		}
		e.last.Store(res)
		return res, nil
	}
	r.records = e.ds.Records[:nRec:nRec]
	r.estimated = e.estimated
	r.prev = e.modelState
	return nil, nil
}

// pending returns the records this refresh consumes: the ones ingested since
// prev was built.
func (r *refreshRun) pending() []triple.Record { return r.records[r.estimated:] }

// buildState builds what the run estimates on (reads r's begin group, fills
// its state group): the snapshot, the core options, the EM state and the
// posterior arrays. It is the one place that knows the execution mode. By default a warm refresh extends the previous snapshot,
// EM state and posterior arrays append-only — bit-identical to recompiling
// the corpus, at O(ingest) cost — and the M-steps visit the pass's lists.
// The test oracles branch here and nowhere later: FullRecompile compiles the
// corpus, builds a fresh EM state and re-seeds it from the previous one by
// identity; it and FullAggregates keep no M-step caches, so every M-step
// visits every index.
func (e *Engine) buildState(r *refreshRun) error {
	r.extended = r.warm && !e.opt.FullRecompile
	if e.opt.CopyDetect && !e.opt.FullRecompile && !r.extended {
		// A fresh compile starts the copy tracker over, and its option check
		// is the run's last error before the E-steps write the working arrays.
		var err error
		if e.tracker, err = copydetect.NewTracker(e.opt.Copy, e.opt.Shards); err != nil {
			return err
		}
	}
	switch {
	case !r.extended:
		r.snap = (&triple.Dataset{Records: r.records}).Compile(triple.CompileOptions{
			SourceKey:    e.opt.SourceKey,
			ExtractorKey: e.opt.ExtractorKey,
		})
	case len(r.pending()) == 0:
		// Resuming an unconverged run: zero new records means the grown
		// snapshot would be content-identical, so reuse it outright instead
		// of paying Extend's table copies.
		r.snap = r.prev.snap
	default:
		r.snap = r.prev.snap.Extend(r.pending())
	}

	r.copt = e.opt.Core
	r.copt.IncrementalAggregates = !e.opt.FullRecompile && !e.opt.FullAggregates

	var err error
	if r.extended {
		if r.em, err = core.NewEMFrom(r.prev.em, r.snap, r.copt); err != nil {
			return err
		}
		r.structural = r.em.InclusionFlipped()
		r.extendPosteriors()
		return nil
	}
	if r.em, err = core.NewEM(r.snap, r.copt); err != nil {
		return err
	}
	// An extended state carries the previous refresh's ledger with it.
	r.em.EnableStaleness(e.opt.Shards)
	nTri, nItem := len(r.snap.Triples), len(r.snap.Items)
	r.cProb = make([]float64, nTri)
	r.valueProb = make([][]float64, nItem)
	r.restMass = make([]float64, nItem)
	r.coveredItem = make([]bool, nItem)
	if r.warm {
		r.carryOver()
	}
	return nil
}

// settle runs the EM loop (reads r's begin and state groups, updates the EM
// state and posterior arrays in place, fills the settle group). It seeds the
// ingest footprint, then iterates Stages I–IV over the footprint plus
// whatever the staleness ledger marks as carrying above-Tol accumulated
// drift, so settling sweeps confine themselves to the stale fraction and
// shrink back to the footprint as soon as the stale units are re-anchored.
//
// Each iteration is core.Run's (core.EM.Iterate); only the index lists of the
// passes differ, and each index's arithmetic is identical, so a cold run —
// every pass of which is the nil list — reproduces Run's posteriors exactly.
func (e *Engine) settle(r *refreshRun) error {
	nShards, nItems := e.opt.Shards, len(r.snap.Items)
	if e.scope == nil {
		e.scope, e.scopeNext, e.scopeBase = core.NewScopeSet(), core.NewScopeSet(), core.NewScopeSet()
	}
	// base is the ingest's footprint — the exact items whose inputs changed.
	base := e.scopeBase
	base.Reset(nShards, nItems)
	r.stages0 = r.em.StageTimes()
	switch {
	case !r.warm:
		r.em.Bootstrap(r.cProb)
		base.MarkAllFull()
	case len(r.pending()) == 0:
		// Resuming an unconverged run (begin served the converged case): the
		// cached posteriors already reproduce the cached parameters, so a
		// partial pass would measure zero delta and stall. Re-estimate
		// everything to make progress.
		base.MarkAllFull()
	default:
		if err := e.seedFootprint(r, base); err != nil {
			return err
		}
	}
	// Structural changes force one full vote recompute (see iterate).
	r.voteForce = r.warm && (r.structural || len(r.snap.Extractors) != len(r.prev.snap.Extractors))
	e.touched, e.touchedWhole = resized(e.touched, nShards), resized(e.touchedWhole, nShards)
	clear(e.touched)
	clear(e.touchedWhole)
	r.touched, r.touchedWhole = e.touched, e.touchedWhole
	r.aggDelta0, r.aggFull0 = r.em.AggStepCounts()

	// The first pass already consults the ledger: drift carried from earlier
	// refreshes (sub-Tol residue that has since accumulated past Tol, or an
	// unconverged stop) joins the footprint immediately.
	e.enterScope(r, e.nextScope(r, e.scope))
	r.firstPass = e.scope.Len()

	iter := 0
	for iter = 1; iter <= r.copt.MaxIter; iter++ {
		settled := e.iterate(r, iter)
		final := iter >= r.copt.MaxIter
		if final && !settled {
			// The final iteration computes no successor scope: it would never
			// run, and counting it would overstate the touched-shard and
			// escalation stats.
			break
		}
		// Parameters and priors at a fixed point are not enough to converge:
		// a unit whose accumulated drift crossed Tol on this very iteration
		// would be published above the staleness contract (its rows' cached
		// posteriors lag by the sub-Tol entry residue plus this iteration's
		// step), and a following no-pending NoOp refresh would keep serving
		// them. Such units settle first; with none, the published state is
		// strictly within contract.
		stale := e.nextScope(r, e.scopeNext)
		if settled && stale == 0 {
			r.converged = true
			break
		}
		if final {
			// No iterations left to settle the residue: publish unconverged,
			// so the next Refresh resumes with a full pass and re-anchors
			// everything instead of serving the residue indefinitely.
			break
		}
		e.scope, e.scopeNext = e.scopeNext, e.scope
		e.enterScope(r, stale)
	}
	// Iterations counts the EM iterations that actually executed — k when
	// convergence was detected at iteration k, MaxIter when the loop
	// exhausted (the clamp undoes the final loop increment); core.Run
	// reports the identical quantity.
	r.iterations = min(iter, r.copt.MaxIter)

	for si, hit := range r.touched {
		if hit {
			r.touchedCount++
			if !r.touchedWhole[si] {
				r.partialCount++
			}
		}
	}
	return nil
}

// nextScope marks into dst the scope the next pass must cover: the footprint
// plus the items of every unit the ledger marks stale (every item, for a unit
// on a quarter of the corpus). The return
// is how many marks lie beyond the footprint — zero means the scope IS the
// footprint (nothing stale outside it). When the footprint covers everything
// MarkStale could add nothing, and skipping it keeps cold full-pass
// iterations free of ledger walks.
func (e *Engine) nextScope(r *refreshRun, dst *core.ScopeSet) (stale int) {
	dst.Reset(e.opt.Shards, len(r.snap.Items))
	dst.MergeFrom(e.scopeBase)
	if !dst.AllFull() {
		stale = r.em.MarkStale(r.copt.Tol, dst)
	}
	return stale
}

// enterScope readies the pass about to run over e.scope: it compiles the
// scope into the pass's index lists, counts a scope wider than the footprint
// as an escalation, and adds the scope's shards to the run's touched set.
func (e *Engine) enterScope(r *refreshRun, stale int) {
	if stale > 0 {
		r.escalations++
	}
	r.passItems, r.passTris = r.em.CompileScope(e.scope)
	for i := 0; i < e.scope.Len(); i++ {
		si, full := e.scope.At(i)
		r.touched[si] = true
		if full {
			r.touchedWhole[si] = true
		}
	}
}

// iterate runs one EM iteration over the current scope (core.EM.Iterate) and
// reports whether it converged. Warm refreshes start from settled parameters,
// so Eq 26 applies from their first iteration.
//
// Vote publication is per extractor under the same Tol contract as the
// staleness ledger (BeginIteration → selectiveVotes): an extractor's
// published presence/absence votes move only once its own R/Q travel since
// the last publication reaches Tol, which keeps the incremental M-step's
// per-observation caches exactly valid for every vote-stable extractor.
// Cold refreshes recompute every vote every iteration (bit-identical to
// core.Run); so do full-pass iterations, whose M-steps visit every index
// regardless — the recompute is free there and re-anchors the publication
// baselines early — and the first iteration after a structural change.
//
// Stage III charges each source's accuracy movement to the ledger as it
// writes it (extractor movement is charged when votes republish), and the
// next scope widens to exactly the items — or, for a unit on a quarter of the
// corpus, every item — of the units whose accumulated charge crossed Tol.
// Sub-Tol movement keeps the E-step on the ingest footprint; because the
// ledger persists across refreshes, such residue keeps accumulating instead
// of resetting, so many small refreshes cannot compound into an unbounded lag
// between cached posteriors and the published parameters. (An escalated
// pass's Eq 26 refinement can still move clean rows' priors by the settling
// response to a sub-Tol parameter shift; their cached posteriors lag that one
// step until drift next crosses Tol — the Tol-bounded staleness this contract
// accepts.)
func (e *Engine) iterate(r *refreshRun, iter int) (converged bool) {
	refreshVotes := !r.warm || r.voteForce || e.scope.AllFull()
	if refreshVotes {
		r.voteForce = false
	}
	_, converged = r.em.Iterate(r.cProb, r.valueProb, r.restMass, r.coveredItem, core.Pass{
		Iter:         iter,
		Warm:         r.warm,
		RefreshVotes: refreshVotes,
		Items:        r.passItems,
		Tris:         r.passTris,
		Scope:        e.scope,
	})
	return converged
}

// layer6 runs the streaming copy detector off the settled state and joins
// the fusion pass that has been running since begin (reads r's begin, state
// and settle groups, fills the layer-6 group; with CopyDiscount it also sets
// the EM vote weights and may revoke r.converged).
func (e *Engine) layer6(r *refreshRun, fused func() error) error {
	if e.opt.CopyDetect {
		if err := e.detectCopies(r); err != nil {
			return err
		}
	}
	return fused()
}

// startFuse starts the run's fusion pass on its own goroutine, when the layer
// is on, and returns the function that waits for it and reports its error;
// calling it again returns the same. The pass reads r's begin group and writes
// only the fusion fields of its layer-6 group, which nothing else touches
// before the join. A refresh that fails in another phase leaves the store one
// batch ahead of the engine; the next refresh offers it the same pending
// records again, which Snapshot.Extend merges as duplicate cells.
func (e *Engine) startFuse(r *refreshRun) (join func() error) {
	if !e.opt.Fusion {
		return func() error { return nil }
	}
	var wg sync.WaitGroup
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		err = e.fuse(r)
		r.times.Fuse = time.Since(t0)
	}()
	return func() error {
		wg.Wait()
		return err
	}
}

// detectCopies scores copy dependence against exactly the posteriors this
// generation publishes: it brings the tracker up to the evidence of the items
// whose discretised evidence may have moved (trackerItems; every other item's
// signature is what the tracker already holds), then scores. Under
// FullRecompile the batch detector recounts the corpus instead — the bit-exact
// oracle for the tracker.
func (e *Engine) detectCopies(r *refreshRun) (err error) {
	snap, em, cProb, valueProb := r.snap, r.em, r.cProb, r.valueProb
	ev := copydetect.Evidence{
		ValueProb: func(d, v int) float64 {
			vs := snap.ItemValues[d]
			if k := sort.SearchInts(vs, v); k < len(vs) && vs[k] == v {
				return valueProb[d][k]
			}
			return 0
		},
		Accuracy: func(w int) float64 { return em.A()[w] },
		Provides: func(ti int) bool { return cProb[ti] >= 0.5 },
	}
	if e.opt.FullRecompile {
		if r.copyDeps, err = copydetect.Detect(snap, ev, e.opt.Copy); err != nil {
			return err
		}
	} else {
		items := e.trackerItems(r)
		e.tracker.UpdateItems(snap, ev, items)
		r.copyItems = len(items)
		r.copyDeps = e.tracker.Dependencies(ev.Accuracy)
	}
	if !e.opt.CopyDiscount {
		return nil
	}
	// Feed the dependencies back as Stage II vote discounts. The ledger
	// charges each source's weight movement to it, and a movement of ≥ Tol
	// anywhere revokes convergence: the published posteriors predate the new
	// weights, so the NoOp shortcut must not freeze them — the next Refresh
	// re-estimates the charged sources' items under the updated discounts
	// until the feedback settles.
	em.SetSourceVoteWeights(copyWeights(len(snap.Sources), r.copyDeps, em.A(), e.opt.Copy.CopyRate))
	if r.converged {
		// Probe with an empty scope: any mark means a discount moved some
		// unit's drift past Tol.
		e.scopeNext.Reset(e.opt.Shards, len(snap.Items))
		if em.MarkStale(r.copt.Tol, e.scopeNext) > 0 {
			r.converged = false
		}
	}
	return nil
}

// trackerItems lists, ascending and once each, the items whose signature the
// copy tracker must rebuild. A run on a fresh compile lists every item (its
// tracker is new, see buildState). An extended run lists the items the
// E-steps marked as moving a gate since the previous take
// (core.EM.TakeMovedItems) and the items of the extension's new candidate
// triples, which can enter a signature without crossing anything — a new
// triple starts at the prior Alpha, already provided when Alpha ≥ 0.5. No
// error return lies between the E-steps and this take, and the marks persist
// in the EM state until it, so no refresh loses one.
func (e *Engine) trackerItems(r *refreshRun) []int {
	items := r.em.TakeMovedItems(e.copyIdx[:0])
	switch {
	case !r.extended:
		items = items[:0]
		for d := range r.snap.Items {
			items = append(items, d)
		}
	case r.snap != r.prev.snap:
		delta, _ := r.snap.ParentDelta()
		n := len(items)
		for _, tr := range r.snap.Triples[delta.Triples:] {
			items = append(items, tr.D)
		}
		if len(items) > n {
			slices.Sort(items)
			items = slices.Compact(items)
		}
	}
	e.copyIdx = items
	return items
}

// fuse refreshes the fusion store. It runs off the same record feed but owns
// its provenance-granularity snapshot chain and drift ledger — it reads
// nothing from the multi-layer state, so it can run beside the phases that
// build and settle that state (startFuse), and its output is exactly what the
// standalone streaming store would publish for this corpus.
func (e *Engine) fuse(r *refreshRun) (err error) {
	if e.fus == nil {
		fopt := e.opt.Fuse
		if fopt.Workers == 0 {
			fopt.Workers = e.opt.Core.Workers
		}
		if e.fus, err = fusion.NewIncremental(fopt, triple.CompileOptions{}); err != nil {
			return err
		}
	}
	if r.fusRes, err = e.fus.Refresh(r.records, r.pending()); err != nil {
		return err
	}
	r.fusSnap = e.fus.Snapshot()
	r.fusedItems = e.fus.FusedLast()
	return nil
}

// publish builds the new generation from r, stores it behind the atomic
// pointer and persists the run's state for the next warm start. The
// generation is built copy-on-write against the previous one: only the
// chunks the EM marked as written, or that grew, are copied out of the
// working arrays; everything else is shared. r.extended is what makes the
// share sound — the previous generation was built on the same snapshot
// chain, and the marks were cleared when it was published, so an unmarked
// chunk's working values are bit-identical to its published copy. A run on a
// fresh compile builds every chunk and sums ExpectedTriples afresh.
func (e *Engine) publish(r *refreshRun) *Result {
	var prevInf *core.Result
	if prevLast := e.last.Load(); r.extended && prevLast != nil {
		prevInf = prevLast.Inference
	}
	aggDelta, aggFull := r.em.AggStepCounts()
	r.times.Stages = r.em.StageTimes().Sub(r.stages0)
	t0 := time.Now()
	res := &Result{
		Snapshot: r.snap,
		Inference: r.em.BuildResultFrom(prevInf, r.cProb, r.valueProb, r.restMass, r.coveredItem,
			r.iterations, r.converged),
		Warm:            r.warm,
		Extended:        r.extended,
		FirstPassShards: r.firstPass,
		TotalShards:     e.opt.Shards,
		TouchedShards:   r.touchedCount,
		SettledShards:   e.opt.Shards - r.touchedCount,
		PartialShards:   r.partialCount,
		Escalations:     r.escalations,
		AggDeltaSteps:   aggDelta - r.aggDelta0,
		AggFullSteps:    aggFull - r.aggFull0,
		CopyDeps:        r.copyDeps,
		CopyPairs:       len(r.copyDeps),
		CopyItems:       r.copyItems,
		Fusion:          r.fusRes,
		FusionSnap:      r.fusSnap,
		FusedItems:      r.fusedItems,
	}
	if r.fusRes != nil {
		res.FusionIterations = r.fusRes.Iterations
	}
	res.Times = r.times
	res.Times.Publish = time.Since(t0)

	// Records that arrived while estimating stay pending.
	e.mu.Lock()
	defer e.mu.Unlock()
	e.modelState = r.modelState
	e.estimated = len(r.records)
	e.last.Store(res)
	return res
}

// resized returns buf with length n and unspecified content, growing its
// backing array geometrically: the corpus gains a few rows every refresh, and
// an exact fit would reallocate the scratch on each one.
func resized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// extendPosteriors grows prev's posterior arrays in place into the run's for
// an extended snapshot, reading what changed from its triple.Delta: new
// candidate triples start from the Alpha prior, new items from empty rows (the
// first E-step fills them — every new item is in the dirty set by
// construction), and the grown items have their row remapped to the shifted
// slots. Everything already in place carries over untouched, so the work is
// proportional to the ingest. The remap writes outside the EM's publication
// marks; it is sound because a grown item shares a cell with a pending
// record, so the first pass re-estimates it and marks its chunk.
func (r *refreshRun) extendPosteriors() {
	snap, prev := r.snap, r.prev.snap
	r.cProb, r.valueProb, r.restMass, r.coveredItem = r.prev.cProb, r.prev.valueProb, r.prev.restMass, r.prev.coveredItem
	if snap == prev {
		return // resume on the identical snapshot
	}
	delta, _ := snap.ParentDelta()
	for ti := delta.Triples; ti < len(snap.Triples); ti++ {
		r.cProb = append(r.cProb, r.copt.Alpha)
	}
	for _, d := range delta.GrownItems {
		r.valueProb[d] = remapRow(snap.ItemValues[d], prev.ItemValues[d], r.valueProb[d])
	}
	for d := delta.Items; d < len(snap.Items); d++ {
		r.valueProb = append(r.valueProb, nil)
		r.restMass = append(r.restMass, 0)
		r.coveredItem = append(r.coveredItem, false)
	}
}

// carryOver seeds the freshly built EM state and posterior arrays of a
// FullRecompile run from the previous refresh: parameters by stable dense id,
// per-triple prior and correctness posterior by (w,d,v) identity, and
// per-item value posteriors by value id. (The default path needs none of
// this — core.NewEMFrom carries the state itself.)
func (r *refreshRun) carryOver() {
	em, snap, prev, prevEM := r.em, r.snap, r.prev.snap, r.prev.em
	r.structural = inclusionChanged(prevEM.SourceIncluded(), em.SourceIncluded()) ||
		inclusionChanged(prevEM.ExtractorIncluded(), em.ExtractorIncluded())
	em.CarryParamsFrom(prevEM)
	em.CarryVotesFrom(prevEM)
	em.CarryStalenessFrom(prevEM)
	em.CarrySourceVoteWeightsFrom(prevEM)

	prior, odds := em.Prior(), em.COdds()
	oldPrior, oldOdds := prevEM.Prior(), prevEM.COdds()
	oldTriple := make(map[triple.TripleRef]int, len(prev.Triples))
	for ti, tr := range prev.Triples {
		oldTriple[tr] = ti
	}
	for ti, tr := range snap.Triples {
		if oti, ok := oldTriple[tr]; ok {
			prior[ti] = oldPrior[oti]
			r.cProb[ti] = r.prev.cProb[oti]
			odds[ti] = oldOdds[oti]
		} else {
			r.cProb[ti] = r.copt.Alpha
		}
	}

	for d := range r.valueProb {
		if d >= len(prev.Items) {
			r.valueProb[d] = make([]float64, len(snap.ItemValues[d]))
			continue
		}
		r.valueProb[d] = remapRow(snap.ItemValues[d], prev.ItemValues[d], r.prev.valueProb[d])
		r.restMass[d] = r.prev.restMass[d]
		r.coveredItem[d] = r.prev.coveredItem[d]
	}
}

// remapRow carries an item's value posteriors over to a grown candidate-value
// list (both lists ascend by value id); values the old list lacked start at 0.
func remapRow(newVs, oldVs []int, oldRow []float64) []float64 {
	row := make([]float64, len(newVs))
	j := 0
	for k, v := range newVs {
		for j < len(oldVs) && oldVs[j] < v {
			j++
		}
		if j < len(oldVs) && oldVs[j] == v && j < len(oldRow) {
			row[k] = oldRow[j]
		}
	}
	return row
}

// seedFootprint marks the items the first warm iteration must re-estimate
// into base: every item sharing a (source, predicate) cell with a pending
// record — new items, new candidate values, raised confidences and changed
// absence masses all live in those cells — resolved through the ledger's
// cell index in O(footprint), never by scanning the corpus. Structural
// changes with global reach (a support threshold flipping a unit's
// inclusion, or new extractors under ScopeAllExtractors, whose absence mass
// is corpus-wide) escalate to every item. A pending record that fails to
// resolve against the extended snapshot is an invariant violation — the
// ingest/extension contract guarantees every pending record compiled — and
// is surfaced as an error rather than silently absorbed as a full pass.
func (e *Engine) seedFootprint(r *refreshRun, base *core.ScopeSet) error {
	em, snap := r.em, r.snap
	if r.structural ||
		e.opt.Core.Scope == core.ScopeAllExtractors && len(snap.Extractors) > len(r.prev.snap.Extractors) {
		base.MarkAllFull()
		return nil
	}
	for i, rec := range r.pending() {
		w := snap.SourceID(e.opt.SourceKey(rec))
		d := snap.ItemID(rec.Subject, rec.Predicate)
		if w < 0 || d < 0 || !em.MarkCellItems(w, snap.PredOfItem[d], base) {
			return fmt.Errorf("engine: pending record %d (source %q, item %q/%q) did not compile into the refreshed snapshot; the append-only extension invariant is broken",
				i, e.opt.SourceKey(rec), rec.Subject, rec.Predicate)
		}
	}
	return nil
}

// inclusionChanged reports whether a unit of the old mask sits on the other
// side of its support threshold in cur, the mask of a grown snapshot.
func inclusionChanged(old, cur []bool) bool {
	for i := range old {
		if old[i] != cur[i] {
			return true
		}
	}
	return false
}

// copyWeights derives the Stage II vote discounts from the dependence list.
// ACCU-COPY's orientation heuristic: within a dependent pair the member with
// the lower estimated accuracy is the likely copier (ties break to the
// higher dense id — the later-arriving source) and keeps only the
// independent share 1 − copyRate·p(dependent) of its vote, compounding over
// all of its dependencies. Sources in no dependence keep weight 1.
func copyWeights(nSrc int, deps []copydetect.Dependence, a []float64, copyRate float64) []float64 {
	w := make([]float64, nSrc)
	for i := range w {
		w[i] = 1
	}
	for _, dep := range deps {
		copier := dep.B
		if a[dep.A] < a[dep.B] {
			copier = dep.A
		}
		w[copier] *= 1 - copyRate*dep.Posterior
	}
	return w
}
