package kbt

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kbt/internal/engine"
	"kbt/internal/triple"
)

// Sentinel errors for the lock-free generation queries (CopyDeps, Fused).
// Servers branch on these to pick status codes, so they are part of the API.
var (
	// ErrNoGeneration means no Refresh has published a generation yet.
	ErrNoGeneration = errors.New("kbt: no refresh has completed yet")
	// ErrCopyDetectDisabled means the engine was built without CopyDetect.
	ErrCopyDetectDisabled = errors.New("kbt: copy detection is not enabled on this engine")
	// ErrFusionDisabled means the engine was built without Fusion.
	ErrFusionDisabled = errors.New("kbt: fusion is not enabled on this engine")
	// ErrUnknownItem means the queried data item is not in the fused corpus.
	ErrUnknownItem = errors.New("kbt: unknown data item")
)

// EngineOptions configures NewEngine. Start from DefaultEngineOptions. The
// model knobs mirror Options; the engine additionally takes the shard count
// its refresh statistics count in, and requires a granularity whose source
// units are pure functions of each record (GranularityAuto's split-and-merge
// reassigns units as data grows, so it is only available through the batch
// EstimateKBT).
type EngineOptions struct {
	// Granularity picks the source unit: GranularityWebsite (default),
	// GranularityPage or GranularityFinest. GranularityAuto is rejected.
	Granularity SourceGranularity
	// Shards is the number of item partitions the refresh statistics
	// (RefreshStats' shard counts) count in (default 8). No pass runs shard by
	// shard: a warm refresh re-estimates the items its records and the
	// drifted units touch, whatever the count.
	Shards int

	// DomainSize, Iterations, MinSupport, MinReportableTriples,
	// UseConfidence, AllExtractorsVoteAbsence and Workers have the same
	// meaning as in Options.
	DomainSize               int
	Iterations               int
	MinSupport               int
	MinReportableTriples     float64
	UseConfidence            bool
	AllExtractorsVoteAbsence bool
	Workers                  int

	// Tol declares convergence when no parameter moves by more than this
	// between EM iterations (0 = the core default, 1e-9). Converged
	// refreshes stop early, and a warm Refresh whose ingest barely moves
	// the estimates returns after a single partial pass — production
	// deployments trading a little precision for steady-state refresh
	// latency should raise this to ~1e-4. Iterations and Tol govern the
	// Fusion store too: it stops at the same iteration cap and tolerance.
	Tol float64

	// CopyDetect maintains streaming copy detection across refreshes: each
	// generation publishes the source pairs whose shared mistakes suggest
	// one copies the other (Engine.CopyDeps), and detected copiers' votes
	// are discounted in the next refresh so copied content stops counting
	// as independent corroboration — the ACCU-COPY feedback of the paper's
	// reference [8], maintained incrementally: each refresh re-reads only the
	// items whose evidence crossed a gate or gained a candidate triple.
	CopyDetect bool
	// Fusion maintains the single-layer ACCU baseline (the paper's
	// SINGLELAYER comparison) as a streaming per-item posterior store over
	// the same extraction feed; Engine.Fused serves the fused value
	// posterior of any data item from the current generation.
	Fusion bool
}

// DefaultEngineOptions mirrors DefaultOptions at website granularity.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{
		Granularity:          GranularityWebsite,
		Shards:               8,
		DomainSize:           10,
		Iterations:           5,
		MinSupport:           3,
		MinReportableTriples: 5,
		UseConfidence:        true,
	}
}

// Engine estimates KBT incrementally over a growing stream of extractions:
// Ingest appends evidence, Refresh re-estimates. The first Refresh runs the
// full multi-layer model exactly as EstimateKBT does at the same
// granularity; later Refreshes warm-start from the previous posteriors and
// re-run the first inference pass only over the items sharing a (source,
// predicate) cell with a new record. Safe for concurrent use; the read path (Current, TopSources,
// TopTriples, CopyDeps, Fused, Stats — the embedded view) is lock-free:
// results are published as immutable generations behind an atomic pointer,
// so readers never block a running Refresh and a generation a reader holds
// stays valid across later refreshes.
type Engine struct {
	view

	// keyMu/keys implement IngestKeyed's dedup for the in-memory engine,
	// bounded at the default retention (the most recent 64Ki keys).
	// (DurableEngine keeps its own set, persisted through WAL entries and
	// checkpoint ops.)
	keyMu sync.Mutex
	keys  keyring
}

// NewEngine builds an empty incremental engine.
func NewEngine(opt EngineOptions) (*Engine, error) {
	inner, err := newInner(opt)
	if err != nil {
		return nil, err
	}
	return &Engine{view: view{eng: inner, opt: opt}, keys: keyring{cap: defaultKeyRetention}}, nil
}

// Ingest validates and appends extractions; they take effect at the next
// Refresh. Extractions with empty identity fields, a confidence outside
// [0,1], or that map to an empty source/extractor unit under the engine's
// granularity are rejected with an error, and the whole batch is discarded —
// catching at the door what would otherwise compile into degenerate units
// and silently skew later refreshes.
func (e *Engine) Ingest(batch ...Extraction) error {
	return e.eng.Ingest(records(batch)...)
}

// IngestKeyed is Ingest with a client idempotency key: a batch whose key was
// already applied is acknowledged with nil without re-ingesting, so an
// at-least-once client can resend after an ambiguous failure. An empty key
// is a plain Ingest. The in-memory engine's dedup set lives only as long as
// the process; DurableEngine.IngestKeyed persists its keys across recovery.
func (e *Engine) IngestKeyed(key string, batch ...Extraction) error {
	if key == "" {
		return e.Ingest(batch...)
	}
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	if e.keys.has(key) {
		return nil
	}
	if err := e.Ingest(batch...); err != nil {
		return err
	}
	e.keys.add(key)
	return nil
}

// Refresh re-estimates the model and returns the updated result, with the
// same accessors EstimateKBT's Result provides.
func (e *Engine) Refresh() (*Result, error) { return e.refresh() }

// view is the read side both engines share: the internal engine, set once
// at construction, the options it was built from, and the per-generation
// Result wrapper cache. Every accessor is the internal engine's own
// lock-free generation read, so readers never block a running Refresh,
// DurableEngine's compaction included. Both engines embed it, which makes
// their read method sets identical by construction.
type view struct {
	eng *engine.Engine
	opt EngineOptions
	// cur caches the Result wrapper of the latest published generation, so
	// every reader of a generation shares one set of memoized sorted views.
	cur atomic.Pointer[Result]
}

// newInner builds the internal engine for opt. Option validation and the
// mapping onto the internal engine/core options live in one place —
// EngineOptions.engineOptions in options.go.
func newInner(opt EngineOptions) (*engine.Engine, error) {
	eopt, err := opt.engineOptions()
	if err != nil {
		return nil, err
	}
	return engine.New(eopt), nil
}

// records converts a batch to the internal record form.
func records(batch []Extraction) []triple.Record {
	recs := make([]triple.Record, len(batch))
	for i, x := range batch {
		recs[i] = x.record()
	}
	return recs
}

// Validate checks a batch against the same per-record validation Ingest
// performs, without logging or appending anything: kbt serve uses it to skip
// a bad input line instead of losing the batch around it.
func (v *view) Validate(batch ...Extraction) error {
	return v.eng.Validate(records(batch)...)
}

// Len returns the number of extractions ingested so far.
func (v *view) Len() int { return v.eng.Len() }

// Pending returns the number of extractions awaiting a Refresh.
func (v *view) Pending() int { return v.eng.Pending() }

// refresh re-estimates the internal engine and wraps the generation it
// published.
func (v *view) refresh() (*Result, error) {
	r, err := v.eng.Refresh()
	if err != nil {
		return nil, err
	}
	return v.wrap(r), nil
}

// wrap returns the shared Result wrapper for a published generation,
// building and caching it on first sight. Sharing the wrapper is what
// makes the memoized sorted views per-generation instead of per-call; a
// racing reader that briefly re-wraps the same generation only duplicates
// that memo, never its contents.
func (v *view) wrap(r *engine.Result) *Result {
	cached := v.cur.Load()
	if cached != nil && cached.res == r.Inference {
		return cached
	}
	w := &Result{
		snap:     r.Snapshot,
		res:      r.Inference,
		opt:      Options{MinReportableTriples: v.opt.MinReportableTriples},
		copyDeps: r.CopyDeps,
	}
	// Install only if the cache still holds what we loaded: a reader that
	// raced a Refresh must not evict the newer generation's wrapper (and
	// its warmed memoized views) with an older one.
	v.cur.CompareAndSwap(cached, w)
	return w
}

// Current returns the result of the most recent Refresh without performing
// any estimation work, or false before the first one. The read is
// lock-free: it never blocks a concurrent Refresh, and the returned
// generation stays valid (and internally consistent) after any number of
// later refreshes.
func (v *view) Current() (*Result, bool) {
	r := v.eng.Last()
	if r == nil {
		return nil, false
	}
	return v.wrap(r), true
}

// TopSources returns the k most trustworthy sources of the current
// generation (k <= 0 means all), or false before the first Refresh. See
// Result.TopSources.
func (v *view) TopSources(k int) ([]Source, bool) {
	r, ok := v.Current()
	if !ok {
		return nil, false
	}
	return r.TopSources(k), true
}

// TopTriples returns the k most probable covered triples of the current
// generation (k <= 0 means all), or false before the first Refresh. See
// Result.TopTriples.
func (v *view) TopTriples(k int) ([]TripleVerdict, bool) {
	r, ok := v.Current()
	if !ok {
		return nil, false
	}
	return r.TopTriples(k), true
}

// CopyDeps returns the current generation's copy-dependence list, strongest
// first — the streaming counterpart of Result.DetectCopying, maintained
// incrementally across refreshes instead of recomputed from the corpus. The
// read is lock-free (a single atomic generation load plus a memoized
// conversion shared by every reader of the generation). Returns
// ErrCopyDetectDisabled when the engine was built without CopyDetect, and
// ErrNoGeneration before the first Refresh.
func (v *view) CopyDeps() ([]CopyDependence, error) {
	if !v.opt.CopyDetect {
		return nil, ErrCopyDetectDisabled
	}
	r := v.eng.Last()
	if r == nil {
		return nil, ErrNoGeneration
	}
	w := v.wrap(r)
	w.copyOnce.Do(func() { w.copyView = copyDependences(w.snap, w.copyDeps) })
	return w.copyView, nil
}

// FusedValue is one candidate value of a fused data item.
type FusedValue struct {
	Object      string
	Probability float64
}

// FusedItem is the single-layer fused posterior of one data item: the
// candidate values most probable first, the probability mass left on
// unobserved domain values, and whether any participating provenance covered
// the item at all.
type FusedItem struct {
	Subject, Predicate string
	Values             []FusedValue
	RestMass           float64
	Covered            bool
}

// Fused returns the current generation's fused posterior for one data item,
// identified as "subject|predicate" (the display form used throughout the
// API). The read is lock-free against concurrent refreshes. Returns
// ErrFusionDisabled when the engine was built without Fusion,
// ErrNoGeneration before the first Refresh, and ErrUnknownItem when no such
// item exists in the fused corpus.
func (v *view) Fused(item string) (FusedItem, error) {
	if !v.opt.Fusion {
		return FusedItem{}, ErrFusionDisabled
	}
	r := v.eng.Last()
	if r == nil || r.Fusion == nil || r.FusionSnap == nil {
		return FusedItem{}, ErrNoGeneration
	}
	snap, fres := r.FusionSnap, r.Fusion
	d := resolveItem(snap, item)
	if d < 0 {
		return FusedItem{}, ErrUnknownItem
	}
	subj, pred := snap.ItemFields(d)
	out := FusedItem{
		Subject:   subj,
		Predicate: pred,
		RestMass:  fres.RestMass[d],
		Covered:   fres.CoveredItem[d],
		Values:    make([]FusedValue, 0, len(snap.ItemValues[d])),
	}
	for k, v := range snap.ItemValues[d] {
		out.Values = append(out.Values, FusedValue{
			Object:      snap.Value(v),
			Probability: fres.ValueProb[d][k],
		})
	}
	sort.Slice(out.Values, func(i, j int) bool {
		if out.Values[i].Probability != out.Values[j].Probability {
			return out.Values[i].Probability > out.Values[j].Probability
		}
		return out.Values[i].Object < out.Values[j].Object
	})
	return out, nil
}

// resolveItem maps an item label to its dense id: first the internal
// subject\x1fpredicate form, then every "|" reading of the display form
// (each probe is an O(1) interning lookup, so even pathological labels with
// many '|' characters stay cheap).
func resolveItem(snap *triple.Snapshot, item string) int {
	if subj, pred := triple.SplitItemKey(item); pred != "" {
		if d := snap.ItemID(subj, pred); d >= 0 {
			return d
		}
	}
	for i := 0; i < len(item); i++ {
		if item[i] != '|' {
			continue
		}
		if d := snap.ItemID(item[:i], item[i+1:]); d >= 0 {
			return d
		}
	}
	return -1
}

// RefreshStats describes the work the most recent Refresh performed.
type RefreshStats struct {
	// Warm reports whether the refresh reused the previous posteriors.
	Warm bool
	// NoOp reports that the refresh had nothing to do — no pending
	// extractions, and the estimate and (with Fusion) the fused posteriors
	// already converged — and served the cached result unchanged.
	NoOp bool
	// FirstPassShards of TotalShards were re-estimated in the first EM
	// iteration; a small fraction means the ingest stayed local.
	FirstPassShards, TotalShards int
	// SettledShards is the number of shards no EM iteration of the refresh
	// re-estimated: their cached posteriors were already within the staleness
	// tolerance of the published parameters, so the per-unit drift ledger let
	// the settling sweeps skip them. TotalShards - SettledShards shards were
	// touched at least once; SettledShards == 0 means some unit's drift (or a
	// structural change) forced a full pass.
	SettledShards int
	// PartialShards is the number of touched shards that were only ever
	// re-estimated at sub-shard granularity, through individually marked
	// items — their settled remainder never ran.
	PartialShards int
	// Escalations counts the EM iterations whose E-step widened beyond the
	// ingest footprint to re-anchor shards holding above-tolerance
	// accumulated parameter drift.
	Escalations int
	// Iterations is the number of EM iterations run; Converged reports
	// whether the parameters settled before the iteration cap.
	Iterations int
	Converged  bool
	// AggDeltaSteps / AggFullSteps count the global M-step stage calls that
	// visited the pass's triple list respectively every index.
	AggDeltaSteps, AggFullSteps int
	// CopyPairs is the number of copy dependencies the generation publishes
	// (zero when CopyDetect is off). CopyItems counts the item signatures the
	// copy tracker rebuilt for it: the items whose evidence crossed a gate or
	// gained a candidate triple (zero when CopyDetect is off, and on a NoOp
	// refresh). FusedItems / FusionIterations report the fusion work of the
	// refresh: distinct items re-fused and fusion EM iterations run (zero
	// when Fusion is off, and when the refresh carried converged fused
	// posteriors, as a NoOp refresh does).
	CopyPairs, CopyItems, FusedItems, FusionIterations int
	// CappedRefreshes and CappedFusionRefreshes are cumulative, unlike the
	// fields above: of every refresh the engine has published, how many ran
	// the multi-layer estimate, respectively the fusion pass, and stopped it
	// at the iteration cap unconverged. A layer a refresh carries counts
	// nothing, so a NoOp never does.
	CappedRefreshes, CappedFusionRefreshes int
	// Times is where the refresh's wall time went (zero on a NoOp refresh).
	Times RefreshTimes
}

// RefreshTimes is a refresh's clock. Build, Settle, Layer6 and Publish are its
// phases in order: extending (or compiling) the snapshot and EM state, the
// E/M loop, copy detection with the join of the fusion pass, and building the
// generation. Fuse is the fusion pass's span, which runs beside Build and
// Settle on a goroutine of its own. Votes through Prior split Settle by EM
// stage: vote preparation, Stages I–IV (extraction correctness, triple truth,
// source accuracy, extractor quality with the cold bootstrap) and the Eq 26
// prior.
type RefreshTimes struct {
	Build, Settle, Layer6, Publish, Fuse             time.Duration
	Votes, StageI, StageII, StageIII, StageIV, Prior time.Duration
}

// Stats reports the most recent Refresh, or false before the first one.
func (v *view) Stats() (RefreshStats, bool) {
	r := v.eng.Last()
	if r == nil {
		return RefreshStats{}, false
	}
	capped, cappedFusion := v.eng.CappedRefreshes()
	return RefreshStats{
		Warm:                  r.Warm,
		NoOp:                  r.NoOp,
		FirstPassShards:       r.FirstPassShards,
		TotalShards:           r.TotalShards,
		SettledShards:         r.SettledShards,
		PartialShards:         r.PartialShards,
		Escalations:           r.Escalations,
		Iterations:            r.Inference.Iterations,
		Converged:             r.Inference.Converged,
		AggDeltaSteps:         r.AggDeltaSteps,
		AggFullSteps:          r.AggFullSteps,
		CopyPairs:             r.CopyPairs,
		CopyItems:             r.CopyItems,
		FusedItems:            r.FusedItems,
		FusionIterations:      r.FusionIterations,
		CappedRefreshes:       capped,
		CappedFusionRefreshes: cappedFusion,
		Times:                 refreshTimes(r.Times),
	}, true
}

// refreshTimes flattens the engine's clock into the facade's.
func refreshTimes(t engine.Times) RefreshTimes {
	st := t.Stages
	return RefreshTimes{
		Build: t.Build, Settle: t.Settle, Layer6: t.Layer6, Publish: t.Publish, Fuse: t.Fuse,
		Votes: st.Votes, StageI: st.StageI, StageII: st.StageII, StageIII: st.StageIII, StageIV: st.StageIV, Prior: st.Prior,
	}
}
