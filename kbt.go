// Package kbt estimates Knowledge-Based Trust — the trustworthiness of web
// sources measured by the correctness of the factual information they
// provide — reproducing Dong et al., "Knowledge-Based Trust: Estimating the
// Trustworthiness of Web Sources" (VLDB 2015).
//
// The package is a facade over the internal implementation:
//
//   - Add extraction records (extractor, pattern, website, page, triple,
//     confidence) to a Dataset.
//   - EstimateKBT runs the paper's multi-layer probabilistic model, jointly
//     inferring extraction correctness, triple truth, per-source accuracy
//     (the KBT score) and per-extractor precision/recall.
//   - FuseSingleLayer runs the single-layer ACCU/POPACCU baseline the paper
//     compares against.
//
// Quick start:
//
//	ds := kbt.NewDataset()
//	ds.Add(kbt.Extraction{
//		Extractor: "patterns-v1", Website: "wiki.com", Page: "wiki.com/obama",
//		Subject: "Barack Obama", Predicate: "nationality", Object: "USA",
//	})
//	res, err := kbt.EstimateKBT(ds, kbt.DefaultOptions())
//	if err != nil { ... }
//	for _, s := range res.Sources() {
//		fmt.Println(s.Name, s.KBT, s.Reportable)
//	}
package kbt

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"kbt/internal/copydetect"
	"kbt/internal/core"
	"kbt/internal/fusion"
	"kbt/internal/granularity"
	"kbt/internal/triple"
)

// Extraction is one extracted knowledge triple with provenance — the unit of
// input. A zero Confidence means the extractor gave no confidence and is
// treated as 1.
type Extraction struct {
	Extractor  string  // extraction system, e.g. "patterns-v1"
	Pattern    string  // extraction pattern within the system (optional)
	Website    string  // registrable domain, e.g. "wiki.com"
	Page       string  // full URL, e.g. "wiki.com/page1"
	Subject    string  // entity the fact is about
	Predicate  string  // attribute, e.g. "nationality"
	Object     string  // value, e.g. "USA"
	Confidence float64 // extractor confidence in (0,1]; 0 means 1
}

// Dataset accumulates extractions.
type Dataset struct {
	d *triple.Dataset
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{d: triple.NewDataset()}
}

// record converts the extraction to the internal representation — the single
// field mapping shared by the batch and incremental ingest paths.
func (e Extraction) record() triple.Record {
	return triple.Record{
		Extractor: e.Extractor, Pattern: e.Pattern,
		Website: e.Website, Page: e.Page,
		Subject: e.Subject, Predicate: e.Predicate, Object: e.Object,
		Confidence: e.Confidence,
	}
}

// Add appends one extraction.
func (ds *Dataset) Add(e Extraction) {
	ds.d.Add(e.record())
}

// ReadTSV reads a dataset from the TSV interchange format: one extraction
// per line, 8 tab-separated columns with the last one optional,
//
//	extractor  pattern  website  page  subject  predicate  object  [confidence]
//
// where blank lines and lines starting with '#' are skipped. The first
// malformed line fails the read, by line number. It is the bulk counterpart
// of Add: the parsed records become the dataset as they are.
func ReadTSV(r io.Reader) (*Dataset, error) {
	d, err := triple.ReadTSV(r)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// Len returns the number of extractions added.
func (ds *Dataset) Len() int { return len(ds.d.Records) }

// SourceGranularity selects how web sources are grouped before inference.
type SourceGranularity int

const (
	// GranularityAuto applies the paper's split-and-merge (§4): sources
	// start at ⟨website, predicate, webpage⟩ and are merged/split to sizes
	// within [MinSourceSize, MaxSourceSize]. The default.
	GranularityAuto SourceGranularity = iota
	// GranularityWebsite treats each website as one source.
	GranularityWebsite
	// GranularityPage treats each webpage as one source.
	GranularityPage
	// GranularityFinest uses ⟨website, predicate, webpage⟩ with no merging.
	GranularityFinest
)

// Options configures EstimateKBT. Start from DefaultOptions.
type Options struct {
	// Granularity picks the source unit (see SourceGranularity).
	Granularity SourceGranularity
	// MinSourceSize / MaxSourceSize are the paper's m and M for
	// GranularityAuto (defaults 5 and 10000).
	MinSourceSize, MaxSourceSize int

	// DomainSize is n, the assumed number of false values per data item.
	DomainSize int
	// Iterations bounds the EM loop (paper: 5).
	Iterations int
	// MinSupport excludes sources/extractors with fewer observations from
	// quality re-estimation; their triples may go uncovered.
	MinSupport int
	// MinReportableTriples gates Source.Reportable: a source needs at least
	// this many expected correctly-extracted triples (paper: 5).
	MinReportableTriples float64
	// UseConfidence treats extractor confidences as soft evidence (§3.5).
	UseConfidence bool
	// AllExtractorsVoteAbsence makes every extractor cast an absence vote
	// against triples it did not extract, as in the paper's Example 3.1.
	// The default (false) restricts absence votes to extractors that
	// demonstrably attempted the triple's (source, predicate) — the right
	// semantics when extractors cover only part of the crawl. Enable this
	// when every extractor processed every page.
	AllExtractorsVoteAbsence bool
	// Workers bounds parallelism (0 = all CPUs).
	Workers int
	// Seed drives the randomised split step of GranularityAuto.
	Seed int64
}

// DefaultOptions mirrors the paper's settings.
func DefaultOptions() Options {
	return Options{
		Granularity:          GranularityAuto,
		MinSourceSize:        5,
		MaxSourceSize:        10000,
		DomainSize:           10,
		Iterations:           5,
		MinSupport:           3,
		MinReportableTriples: 5,
		UseConfidence:        true,
	}
}

// Source is one scored web source.
type Source struct {
	// Name is the source-unit label. For GranularityWebsite it is the
	// website; for finer granularities it is the joined feature vector.
	Name string
	// KBT is the estimated accuracy: the probability a fact the source
	// provides is correct.
	KBT float64
	// ExpectedTriples is the expected number of correctly-extracted triples
	// from the source.
	ExpectedTriples float64
	// Reportable is true when the source met the support and
	// MinReportableTriples thresholds, so KBT is trustworthy to publish.
	Reportable bool
}

// TripleVerdict is the posterior for one (subject, predicate, object) triple.
type TripleVerdict struct {
	Subject, Predicate, Object string
	// Probability is p(triple is true | all extractions).
	Probability float64
}

// ExtractorQuality reports one extractor unit's estimated quality.
type ExtractorQuality struct {
	Name              string
	Precision, Recall float64
}

// Result is the outcome of EstimateKBT (and of Engine.Refresh). A Result is
// an immutable view of one estimation generation; the sorted views behind
// Sources, Triples and Extractors are computed once per generation and
// shared by every later call, so repeated reads cost O(1). All methods are
// safe for concurrent use.
type Result struct {
	snap *triple.Snapshot
	res  *core.Result
	opt  Options

	// Memoized sorted views, built lazily once per generation. The ready
	// flags let the partial-selection accessors (TopSources, TopTriples)
	// reuse a built view without forcing the full sort themselves.
	srcOnce  sync.Once
	srcView  []Source
	srcReady atomic.Bool
	triOnce  sync.Once
	triView  []TripleVerdict
	extOnce  sync.Once
	extView  []ExtractorQuality

	// copyDeps carries the generation's streaming copy-dependence list when
	// the result was wrapped from an engine with CopyDetect on (nil from the
	// batch EstimateKBT, whose DetectCopying recomputes on demand); copyView
	// is its memoized public rendering.
	copyDeps []copydetect.Dependence
	copyOnce sync.Once
	copyView []CopyDependence
}

// source assembles the scored view of source unit w.
func (r *Result) source(w int) Source {
	kbtScore, ok := r.res.KBT(w, r.opt.MinReportableTriples)
	return Source{
		Name:            displayLabel(r.snap.Sources[w]),
		KBT:             kbtScore,
		ExpectedTriples: r.res.ExpectedTriplesAt(w),
		Reportable:      ok,
	}
}

// srcLess is the Sources ordering: most trustworthy first, ties by name.
func srcLess(a, b Source) bool {
	if a.KBT != b.KBT {
		return a.KBT > b.KBT
	}
	return a.Name < b.Name
}

// Sources returns all scored sources, most trustworthy first. The slice is
// computed once per Result and shared by every call (and by TopSources) —
// callers must treat it as read-only.
func (r *Result) Sources() []Source {
	r.srcOnce.Do(func() {
		out := make([]Source, 0, len(r.snap.Sources))
		for w := range r.snap.Sources {
			out = append(out, r.source(w))
		}
		sort.Slice(out, func(i, j int) bool { return srcLess(out[i], out[j]) })
		r.srcView = out
		r.srcReady.Store(true)
	})
	return r.srcView
}

// TopSources returns the k most trustworthy sources (the first k entries of
// Sources' ordering) without sorting the whole corpus: when the full sorted
// view has not been built yet, a partial selection over the source list
// costs O(n + k log k). k <= 0 or k >= n returns the full view. The slice
// is shared or freshly selected — treat it as read-only.
func (r *Result) TopSources(k int) []Source {
	n := len(r.snap.Sources)
	if k <= 0 || k >= n {
		return r.Sources()
	}
	if r.srcReady.Load() {
		return r.Sources()[:k:k]
	}
	top := newTopK[Source](k, srcLess)
	for w := 0; w < n; w++ {
		top.offer(r.source(w))
	}
	return top.sorted()
}

// SourceByName looks up one source unit by its label, in either the
// display form ("a|b") or the internal joined form. Resolution goes through
// the snapshot's interning index — O(1), not a scan over all sources.
func (r *Result) SourceByName(name string) (Source, bool) {
	w := r.snap.SourceID(name)
	if w < 0 && strings.ContainsRune(name, '|') {
		// Display labels render the internal \x1f joins as "|".
		w = r.snap.SourceID(strings.ReplaceAll(name, "|", "\x1f"))
		if w < 0 {
			// A '|' in the display form is ambiguous: each one is either a
			// join or a literal character of a label part. The indexed
			// probes covered the all-literal and all-join readings; only a
			// mixed label needs the scan, and only '|'-bearing names can
			// ever reach it.
			for wi, n := range r.snap.Sources {
				if displayLabel(n) == name {
					w = wi
					break
				}
			}
		}
	}
	if w < 0 {
		return Source{}, false
	}
	return r.source(w), true
}

// triLess is the Triples ordering: subject, predicate, then descending
// probability.
func triLess(a, b TripleVerdict) bool {
	if a.Subject != b.Subject {
		return a.Subject < b.Subject
	}
	if a.Predicate != b.Predicate {
		return a.Predicate < b.Predicate
	}
	if a.Probability != b.Probability {
		return a.Probability > b.Probability
	}
	return a.Object < b.Object
}

// topTriLess ranks TopTriples: most probable first, ties by subject,
// predicate, object.
func topTriLess(a, b TripleVerdict) bool {
	if a.Probability != b.Probability {
		return a.Probability > b.Probability
	}
	if a.Subject != b.Subject {
		return a.Subject < b.Subject
	}
	if a.Predicate != b.Predicate {
		return a.Predicate < b.Predicate
	}
	return a.Object < b.Object
}

// forEachVerdict streams every covered candidate triple's verdict to fn.
func (r *Result) forEachVerdict(fn func(TripleVerdict)) {
	for d := range r.snap.Items {
		subj, pred := splitItem(r.snap.Items[d])
		for _, v := range r.snap.ItemValues[d] {
			p, covered := r.res.TripleProb(d, v)
			if !covered {
				continue
			}
			fn(TripleVerdict{
				Subject: subj, Predicate: pred, Object: r.snap.Values[v],
				Probability: p,
			})
		}
	}
}

// Triples returns the posterior for every candidate triple observed in the
// data, ordered by subject, predicate, then descending probability. Like
// Sources, the view is computed once per Result and shared — read-only.
func (r *Result) Triples() []TripleVerdict {
	r.triOnce.Do(func() {
		var out []TripleVerdict
		r.forEachVerdict(func(tv TripleVerdict) { out = append(out, tv) })
		sort.Slice(out, func(i, j int) bool { return triLess(out[i], out[j]) })
		r.triView = out
	})
	return r.triView
}

// TopTriples returns the k most probable covered triples (ties broken by
// subject, predicate, object) by partial selection — O(n + k log k), never
// sorting or materializing the full triple list. k <= 0 returns every
// covered triple in that order.
func (r *Result) TopTriples(k int) []TripleVerdict {
	if k <= 0 {
		out := append([]TripleVerdict(nil), r.Triples()...)
		sort.Slice(out, func(i, j int) bool { return topTriLess(out[i], out[j]) })
		return out
	}
	top := newTopK[TripleVerdict](k, topTriLess)
	r.forEachVerdict(top.offer)
	return top.sorted()
}

// TripleProbability returns p(true) for one specific triple and whether the
// model covered it.
func (r *Result) TripleProbability(subject, predicate, object string) (float64, bool) {
	d := r.snap.ItemID(subject, predicate)
	if d < 0 {
		return 0, false
	}
	v := r.snap.ValueID(object)
	if v < 0 {
		return 0, false
	}
	return r.res.TripleProb(d, v)
}

// Extractors returns the estimated quality of every extractor unit, by
// name. The view is computed once per Result and shared — read-only.
func (r *Result) Extractors() []ExtractorQuality {
	r.extOnce.Do(func() {
		out := make([]ExtractorQuality, 0, len(r.snap.Extractors))
		for e, name := range r.snap.Extractors {
			out = append(out, ExtractorQuality{
				Name:      displayLabel(name),
				Precision: r.res.PAt(e),
				Recall:    r.res.RAt(e),
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		r.extView = out
	})
	return r.extView
}

// EstimateKBT runs the multi-layer model on the dataset.
func EstimateKBT(ds *Dataset, opt Options) (*Result, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("kbt: empty dataset")
	}
	if opt.Iterations < 1 {
		return nil, errors.New("kbt: Iterations must be >= 1")
	}
	if opt.DomainSize < 1 {
		return nil, errors.New("kbt: DomainSize must be >= 1")
	}

	copt := triple.CompileOptions{}
	if opt.Granularity == GranularityAuto {
		m, M := opt.MinSourceSize, opt.MaxSourceSize
		if M <= 0 {
			M = 10000
		}
		if m < 0 || m > M {
			return nil, fmt.Errorf("kbt: invalid source sizes m=%d M=%d", m, M)
		}
		// The two hierarchies are split and merged independently, each with
		// its own random stream, so they run side by side.
		var srcErr, extErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			copt.SourceLabels, _, srcErr = granularity.Sources(ds.d.Records, m, M, opt.Seed)
		}()
		copt.ExtractorLabels, _, extErr = granularity.Extractors(ds.d.Records, m, M, opt.Seed)
		<-done
		if err := cmp.Or(srcErr, extErr); err != nil {
			return nil, err
		}
	} else {
		var ok bool
		copt.SourceKey, copt.ExtractorKey, ok = granularityKeys(opt.Granularity)
		if !ok {
			return nil, fmt.Errorf("kbt: unknown granularity %d", opt.Granularity)
		}
	}
	snap := ds.d.Compile(copt)

	mopt := coreOptions(opt.DomainSize, opt.Iterations, opt.MinSupport,
		opt.UseConfidence, opt.AllExtractorsVoteAbsence)
	mopt.Workers = opt.Workers
	res, err := core.Run(snap, mopt)
	if err != nil {
		return nil, err
	}
	return &Result{snap: snap, res: res, opt: opt}, nil
}

// CopyDependence is one detected pair of sources whose shared mistakes
// suggest one copies the other (§5.4.2 research direction 4; the ACCU-COPY
// test of the paper's reference [8]).
type CopyDependence struct {
	SourceA, SourceB string
	// Posterior is p(dependent | shared values).
	Posterior float64
	// SharedTrue / SharedFalse / Differ are the evidence counts over
	// overlapping data items; SharedFalse is the load-bearing signal.
	SharedTrue, SharedFalse, Differ int
}

// DetectCopying scans the estimation result for source pairs that share
// improbably many false values — scraped or syndicated content whose votes
// should not count as independent corroboration. Pairs are returned
// strongest first.
func (r *Result) DetectCopying() ([]CopyDependence, error) {
	deps, err := copydetect.Detect(r.snap, copydetect.Evidence{
		ValueProb: func(d, v int) float64 {
			p, _ := r.res.TripleProb(d, v)
			return p
		},
		Accuracy: func(w int) float64 { return r.res.AAt(w) },
		Provides: func(ti int) bool { return r.res.CProbAt(ti) >= 0.5 },
	}, copydetect.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return copyDependences(r.snap, deps), nil
}

// copyDependences renders the detector's dense-id pairs with source names.
func copyDependences(snap *triple.Snapshot, deps []copydetect.Dependence) []CopyDependence {
	out := make([]CopyDependence, len(deps))
	for i, d := range deps {
		out[i] = CopyDependence{
			SourceA:    displayLabel(snap.Sources[d.A]),
			SourceB:    displayLabel(snap.Sources[d.B]),
			Posterior:  d.Posterior,
			SharedTrue: d.SharedTrue, SharedFalse: d.SharedFalse, Differ: d.Differ,
		}
	}
	return out
}

// FusionModel selects the single-layer baseline variant.
type FusionModel int

const (
	// Accu assumes uniformly distributed false values (Eq 1).
	Accu FusionModel = iota
	// PopAccu uses the empirical value popularity instead.
	PopAccu
)

// FusionOptions configures FuseSingleLayer.
type FusionOptions struct {
	Model FusionModel
	// DomainSize is n (the paper uses 100 for the single-layer baseline).
	DomainSize int
	// Iterations bounds the EM loop (paper: 5).
	Iterations int
	// MinSupport excludes tiny provenances (see Options.MinSupport).
	MinSupport int
	// UseConfidence weights votes by extraction confidence.
	UseConfidence bool
	// Workers bounds parallelism.
	Workers int
}

// DefaultFusionOptions mirrors the paper's single-layer settings.
func DefaultFusionOptions() FusionOptions {
	return FusionOptions{
		Model:         Accu,
		DomainSize:    100,
		Iterations:    5,
		MinSupport:    3,
		UseConfidence: true,
	}
}

// FusionResult is the outcome of the single-layer baseline.
type FusionResult struct {
	snap *triple.Snapshot
	res  *fusion.Result
}

// TripleProbability returns p(true) for a triple, and whether it was covered.
func (r *FusionResult) TripleProbability(subject, predicate, object string) (float64, bool) {
	d := r.snap.ItemID(subject, predicate)
	if d < 0 {
		return 0, false
	}
	v := r.snap.ValueID(object)
	if v < 0 {
		return 0, false
	}
	return r.res.TripleProb(r.snap, d, v)
}

// Triples returns the posterior for every covered candidate triple.
func (r *FusionResult) Triples() []TripleVerdict {
	var out []TripleVerdict
	for d := range r.snap.Items {
		if !r.res.CoveredItem[d] {
			continue
		}
		subj, pred := splitItem(r.snap.Items[d])
		for k, v := range r.snap.ItemValues[d] {
			out = append(out, TripleVerdict{
				Subject: subj, Predicate: pred, Object: r.snap.Values[v],
				Probability: r.res.ValueProb[d][k],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return triLess(out[i], out[j]) })
	return out
}

// WebsiteAccuracy derives a per-website accuracy from the single-layer
// result by averaging the posterior probability of every triple extracted
// from the website ("SINGLELAYER considers all extracted triples when
// computing source accuracy", §5.2.2). Because the single-layer model
// cannot separate extractor noise from source noise, a noisy extractor
// drags down the apparent accuracy of every site it touches — the weakness
// the multi-layer model removes.
func (r *FusionResult) WebsiteAccuracy() map[string]float64 {
	return fusion.AggregateSourceAccuracy(r.snap, r.res, func(w int) string {
		label := r.snap.Sources[w]
		// Provenance labels are extractor\x1fwebsite\x1fpredicate\x1fpattern.
		first := -1
		for i := 0; i < len(label); i++ {
			if label[i] == '\x1f' {
				if first >= 0 {
					return label[first+1 : i]
				}
				first = i
			}
		}
		if first >= 0 {
			return label[first+1:]
		}
		return label
	})
}

// FuseSingleLayer runs the single-layer ACCU/POPACCU baseline over
// (extractor, website, predicate, pattern) provenances.
func FuseSingleLayer(ds *Dataset, opt FusionOptions) (*FusionResult, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("kbt: empty dataset")
	}
	snap := ds.d.Compile(triple.CompileOptions{
		SourceKey:    triple.ProvenanceKey,
		ExtractorKey: triple.ExtractorKeyName,
	})
	fopt := fusion.DefaultOptions()
	if opt.Model == PopAccu {
		fopt.Model = fusion.PopAccu
	}
	if opt.DomainSize > 0 {
		fopt.N = opt.DomainSize
	}
	if opt.Iterations > 0 {
		fopt.MaxIter = opt.Iterations
	}
	fopt.MinSupport = opt.MinSupport
	fopt.UseConfidence = opt.UseConfidence
	fopt.Workers = opt.Workers
	res, err := fusion.Run(snap, fopt)
	if err != nil {
		return nil, err
	}
	return &FusionResult{snap: snap, res: res}, nil
}

// displayLabel renders internal \x1f-joined unit labels with "|".
func displayLabel(label string) string {
	out := make([]byte, 0, len(label))
	for i := 0; i < len(label); i++ {
		if label[i] == '\x1f' {
			out = append(out, '|')
			continue
		}
		out = append(out, label[i])
	}
	return string(out)
}

func splitItem(key string) (string, string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '\x1f' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
