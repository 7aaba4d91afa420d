package kbt

import (
	"errors"
	"fmt"

	"kbt/internal/core"
	"kbt/internal/engine"
	"kbt/internal/triple"
)

// This file is the single conversion point from the public option surface
// (Options, EngineOptions) to the internal engine/core option structs. Every
// construction path — batch EstimateKBT, NewEngine, OpenDurable — funnels
// through it, so a new knob is mapped once, here, instead of field-by-field
// in each layer.

// granularityKeys maps a SourceGranularity onto the snapshot key functions.
// Auto is not a pure function of the record and reports ok=false.
func granularityKeys(g SourceGranularity) (triple.SourceKeyFunc, triple.ExtractorKeyFunc, bool) {
	switch g {
	case GranularityWebsite:
		return triple.SourceKeyWebsite, triple.ExtractorKeyName, true
	case GranularityPage:
		return triple.SourceKeyPage, triple.ExtractorKeyName, true
	case GranularityFinest:
		return triple.SourceKeyFinest, triple.ExtractorKeyFinest, true
	}
	return nil, nil, false
}

// coreOptions maps the shared public model knobs onto core.Options — the
// mapping itself lives on core.Options (WithSharedKnobs) so the core layer
// owns its own knob semantics.
func coreOptions(domainSize, iterations, minSupport int, useConfidence, allExtractorsVoteAbsence bool) core.Options {
	return core.DefaultOptions().WithSharedKnobs(domainSize, iterations, minSupport,
		useConfidence, allExtractorsVoteAbsence)
}

// engineOptions converts the public EngineOptions into the internal
// engine.Options (carrying its core.Options), validating as it goes.
func (o EngineOptions) engineOptions() (engine.Options, error) {
	if o.Iterations < 1 {
		return engine.Options{}, errors.New("kbt: Iterations must be >= 1")
	}
	if o.DomainSize < 1 {
		return engine.Options{}, errors.New("kbt: DomainSize must be >= 1")
	}
	if o.Granularity == GranularityAuto {
		return engine.Options{}, errors.New("kbt: GranularityAuto is not supported incrementally; use GranularityWebsite, GranularityPage or GranularityFinest (or the batch EstimateKBT)")
	}
	eopt := engine.DefaultOptions()
	if o.Shards > 0 {
		eopt.Shards = o.Shards
	}
	var ok bool
	eopt.SourceKey, eopt.ExtractorKey, ok = granularityKeys(o.Granularity)
	if !ok {
		return engine.Options{}, fmt.Errorf("kbt: unknown granularity %d", o.Granularity)
	}
	mopt := coreOptions(o.DomainSize, o.Iterations, o.MinSupport,
		o.UseConfidence, o.AllExtractorsVoteAbsence)
	if o.Tol > 0 {
		mopt.Tol = o.Tol
	}
	eopt.Core = mopt
	eopt.Core.Workers = o.Workers
	// The public CopyDetect switch turns on both halves of ACCU-COPY:
	// maintaining the dependence statistics and discounting detected
	// copiers' votes. (The internal layer keeps them separable for the
	// equivalence harnesses.) Detector and fusion parameters stay at the
	// paper's defaults — engine.New fills them in.
	eopt.CopyDetect = o.CopyDetect
	eopt.CopyDiscount = o.CopyDetect
	eopt.Fusion = o.Fusion
	return eopt, nil
}
