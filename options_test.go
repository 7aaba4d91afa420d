package kbt

import (
	"reflect"
	"testing"

	"kbt/internal/core"
	"kbt/internal/triple"
)

// TestEngineOptionsRoundTrip pins the single conversion point in options.go:
// every public EngineOptions knob, set to a distinct sentinel, must land on
// its internal engine/core field. A knob that silently drops on the floor in
// the conversion fails here, which is the regression the old triplicated
// field-by-field mirrors (kbt → engine → core, hand-copied in three files)
// invited.
func TestEngineOptionsRoundTrip(t *testing.T) {
	in := EngineOptions{
		Granularity:              GranularityPage,
		Shards:                   13,
		DomainSize:               7,
		Iterations:               9,
		MinSupport:               4,
		MinReportableTriples:     2.5, // read by the Result wrapper, not converted
		UseConfidence:            true,
		AllExtractorsVoteAbsence: true,
		Workers:                  3,
		Tol:                      0.125,
	}
	eopt, err := in.engineOptions()
	if err != nil {
		t.Fatal(err)
	}
	if eopt.Shards != 13 {
		t.Errorf("Shards: got %d, want 13", eopt.Shards)
	}
	if got, want := reflect.ValueOf(eopt.SourceKey).Pointer(), reflect.ValueOf(triple.SourceKeyPage).Pointer(); got != want {
		t.Error("SourceKey: GranularityPage did not map to triple.SourceKeyPage")
	}
	if got, want := reflect.ValueOf(eopt.ExtractorKey).Pointer(), reflect.ValueOf(triple.ExtractorKeyName).Pointer(); got != want {
		t.Error("ExtractorKey: GranularityPage did not map to triple.ExtractorKeyName")
	}
	if eopt.Workers != 3 {
		t.Errorf("Workers: got %d, want 3", eopt.Workers)
	}
	if eopt.Core.N != 7 {
		t.Errorf("Core.N: got %d, want 7", eopt.Core.N)
	}
	if eopt.Core.MaxIter != 9 {
		t.Errorf("Core.MaxIter: got %d, want 9", eopt.Core.MaxIter)
	}
	if eopt.Core.MinSourceSupport != 4 || eopt.Core.MinExtractorSupport != 4 {
		t.Errorf("Core min support: got (%d, %d), want (4, 4)",
			eopt.Core.MinSourceSupport, eopt.Core.MinExtractorSupport)
	}
	if !eopt.Core.UseConfidence {
		t.Error("Core.UseConfidence did not carry")
	}
	if eopt.Core.Scope != core.ScopeAllExtractors {
		t.Errorf("Core.Scope: got %v, want ScopeAllExtractors", eopt.Core.Scope)
	}
	if eopt.Core.Tol != 0.125 {
		t.Errorf("Core.Tol: got %g, want 0.125", eopt.Core.Tol)
	}

	// The untouched core knobs must keep their defaults — the conversion
	// starts from core.DefaultOptions, not a zero struct.
	def := core.DefaultOptions()
	if eopt.Core.Gamma != def.Gamma || eopt.Core.Alpha != def.Alpha ||
		eopt.Core.InitAccuracy != def.InitAccuracy {
		t.Error("conversion disturbed core defaults it does not map")
	}

	// Sentinel flips: the booleans must map both ways, and Tol 0 defers to
	// the core default instead of declaring instant convergence.
	in.AllExtractorsVoteAbsence = false
	in.UseConfidence = false
	in.Tol = 0
	eopt, err = in.engineOptions()
	if err != nil {
		t.Fatal(err)
	}
	if eopt.Core.Scope != core.ScopeAttemptedSources {
		t.Errorf("Core.Scope: got %v, want ScopeAttemptedSources", eopt.Core.Scope)
	}
	if eopt.Core.UseConfidence {
		t.Error("Core.UseConfidence did not clear")
	}
	if eopt.Core.Tol != def.Tol {
		t.Errorf("Core.Tol with zero input: got %g, want core default %g", eopt.Core.Tol, def.Tol)
	}

	// Shards 0 keeps the engine default rather than building a shardless
	// engine.
	in.Shards = 0
	eopt, err = in.engineOptions()
	if err != nil {
		t.Fatal(err)
	}
	if eopt.Shards != 8 {
		t.Errorf("Shards default: got %d, want 8", eopt.Shards)
	}
}

// TestEngineOptionsRejects pins the validation errors of the conversion
// point.
func TestEngineOptionsRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*EngineOptions)
	}{
		{"iterations", func(o *EngineOptions) { o.Iterations = 0 }},
		{"domain", func(o *EngineOptions) { o.DomainSize = 0 }},
		{"auto-granularity", func(o *EngineOptions) { o.Granularity = GranularityAuto }},
		{"unknown-granularity", func(o *EngineOptions) { o.Granularity = SourceGranularity(99) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultEngineOptions()
			tc.mutate(&opt)
			if _, err := opt.engineOptions(); err == nil {
				t.Fatal("conversion accepted invalid options")
			}
			if _, err := NewEngine(opt); err == nil {
				t.Fatal("NewEngine accepted invalid options")
			}
		})
	}
}
