package triple

import (
	"math"
	"strings"
	"testing"
)

// TestCompileKeysMatchesCompile: a table compiled at key functions equals
// Dataset.Compile of its records at the same functions, and so does it
// extended with the rest of a stream, for the standard keys (grouped on their
// fields) and for keys that join no fields (called on each record).
func TestCompileKeysMatchesCompile(t *testing.T) {
	recs := randomStream(3, 400)
	opts := map[string]CompileOptions{
		"provenance": {SourceKey: ProvenanceKey, ExtractorKey: ExtractorKeyName},
		"custom": {
			SourceKey:    func(r Record) string { return r.Page + "#" + r.Subject },
			ExtractorKey: func(r Record) string { return r.Pattern },
		},
	}
	for _, g := range extendGranularities {
		opts[g.name] = g.opt
	}
	for name, opt := range opts {
		t.Run(name, func(t *testing.T) {
			want := (&Dataset{Records: recs}).Compile(opt)
			for _, cut := range []int{1, 200, len(recs)} {
				var tab Table
				for _, r := range recs[:cut] {
					tab.Add(r)
				}
				got := tab.CompileKeys(opt)
				requireEqualSnapshots(t, got, (&Dataset{Records: recs[:cut]}).Compile(opt))
				requireEqualSnapshots(t, got.Extend(recs[cut:]), want)
			}
		})
	}
}

// TestIDWidthCheck drives the one width check at and past the int32 limit
// with lengths alone: checkIDs, the next label id, and UnitsOf, which checks
// its record count before it allocates or reads a label. Nothing of that size
// is allocated.
func TestIDWidthCheck(t *testing.T) {
	refused := func(what string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "int32 limit of 2147483647") {
				t.Errorf("%s: panic %q, want one naming the int32 limit", what, msg)
			}
		}()
		f()
	}
	checkIDs(0)
	checkIDs(math.MaxInt32)
	if id := nextID(math.MaxInt32 - 1); id != math.MaxInt32-1 {
		t.Errorf("nextID(2^31-2) = %d", id)
	}
	refused("checkIDs(2^31)", func() { checkIDs(math.MaxInt32 + 1) })
	refused("checkIDs(MaxInt)", func() { checkIDs(math.MaxInt) })
	refused("nextID(2^31-1)", func() { nextID(math.MaxInt32) })
	refused("UnitsOf(2^31)", func() {
		UnitsOf(math.MaxInt32+1, func(int) string { panic("a label was read") })
	})
}
