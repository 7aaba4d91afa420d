package triple

import (
	"math"
	"strings"
	"testing"
)

// TestCompileKeysMatchesCompile: a table compiled at a standard grouping
// (the keys SourceKeyWebsite, ProvenanceKey, ...) equals Dataset.Compile of its
// records, and extends to the whole stream: over the rows later added to the
// same table (ExtendTable, as the engine extends) and through the record
// adapter (Extend), each equal to Table.Compile of the whole stream. The
// parent reads back unchanged after both.
func TestCompileKeysMatchesCompile(t *testing.T) {
	recs := randomStream(3, 400)
	opts := map[string]CompileOptions{
		"provenance": {SourceKey: ProvenanceKey, ExtractorKey: ExtractorKeyName},
	}
	for _, g := range extendGranularities {
		opts[g.name] = g.opt
	}
	for name, opt := range opts {
		t.Run(name, func(t *testing.T) {
			want := TableOf(recs).Compile(opt.SourceKey, opt.ExtractorKey)
			for _, cut := range []int{1, 200, len(recs)} {
				tab := TableOf(recs[:cut])
				got := tab.Compile(opt.SourceKey, opt.ExtractorKey)
				prefix := (&Dataset{Records: recs[:cut]}).Compile(opt)
				requireEqualSnapshots(t, got, prefix)
				for _, r := range recs[cut:] {
					tab.Add(r)
				}
				requireEqualSnapshots(t, got.ExtendTable(tab, cut), want)
				requireEqualSnapshots(t, got.Extend(recs[cut:]), want)
				requireEqualSnapshots(t, got, prefix)
			}
		})
	}
}

// TestIDWidthCheck drives the one width check at and past the int32 limit
// with lengths alone: checkIDs, the next label id, and unitsOf, which checks
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
	refused("unitsOf(2^31)", func() {
		unitsOf(math.MaxInt32+1, func(int) string { panic("a label was read") })
	})
}
