package triple

import "testing"

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
