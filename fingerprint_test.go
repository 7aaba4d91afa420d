package kbt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"kbt/internal/core"
	"kbt/internal/engine"
	"kbt/internal/fusion"
	"kbt/internal/triple"
	"kbt/internal/websim"
)

// updateFingerprint rewrites testdata/fingerprint.json from the code as it
// is. Re-record only in a change that moves published numbers on purpose, and
// say why in that change.
var updateFingerprint = flag.Bool("update-golden", false, "rewrite testdata/fingerprint.json")

const fingerprintFile = "testdata/fingerprint.json"

// fingerprint is a SHA-256 over every number a result publishes, each as its
// math.Float64bits, in the snapshot's dense-id order, with the labels those
// numbers belong to.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) num(x float64) { f.word(math.Float64bits(x)) }

func (f *fingerprint) int(n int) { f.word(uint64(n)) }

func (f *fingerprint) bool(b bool) {
	if b {
		f.int(1)
	} else {
		f.int(0)
	}
}

func (f *fingerprint) word(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	f.h.Write(b[:])
}

func (f *fingerprint) label(s string) {
	f.int(len(s))
	f.h.Write([]byte(s))
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// snapshot hashes the units and candidate values the numbers are indexed by.
func (f *fingerprint) snapshot(s *triple.Snapshot) {
	for _, units := range []struct {
		n     int
		label func(int) string
	}{
		{s.NumSources(), func(w int) string { return s.Source(w).String() }},
		{s.NumExtractors(), func(e int) string { return s.Extractor(e).String() }},
		{len(s.Items), func(d int) string { return s.Item(d).String() }},
		{s.NumValues(), s.Value},
	} {
		f.int(units.n)
		for id := range units.n {
			f.label(units.label(id))
		}
	}
	f.int(len(s.Triples))
	for _, tr := range s.Triples {
		f.int(int(tr.W))
		f.int(int(tr.D))
		f.int(int(tr.V))
	}
	for _, vs := range s.ItemValues {
		f.int(len(vs))
		for _, v := range vs {
			f.int(v)
		}
	}
}

// inference hashes a multi-layer result: A_w and the expected triples per
// source, P, R and Q per extractor, every triple's p(C=1), and every item's
// value posteriors and rest mass, with the inclusion and coverage flags.
func (f *fingerprint) inference(s *triple.Snapshot, r *core.Result) {
	f.snapshot(s)
	f.int(r.Iterations)
	f.bool(r.Converged)
	for w := range s.NumSources() {
		f.num(r.AAt(w))
		f.num(r.ExpectedTriplesAt(w))
		f.bool(r.SourceIncluded[w])
	}
	for e := range s.NumExtractors() {
		f.num(r.PAt(e))
		f.num(r.RAt(e))
		f.num(r.QAt(e))
		f.bool(r.ExtractorIncluded[e])
	}
	for ti := range s.Triples {
		f.num(r.CProbAt(ti))
		f.bool(r.CoveredTripleAt(ti))
	}
	for d := range s.Items {
		f.bool(r.CoveredItemAt(d))
		for _, p := range r.ValueRow(d) {
			f.num(p)
		}
		f.num(r.RestMassAt(d))
	}
}

// fusion hashes a single-layer result: the provenance accuracies and every
// item's value posteriors and rest mass.
func (f *fingerprint) fusion(s *triple.Snapshot, r *fusion.Result) {
	f.snapshot(s)
	f.int(r.Iterations)
	f.bool(r.Converged)
	for w := range s.NumSources() {
		f.num(r.Accuracy[w])
		f.bool(r.Updated[w])
	}
	for d := range s.Items {
		f.bool(r.CoveredItem[d])
		for _, p := range r.ValueProb[d] {
			f.num(p)
		}
		f.num(r.RestMass[d])
	}
}

// generation hashes what an engine refresh publishes: the multi-layer
// result, the copy dependencies and the fused posteriors.
func (f *fingerprint) generation(g *engine.Result) {
	f.inference(g.Snapshot, g.Inference)
	f.int(len(g.CopyDeps))
	for _, d := range g.CopyDeps {
		f.int(d.A)
		f.int(d.B)
		f.num(d.Posterior)
		f.int(d.SharedTrue)
		f.int(d.SharedFalse)
		f.int(d.Differ)
	}
	f.bool(g.Fusion != nil)
	if g.Fusion != nil {
		f.fusion(g.FusionSnap, g.Fusion)
	}
}

// fingerprintCorpus is `kbt generate -kind web -scale 0.3 -seed 9`, read back
// through the TSV codec as the CLI reads it.
func fingerprintCorpus(t *testing.T) []byte {
	p := websim.DefaultParams().Scale(0.3)
	p.Seed = 9
	w, err := websim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := triple.WriteTSV(&buf, w.Dataset); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// outputFingerprints computes every fingerprint TestOutputFingerprint pins.
func outputFingerprints(t *testing.T) map[string]string {
	tsv := fingerprintCorpus(t)
	ds, err := ReadTSV(bytes.NewReader(tsv))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)

	for name, g := range map[string]SourceGranularity{
		"estimate/auto": GranularityAuto, "estimate/website": GranularityWebsite,
		"estimate/page": GranularityPage, "estimate/finest": GranularityFinest,
	} {
		opt := DefaultOptions()
		opt.Granularity = g
		res, err := EstimateKBT(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		f := newFingerprint()
		f.inference(res.snap, res.res)
		out[name] = f.sum()
	}

	fres, err := FuseSingleLayer(ds, DefaultFusionOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := newFingerprint()
	f.fusion(fres.snap, fres.res)
	out["fuse"] = f.sum()

	recs := ds.t.Records()
	for name, layer6 := range map[string]bool{"stream/plain": false, "stream/layer6": true} {
		opt := DefaultEngineOptions()
		opt.CopyDetect, opt.Fusion = layer6, layer6
		eng, err := NewEngine(opt)
		if err != nil {
			t.Fatal(err)
		}
		f := newFingerprint()
		for lo := 0; lo < len(recs); lo += 500 {
			if err := eng.eng.Ingest(recs[lo:min(lo+500, len(recs))]...); err != nil {
				t.Fatal(err)
			}
			g, err := eng.eng.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			f.generation(g)
		}
		out[name] = f.sum()
	}

	paper := NewDataset()
	for _, x := range paperExample() {
		paper.Add(x)
	}
	opt := DefaultOptions()
	opt.Granularity = GranularityWebsite
	opt.MinSupport = 1
	opt.AllExtractorsVoteAbsence = true
	res, err := EstimateKBT(paper, opt)
	if err != nil {
		t.Fatal(err)
	}
	f = newFingerprint()
	f.inference(res.snap, res.res)
	out["table2"] = f.sum()
	return out
}

// TestOutputFingerprint pins every published number to the bit: EstimateKBT
// at each granularity and FuseSingleLayer on a web corpus, an engine fed that
// corpus in batches of 500 with Layer 6 off and on (every generation), and
// the paper's Table 2 example. A change that means to keep outputs
// bit-identical must pass it unedited; printed digits cannot see a move
// below their last place, and this can.
func TestOutputFingerprint(t *testing.T) {
	got := outputFingerprints(t)
	path := filepath.FromSlash(fingerprintFile)
	if *updateFingerprint {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d fingerprints, %s holds %d", len(got), fingerprintFile, len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: fingerprint %s, want %s", name, got[name], w)
		}
	}
}
