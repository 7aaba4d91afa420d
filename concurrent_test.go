package kbt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// checkCoherentGeneration asserts the invariants any single generation must
// satisfy, whichever generation the reader happened to acquire.
func checkCoherentGeneration(r *Result) error {
	srcs := r.Sources()
	if len(srcs) == 0 {
		return fmt.Errorf("empty source view")
	}
	for i := 1; i < len(srcs); i++ {
		if srcLess(srcs[i], srcs[i-1]) {
			return fmt.Errorf("source view out of order at %d", i)
		}
	}
	top := r.TopSources(3)
	for i, s := range top {
		if s != srcs[i] {
			return fmt.Errorf("TopSources[%d] = %+v, full view has %+v", i, s, srcs[i])
		}
	}
	// A second read of the memoized view must be the identical slice.
	if again := r.Sources(); len(again) != len(srcs) || &again[0] != &srcs[0] {
		return fmt.Errorf("memoized source view not shared across reads")
	}
	for _, s := range top {
		got, ok := r.SourceByName(s.Name)
		if !ok || got != s {
			return fmt.Errorf("SourceByName(%q) = %+v/%v, want %+v", s.Name, got, ok, s)
		}
	}
	// Probabilities must be probabilities — a torn read mixing two
	// generations' chunks would eventually surface here or in -race.
	for _, tv := range r.TopTriples(5) {
		if tv.Probability < 0 || tv.Probability > 1 {
			return fmt.Errorf("triple %v has probability %v", tv, tv.Probability)
		}
	}
	return nil
}

// readCoherent is one reader's pass over the read view both engines embed.
// It is only called once a first generation is out, so every accessor must
// answer, and the generation Current lands on must be coherent.
func readCoherent(v *view) error {
	r, ok := v.Current()
	if !ok {
		return fmt.Errorf("Current returned no result after the first refresh")
	}
	if err := checkCoherentGeneration(r); err != nil {
		return err
	}
	if _, ok := v.Stats(); !ok {
		return fmt.Errorf("Stats returned no stats after the first refresh")
	}
	if _, ok := v.TopSources(3); !ok {
		return fmt.Errorf("TopSources returned no result after the first refresh")
	}
	return nil
}

// spinReaders loops read on n goroutines until the returned stop is called;
// stop waits for them all and returns the first error any of them hit.
func spinReaders(n int, read func() error) (stop func() error) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	return func() error {
		close(done)
		wg.Wait()
		select {
		case err := <-errc:
			return err
		default:
			return nil
		}
	}
}

// TestConcurrentReadersSeeCoherentGenerations hammers the lock-free read
// path from several goroutines while refreshes publish new generations,
// asserting that every reader observes exactly one coherent generation per
// acquired Result: accessor outputs are internally consistent, repeated
// reads of the same Result are identical, and a generation acquired early
// stays valid and unchanged after later refreshes swap in new ones. Run
// with -race, this is the pin for the atomic-pointer publication and the
// copy-on-write chunk sharing.
func TestConcurrentReadersSeeCoherentGenerations(t *testing.T) {
	opt := DefaultEngineOptions()
	opt.Shards = 16
	opt.MinSupport = 1
	opt.Iterations = 20
	opt.Tol = 1e-4
	eng, err := NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(servingCorpus(0, 2000)...); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	// Fingerprint the first generation; it must survive every later swap.
	firstTop := first.TopSources(5)
	firstTriples := len(first.Triples())

	stop := spinReaders(4, func() error { return readCoherent(&eng.view) })

	next := 2000
	for refresh := 0; refresh < 6; refresh++ {
		if err := eng.Ingest(servingCorpus(next, 100)...); err != nil {
			t.Fatal(err)
		}
		next += 100
		if _, err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	// The early generation is untouched: same view contents, still usable.
	if got := first.TopSources(5); len(got) != len(firstTop) {
		t.Fatalf("old generation's TopSources changed length: %d vs %d", len(got), len(firstTop))
	} else {
		for i := range got {
			if got[i] != firstTop[i] {
				t.Errorf("old generation's TopSources[%d] changed: %+v vs %+v", i, got[i], firstTop[i])
			}
		}
	}
	if got := len(first.Triples()); got != firstTriples {
		t.Errorf("old generation's triple count changed: %d vs %d", got, firstTriples)
	}
	cur, _ := eng.Current()
	if len(cur.Triples()) <= firstTriples {
		t.Errorf("current generation should cover more triples than the first (%d vs %d)",
			len(cur.Triples()), firstTriples)
	}
}

// TestDurableReadersAcrossCompaction is the same pin for the durable engine's
// one extra move: a compacting checkpoint rebuilds the live engine cold in
// place while readers are mid-flight. Once the first generation is out, no
// read may ever find the view empty — Current, Stats, TopSources and Fused
// all keep answering across the rebuild — and whatever generation a reader
// lands on is internally coherent.
func TestDurableReadersAcrossCompaction(t *testing.T) {
	opt := durableTestOptions()
	opt.Fusion = true
	d, err := OpenDurable(t.TempDir(), opt, DurableOptions{compactAfterBatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	next := 0
	step := func(n int) {
		t.Helper()
		if err := d.Ingest(durableBatch(next, n)...); err != nil {
			t.Fatal(err)
		}
		next += n
		if _, err := d.Refresh(); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// The first generation, with enough evidence that fusion covers the probed
	// item; from here on reads must always succeed.
	step(28)

	read := func() error {
		if err := readCoherent(&d.view); err != nil {
			return err
		}
		fi, err := d.Fused("s0|born")
		if err != nil {
			return fmt.Errorf("Fused: %v", err)
		}
		mass := fi.RestMass
		for _, v := range fi.Values {
			mass += v.Probability
		}
		if !fi.Covered || math.Abs(mass-1) > 1e-9 {
			return fmt.Errorf("fused posterior of s0|born: covered=%v, mass %v", fi.Covered, mass)
		}
		return nil
	}
	stop := spinReaders(4, read)

	// Every third batch on the chain compacts, so six more steps rebuild the
	// engine under the readers at least twice. A step ends with its
	// checkpoint, so its last generation is cold exactly when it compacted.
	compactions := 0
	for i := 0; i < 6; i++ {
		step(4)
		if st, _ := d.Stats(); !st.Warm {
			compactions++
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if compactions < 2 {
		t.Fatalf("the writer drove %d compactions, want at least 2", compactions)
	}
	if err := read(); err != nil {
		t.Fatalf("after the last compaction: %v", err)
	}
}

// TestLabelLookupsBesideIngest: readers resolve labels on published
// generations — SourceByName, Fused and TopTriples(0), which read every label
// from the table a generation's snapshot clipped — while Ingest appends
// batches that bring a new label in every field to the same table, and
// refreshes publish them. Run with -race, it pins the table's label index
// layered at Clip: a reader's lookups and the ingest's new labels never touch
// the same layer. Then readers of a batch Result race to build the index its
// table, read from TSV, builds on first use.
func TestLabelLookupsBesideIngest(t *testing.T) {
	opt := DefaultEngineOptions()
	opt.Granularity = GranularityFinest
	opt.MinSupport = 1
	opt.Fusion = true
	eng, err := NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(b int) []Extraction {
		out := make([]Extraction, 0, 40)
		for i := range 40 {
			site := fmt.Sprintf("site%d-%d.com", b, i%4)
			out = append(out, Extraction{
				Extractor: fmt.Sprintf("E%d", b%3+i%2), Pattern: fmt.Sprintf("pat%d-%d", b, i%3),
				Website: site, Page: fmt.Sprintf("%s/%d", site, i%5),
				Subject: fmt.Sprintf("S%d-%d", b, i%7), Predicate: fmt.Sprintf("p%d", (b+i)%5),
				Object: fmt.Sprintf("v%d-%d", b, i%3),
			})
		}
		return out
	}
	if err := eng.Ingest(batch(0)...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}
	stop := spinReaders(4, func() error {
		r, ok := eng.Current()
		if !ok {
			return fmt.Errorf("no generation")
		}
		for _, s := range r.TopSources(4) {
			if got, ok := r.SourceByName(s.Name); !ok || got != s {
				return fmt.Errorf("SourceByName(%q) = %+v/%v, want %+v", s.Name, got, ok, s)
			}
		}
		tvs := r.TopTriples(0)
		if len(tvs) == 0 {
			return fmt.Errorf("no triples")
		}
		for _, tv := range tvs[:min(len(tvs), 4)] {
			fi, err := eng.Fused(tv.Subject + "\x1f" + tv.Predicate)
			if err != nil {
				return fmt.Errorf("Fused(%q, %q): %v", tv.Subject, tv.Predicate, err)
			}
			if fi.Subject != tv.Subject || fi.Predicate != tv.Predicate {
				return fmt.Errorf("Fused(%q, %q) names (%q, %q)", tv.Subject, tv.Predicate, fi.Subject, fi.Predicate)
			}
		}
		return nil
	})
	for b := 1; b <= 12; b++ {
		if err := eng.Ingest(batch(b)...); err != nil {
			t.Fatal(err)
		}
		if b%2 == 0 {
			if _, err := eng.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	// A dataset ReadTSV read holds no label index; a batch Result over it
	// builds its table's on the first lookup, whichever reader asks first.
	var text strings.Builder
	for b := range 3 {
		for _, x := range batch(b) {
			fmt.Fprintf(&text, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", x.Extractor, x.Pattern, x.Website, x.Page, x.Subject, x.Predicate, x.Object)
		}
	}
	ds, err := ReadTSV(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	bopt := DefaultOptions()
	bopt.Granularity = GranularityFinest
	bopt.MinSupport = 1
	res, err := EstimateKBT(ds, bopt)
	if err != nil {
		t.Fatal(err)
	}
	srcs, tvs := res.Sources(), res.Triples()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range srcs[:min(len(srcs), 8)] {
				if got, ok := res.SourceByName(s.Name); !ok || got != s {
					t.Errorf("SourceByName(%q) = %+v/%v, want %+v", s.Name, got, ok, s)
				}
			}
			for _, tv := range tvs[:min(len(tvs), 8)] {
				if p, ok := res.TripleProbability(tv.Subject, tv.Predicate, tv.Object); !ok || p != tv.Probability {
					t.Errorf("TripleProbability(%q, %q, %q) = %v/%v, want %v", tv.Subject, tv.Predicate, tv.Object, p, ok, tv.Probability)
				}
			}
		}()
	}
	wg.Wait()
}
