package kbt

import (
	"fmt"
	"math"
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
