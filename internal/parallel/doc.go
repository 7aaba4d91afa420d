// Package parallel is a small deterministic data-parallel execution helper,
// standing in for the FlumeJava/Map-Reduce substrate the paper ran on
// (§5.3.4).
//
// Every inference stage of the multi-layer model (extraction correctness,
// triple truthfulness, source accuracy, extractor quality) is expressed as a
// parallel loop over a dense index space with results written to disjoint
// slots, so execution order cannot affect the outcome; a reduction is a loop
// over its units — or, where one unit can hold the corpus, over blocks of
// each unit's rows — into exact fixed-point sums (stats.Sum), so neither the
// block boundaries nor the order partials merge in can move a bit.
//
// The incremental engine adds no second level: a settling pass hands the same
// primitives one ascending index list, and ForEach's contiguous batches are
// its blocks.
package parallel
