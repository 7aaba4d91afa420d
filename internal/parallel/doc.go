// Package parallel is a small deterministic data-parallel execution helper,
// standing in for the FlumeJava/Map-Reduce substrate the paper ran on
// (§5.3.4).
//
// Every inference stage of the multi-layer model (extraction correctness,
// triple truthfulness, source accuracy, extractor quality) is expressed as a
// parallel loop over a dense index space with results written to disjoint
// slots, so execution order cannot affect the outcome; a reduction is a loop
// over its units, each summing its own rows in index order.
//
// The sharded engine layers a second level on top: ForEach over dirty
// shards, with each shard's task invoking the same primitives over its own
// index subset. StageTimer backs the Table 7 relative-cost harness.
package parallel
