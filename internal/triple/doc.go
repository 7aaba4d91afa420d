// Package triple defines the data model shared by every layer of the KBT
// reproduction: knowledge triples, data items, extraction records with full
// provenance, and the compiled sparse observation matrix X = {X_ewdv} that
// the probabilistic models consume.
//
// The paper represents a triple (subject, predicate, object) as a
// (data item, value) pair where the data item is (subject, predicate). Each
// observation records that extractor e extracted value v for data item d on
// web source w, optionally with a confidence in [0,1] (§3.5).
//
// A Dataset accumulates raw Records; Compile freezes them into an immutable
// Snapshot at a chosen source/extractor granularity, interning labels into
// dense ids and building the inverted indexes (per-item, per-source,
// per-extractor) the inference stages walk. The canonical order of every
// table is first appearance in record order, so compilation is append-only:
// the dense ids of a grown dataset extend the previous ones, and
// Snapshot.Extend materialises that directly — it builds the grown
// snapshot from the previous one and just the new records, bit-identical
// to a full Compile at cost proportional to the ingest. This pair of
// properties is what the incremental engine relies on to carry parameters
// across refreshes and to keep warm-refresh compilation O(ingest).
//
// ShardOf partitions the item space by hashing item keys into the stable,
// disjoint units the engine's refresh statistics count in; no pass runs by
// shard. Snapshot.Shards and ExtendShards materialise the partition as views
// (see Shard), which only the benchmark harness still builds. The TSV codec
// (ReadTSV / WriteTSV / ParseTSVLine) is the interchange format of
// cmd/kbt.
package triple
