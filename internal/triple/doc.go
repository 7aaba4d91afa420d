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
// Records are held as a Table: per field a dense-id column and each distinct
// label once, and a confidence column. ReadTable assigns the ids as it reads
// TSV, TableOf and Table.Add as they add records. The table is the one label
// store and label index. Table.Compile, the one build, freezes a table into
// an immutable Snapshot at a chosen source and extractor granularity,
// numbering its units by their fields' table ids and building the inverted
// indexes (per-item, per-source, per-extractor) the inference stages walk; a
// snapshot holds ids and reads its labels from a clip of its table. A granularity is a Grouping: a tuple of record fields, a unit named by
// their labels joined with "\x1f" (SourceKeyWebsite, ProvenanceKey, ...), or
// Units that split-and-merge assigns to the records of one table. The
// canonical order of every table is first appearance in record order, so
// compilation is append-only: the dense ids of a grown table extend the
// previous ones, and Snapshot.ExtendTable materialises that directly — it
// builds the grown snapshot from the previous one and just the table's new
// rows, bit-identical to a full Compile at cost proportional to the ingest,
// for a snapshot built on field groupings. This pair of properties is what
// the incremental engine relies on to carry parameters across refreshes and
// to keep warm-refresh compilation O(ingest).
//
// ShardOf partitions the item space by hashing item keys into the stable,
// disjoint units the engine's refresh statistics count in; no pass runs by
// shard. Snapshot.Shards and ExtendShards materialise the partition as views
// (see Shard), which only the benchmark harness still builds. The TSV codec
// (ReadTable / WriteTSV / ParseTSVLine) is the interchange format of
// cmd/kbt.
//
// A Dataset holds Records, with the ground truth the simulators know. Its
// Compile, Snapshot.Extend over records and ReadTSV are Table.Compile,
// ExtendTable and ReadTable behind a record slice, kept for the benchmark
// harness.
package triple
