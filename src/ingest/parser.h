// Ingestion parsing and validation (paper §V-B "Parsing" and
// "Validation and Forwarding").
//
// Parsing is a CPU-only step executed by whichever node receives the load
// buffer. Input records are validated (arity, metric types, dimensional
// cardinality, string-to-id encoding); records that do not comply are
// rejected and skipped. Valid records are encoded into one flat columnar
// batch partitioned by target brick (bid computed from coordinates), so
// each brick's rows form one contiguous range. A load request carries a
// max_rejected threshold: if more records are rejected, the entire batch is
// discarded.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/brick.h"
#include "storage/data_type.h"
#include "storage/schema.h"

namespace cubrick {

/// One input record, in schema order: dimensions then metrics.
struct Record {
  std::vector<Value> values;

  Record() = default;
  /*implicit*/ Record(std::initializer_list<Value> init) : values(init) {}
};

/// The fewest records a parse morsel holds, so ParseRecords fans a load out
/// only from 2 * kMinMorselRecords (1,024) records and parses anything
/// smaller on the calling thread at any `parallelism`. Under three
/// concurrent loaders a pool task cost 33-60 us of CPU, the serial parse of
/// 70-150 records. For a lone load on idle cores (EXPERIMENTS.md, "Ingest
/// parse fan-out"), four morsels of 250 records bought 1.12-1.21x for
/// 1.5-1.6x the CPU of a serial parse, two or three morsels of 512 (1,024
/// and 1,536 records) 0.98-1.26x for 1.29-1.51x, and four morsels of at
/// least 512 (from 2,048 records) 1.23-1.92x for 0.96-1.42x.
inline constexpr size_t kMinMorselRecords = 512;

struct ParseOptions {
  /// Maximum records that may be rejected before the whole batch is
  /// discarded.
  uint64_t max_rejected = 0;
  /// How many error strings to retain for diagnostics.
  size_t max_errors = 8;
};

struct ParseOutput {
  /// The accepted records, partitioned by brick with ascending bids; empty
  /// when every record was rejected or there were none.
  EncodedBatch batches;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  std::vector<std::string> errors;
};

/// Validates and encodes `records` into one batch partitioned per brick.
/// Returns InvalidArgument when rejected > options.max_rejected (batch
/// discarded).
/// String dimension/metric values are encoded through the schema's
/// dictionaries via the two-phase scheme (DESIGN.md §4f): each morsel looks
/// its values up in one locked batch per dictionary and keeps the ids
/// found, then one deterministic sorted batch insert per dictionary gives
/// the misses theirs. Ids therefore depend only on the dictionaries' prior
/// state and the set of new strings — never on record order within the
/// batch or on `parallelism`.
///
/// `parallelism` > 1 chunks the record vector into at most `parallelism`
/// morsels of at least kMinMorselRecords records each, fanned out on
/// ThreadPool::Global() (the caller participates while waiting); serial,
/// and any load under 2 * kMinMorselRecords records, is one morsel parsed
/// on the caller. Each morsel validates and encodes its records into their
/// own rows of one record-indexed staging batch, so nothing is merged; one
/// sort of (bid, record index) pairs then partitions the accepted rows.
/// Output is bit-identical to the serial walk: the batch, rejection counts
/// and retained error strings (concatenated in morsel = record order).
Result<ParseOutput> ParseRecords(const CubeSchema& schema,
                                 const std::vector<Record>& records,
                                 const ParseOptions& options = {},
                                 size_t parallelism = 1);

/// Parses one comma-separated line into a Record using the schema's column
/// types (no quoting/escaping: this is the test/example loader, not an RFC
/// 4180 implementation).
Result<Record> ParseCsvLine(const CubeSchema& schema, const std::string& line);

}  // namespace cubrick
