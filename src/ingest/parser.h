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

/// Validates and encodes `records` into one batch partitioned per brick, in
/// one pass on the calling thread. Returns InvalidArgument when rejected >
/// options.max_rejected (batch discarded).
///
/// Each record's arity, value types and integer coordinates are checked
/// first. The string values of the records that pass are then encoded
/// through the schema's dictionaries in two phases (DESIGN.md §4f): one
/// locked Lookup per string column, then one sorted InsertSorted per
/// column with misses. A record whose new string would take an id at or
/// past its dimension's cardinality is rejected, and the load discarded
/// if too many were, before anything is inserted, and only kept records'
/// strings are inserted. So a record that passes gets an id that depends
/// only on the dictionary's prior state and the set of new strings, never
/// on record order. Under concurrent loads InsertSorted's ids decide: a
/// racing load can push a new string past the cardinality after the
/// insert, which rejects its records then. Retained errors are in record
/// order.
///
/// Ignored size_t: bench/ledger/traced.cc passes it until ROADMAP direction 1.
Result<ParseOutput> ParseRecords(const CubeSchema& schema,
                                 const std::vector<Record>& records,
                                 const ParseOptions& options = {},
                                 size_t = 1);

/// Parses one comma-separated line into a Record using the schema's column
/// types (no quoting/escaping: this is the test/example loader, not an RFC
/// 4180 implementation).
Result<Record> ParseCsvLine(const CubeSchema& schema, const std::string& line);

}  // namespace cubrick
