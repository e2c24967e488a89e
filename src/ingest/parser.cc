#include "ingest/parser.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/dictionary.h"

namespace cubrick {

namespace {

/// Column indexes (dims then metrics) that are dictionary-encoded.
std::vector<size_t> StringColumns(const CubeSchema& schema) {
  std::vector<size_t> cols;
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    if (schema.dimensions()[d].is_string) cols.push_back(d);
  }
  for (size_t m = 0; m < schema.num_metrics(); ++m) {
    if (schema.metrics()[m].type == DataType::kString) {
      cols.push_back(schema.num_dimensions() + m);
    }
  }
  return cols;
}

/// One string column's ids for the load: phase 1 fills `found`, phase 2
/// `misses` and `miss_ids`, and phase 3 only reads them.
struct ColumnIds {
  /// Indexed by record: the id phase 1's lookup found, or kMissing.
  std::vector<uint64_t> found;
  /// The load's values the lookup missed, sorted and deduplicated, and the
  /// id the batch insert returned for each.
  std::vector<std::string_view> misses;
  std::vector<uint64_t> miss_ids;

  /// The id of `value`, record `i`'s string, which phase 1 looked up.
  uint64_t IdOf(size_t i, std::string_view value) const {
    if (found[i] != StringDictionary::kMissing) return found[i];
    const auto it = std::lower_bound(misses.begin(), misses.end(), value);
    return miss_ids[it - misses.begin()];
  }
};

/// Phase 1 of the two-phase dictionary encode: per string column, looks up
/// every type-correct value of records [begin, end) in one locked batch,
/// keeps each id found at its record, and collects the values the
/// dictionary lacks. Records with the wrong arity contribute nothing (they
/// cannot be accepted later). `misses` is indexed by column; `hits` counts
/// the values found, for the ingest.dict_snapshot_hits metric.
void LookUpStrings(const CubeSchema& schema,
                   const std::vector<Record>& records, size_t begin,
                   size_t end, const std::vector<size_t>& string_cols,
                   std::vector<ColumnIds>* ids,
                   std::vector<std::vector<std::string_view>>* misses,
                   uint64_t* hits) {
  const size_t arity = schema.num_columns();
  uint64_t local_hits = 0;
  std::vector<std::string_view> values;
  std::vector<size_t> rows;
  for (size_t c : string_cols) {
    values.clear();
    rows.clear();
    for (size_t i = begin; i < end; ++i) {
      const Record& record = records[i];
      if (record.values.size() != arity || !record.values[c].is_string()) {
        continue;
      }
      values.push_back(record.values[c].as_string());
      rows.push_back(i);
    }
    const std::vector<uint64_t> found = schema.dictionary(c)->Lookup(values);
    std::vector<uint64_t>& column = (*ids)[c].found;
    for (size_t k = 0; k < rows.size(); ++k) {
      column[rows[k]] = found[k];
      if (found[k] == StringDictionary::kMissing) {
        (*misses)[c].push_back(values[k]);
      } else {
        ++local_hits;
      }
    }
  }
  *hits += local_hits;
}

/// Encodes record `i`'s value of dimension `dim` to its coordinate,
/// validating cardinality. String dimensions take the id phases 1 and 2
/// kept for the record.
Result<uint64_t> EncodeDimension(const CubeSchema& schema,
                                 const std::vector<ColumnIds>& ids,
                                 size_t dim, size_t i, const Value& value) {
  const DimensionDef& def = schema.dimensions()[dim];
  uint64_t coord = 0;
  if (def.is_string) {
    if (!value.is_string()) {
      return Status::InvalidArgument("dimension '" + def.name +
                                     "' expects a string");
    }
    coord = ids[dim].IdOf(i, value.as_string());
  } else {
    if (!value.is_int64()) {
      return Status::InvalidArgument("dimension '" + def.name +
                                     "' expects an integer");
    }
    const int64_t raw = value.as_int64();
    if (raw < 0) {
      return Status::OutOfRange("dimension '" + def.name +
                                "' coordinate is negative");
    }
    coord = static_cast<uint64_t>(raw);
  }
  if (coord >= def.cardinality) {
    return Status::OutOfRange("dimension '" + def.name + "' value " +
                              std::to_string(coord) +
                              " exceeds declared cardinality " +
                              std::to_string(def.cardinality));
  }
  return coord;
}

/// One morsel's validation tally. Its encoded rows go straight into the
/// load's staging columns at their record indexes (see Staging), so these
/// counts and diagnostics are all that is left to combine.
struct MorselOutput {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  /// First `max_errors` rejection diagnostics of this morsel, in record
  /// order (concatenated in morsel order and re-truncated afterwards).
  std::vector<std::string> errors;
};

/// The encode phase's output, indexed by record: row i of every column
/// holds record i's encoding, and `bids[i]` its brick, when `accepted[i]`
/// is set. Morsels own disjoint record ranges, so they write disjoint rows.
struct Staging {
  Staging(const CubeSchema& schema, size_t n)
      : dim_offsets(schema.num_dimensions(), std::vector<uint64_t>(n)),
        metric_ints(schema.num_metrics()),
        metric_doubles(schema.num_metrics()),
        bids(n),
        accepted(n, 0) {
    for (size_t m = 0; m < schema.num_metrics(); ++m) {
      if (schema.metrics()[m].type == DataType::kDouble) {
        metric_doubles[m].resize(n);
      } else {
        metric_ints[m].resize(n);
      }
    }
  }

  std::vector<std::vector<uint64_t>> dim_offsets;
  std::vector<std::vector<int64_t>> metric_ints;
  std::vector<std::vector<double>> metric_doubles;
  std::vector<Bid> bids;
  std::vector<uint8_t> accepted;
};

/// One worker's share of the encode phase: validates and encodes records
/// [begin, end) into their staging rows. Deterministic by construction —
/// it only reads the ids phases 1 and 2 kept, never a dictionary — so the
/// staging rows, counts and diagnostics are the same at any fan-out.
void EncodeMorsel(const CubeSchema& schema, const std::vector<Record>& records,
                  size_t begin, size_t end, const ParseOptions& options,
                  const std::vector<ColumnIds>& ids, Staging* staging,
                  MorselOutput* out) {
  const size_t num_dims = schema.num_dimensions();
  const size_t num_metrics = schema.num_metrics();
  std::vector<uint64_t> coords(num_dims);
  for (size_t i = begin; i < end; ++i) {
    const Record& record = records[i];
    Status record_status;
    if (record.values.size() != num_dims + num_metrics) {
      record_status = Status::InvalidArgument("wrong number of columns");
    }
    for (size_t d = 0; record_status.ok() && d < num_dims; ++d) {
      auto coord = EncodeDimension(schema, ids, d, i, record.values[d]);
      if (!coord.ok()) {
        record_status = coord.status();
        break;
      }
      coords[d] = *coord;
    }
    for (size_t m = 0; record_status.ok() && m < num_metrics; ++m) {
      const Value& v = record.values[num_dims + m];
      const MetricDef& def = schema.metrics()[m];
      switch (def.type) {
        case DataType::kInt64:
          if (!v.is_int64()) {
            record_status = Status::InvalidArgument("metric '" + def.name +
                                                    "' expects int64");
          }
          break;
        case DataType::kDouble:
          if (v.is_string()) {
            record_status = Status::InvalidArgument("metric '" + def.name +
                                                    "' expects a number");
          }
          break;
        case DataType::kString:
          if (!v.is_string()) {
            record_status = Status::InvalidArgument("metric '" + def.name +
                                                    "' expects a string");
          }
          break;
      }
    }
    if (!record_status.ok()) {
      ++out->rejected;
      if (out->errors.size() < options.max_errors) {
        out->errors.push_back(record_status.ToString());
      }
      continue;
    }
    staging->bids[i] = schema.BidFor(coords).value();
    staging->accepted[i] = 1;
    for (size_t d = 0; d < num_dims; ++d) {
      uint64_t range_idx = 0;
      schema.SplitCoord(d, coords[d], &range_idx,
                        &staging->dim_offsets[d][i]);
    }
    for (size_t m = 0; m < num_metrics; ++m) {
      const Value& v = record.values[num_dims + m];
      switch (schema.metrics()[m].type) {
        case DataType::kInt64:
          staging->metric_ints[m][i] = v.as_int64();
          break;
        case DataType::kDouble:
          staging->metric_doubles[m][i] = v.ToDouble().value();
          break;
        case DataType::kString:
          staging->metric_ints[m][i] =
              static_cast<int64_t>(ids[num_dims + m].IdOf(i, v.as_string()));
          break;
      }
    }
    ++out->accepted;
  }
}

/// Partitions the accepted staging rows by brick in one pass: sorting the
/// (bid, record index) pairs puts each brick's rows together in record
/// order, and one gather per column lays them out contiguously.
EncodedBatch PartitionByBrick(const CubeSchema& schema,
                              const Staging& staging) {
  std::vector<std::pair<Bid, size_t>> keys;
  keys.reserve(staging.accepted.size());
  for (size_t i = 0; i < staging.accepted.size(); ++i) {
    if (staging.accepted[i] != 0) keys.emplace_back(staging.bids[i], i);
  }
  std::sort(keys.begin(), keys.end());

  EncodedBatch out(schema);
  out.num_rows = keys.size();
  const auto gather = [&keys](const auto& from, auto* to) {
    to->resize(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) (*to)[k] = from[keys[k].second];
  };
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    gather(staging.dim_offsets[d], &out.dim_offsets[d]);
  }
  for (size_t m = 0; m < schema.num_metrics(); ++m) {
    if (schema.metrics()[m].type == DataType::kDouble) {
      gather(staging.metric_doubles[m], &out.metric_doubles[m]);
    } else {
      gather(staging.metric_ints[m], &out.metric_ints[m]);
    }
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    if (k + 1 == keys.size() || keys[k + 1].first != keys[k].first) {
      out.bids.push_back(keys[k].first);
      out.starts.push_back(k + 1);
    }
  }
  return out;
}

/// Splits [0, n) into at most `parallelism` contiguous morsels of at least
/// kMinMorselRecords records, sized within one record of each other: the
/// morsel count rounds n / kMinMorselRecords down, so a load under twice
/// the floor is one morsel. Chunking never affects the output — each
/// record's encoding depends only on the record — only load balance.
std::vector<std::pair<size_t, size_t>> PlanIngestMorsels(size_t n,
                                                         size_t parallelism) {
  const size_t num_morsels =
      std::max<size_t>(1, std::min(parallelism, n / kMinMorselRecords));
  std::vector<std::pair<size_t, size_t>> morsels;
  morsels.reserve(num_morsels);
  for (size_t m = 0; m < num_morsels; ++m) {
    morsels.push_back({n * m / num_morsels, n * (m + 1) / num_morsels});
  }
  return morsels;
}

/// Runs `fn(morsel_index)` for every morsel — on the shared pool when more
/// than one morsel was planned, inline otherwise. The caller participates
/// via TaskGroup::Wait, so nested fan-outs cannot deadlock the pool.
void ForEachMorsel(size_t num_morsels, const std::function<void(size_t)>& fn) {
  if (num_morsels <= 1) {
    fn(0);
    return;
  }
  TaskGroup group(&ThreadPool::Global());
  for (size_t m = 0; m < num_morsels; ++m) {
    group.Run([&fn, m] { fn(m); });
  }
  group.Wait();
}

}  // namespace

Result<ParseOutput> ParseRecords(const CubeSchema& schema,
                                 const std::vector<Record>& records,
                                 const ParseOptions& options,
                                 size_t parallelism) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter* accepted = reg.GetCounter("ingest.records_accepted");
  static obs::Counter* rejected = reg.GetCounter("ingest.records_rejected");
  static obs::Counter* batches = reg.GetCounter("ingest.batches_total");
  static obs::Counter* lookup_hits =
      reg.GetCounter("ingest.dict_snapshot_hits");
  static obs::Counter* strings_added =
      reg.GetCounter("ingest.dict_batch_misses");
  static obs::Histogram* parse_us = reg.GetHistogram("ingest.parse_us");
  obs::ObsSpan span(parse_us);

  const std::vector<size_t> string_cols = StringColumns(schema);
  const auto morsels = PlanIngestMorsels(records.size(), parallelism);
  const size_t num_morsels = morsels.size();

  // Phase 1: every morsel looks its strings up, one locked batch per
  // string column, and keeps the ids found.
  std::vector<ColumnIds> ids(schema.num_columns());
  for (size_t c : string_cols) ids[c].found.resize(records.size());
  std::vector<std::vector<std::vector<std::string_view>>> misses(
      num_morsels,
      std::vector<std::vector<std::string_view>>(schema.num_columns()));
  std::vector<uint64_t> hits(num_morsels, 0);
  if (!string_cols.empty()) {
    ForEachMorsel(num_morsels, [&](size_t m) {
      LookUpStrings(schema, records, morsels[m].first, morsels[m].second,
                    string_cols, &ids, &misses[m], &hits[m]);
    });
  }

  // Phase 2: one deterministic batch insert per dictionary — the misses
  // are deduped and sorted, so the assigned ids depend only on the
  // dictionary's prior state and the *set* of new strings, never on record
  // order or chunking (serial replay assigns identical ids).
  uint64_t total_hits = 0;
  uint64_t total_added = 0;
  for (uint64_t h : hits) total_hits += h;
  for (size_t c : string_cols) {
    std::vector<std::string_view>& merged = ids[c].misses;
    for (size_t m = 0; m < num_morsels; ++m) {
      merged.insert(merged.end(), misses[m][c].begin(), misses[m][c].end());
    }
    if (merged.empty()) continue;
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    size_t added = 0;
    ids[c].miss_ids = schema.dictionary(c)->InsertSorted(merged, &added);
    total_added += added;
  }
  lookup_hits->Add(total_hits);
  strings_added->Add(total_added);

  // Phase 3: morsel-parallel validate + encode from the kept ids, each
  // morsel into its own records' staging rows.
  Staging staging(schema, records.size());
  std::vector<MorselOutput> outputs(num_morsels);
  ForEachMorsel(num_morsels, [&](size_t m) {
    EncodeMorsel(schema, records, morsels[m].first, morsels[m].second,
                 options, ids, &staging, &outputs[m]);
  });

  MorselOutput total;
  for (MorselOutput& part : outputs) {
    total.accepted += part.accepted;
    total.rejected += part.rejected;
    for (std::string& err : part.errors) {
      if (total.errors.size() < options.max_errors) {
        total.errors.push_back(std::move(err));
      }
    }
  }

  rejected->Add(total.rejected);
  if (total.rejected > options.max_rejected) {
    // The whole batch is discarded, so its accepted rows never land.
    std::string detail = total.errors.empty() ? "" : " (first: " +
                                                         total.errors.front() +
                                                         ")";
    return Status::InvalidArgument(
        "batch discarded: " + std::to_string(total.rejected) +
        " records rejected, max_rejected=" +
        std::to_string(options.max_rejected) + detail);
  }
  accepted->Add(total.accepted);
  batches->Add();
  return ParseOutput{PartitionByBrick(schema, staging), total.accepted,
                     total.rejected, std::move(total.errors)};
}

Result<Record> ParseCsvLine(const CubeSchema& schema,
                            const std::string& line) {
  // Single pass over comma-separated slices: no intermediate field vector,
  // no substr temporaries — each slice is materialized at most once, as
  // the Value it becomes.
  Record record;
  record.values.reserve(schema.num_columns());
  const std::string_view view(line);
  size_t start = 0;
  size_t index = 0;
  bool done = false;
  while (!done) {
    const size_t comma = view.find(',', start);
    std::string_view field;
    if (comma == std::string_view::npos) {
      field = view.substr(start);
      done = true;
    } else {
      field = view.substr(start, comma - start);
      start = comma + 1;
    }
    const size_t i = index++;
    if (i >= schema.num_columns()) continue;  // counted, reported below

    const bool is_dim = i < schema.num_dimensions();
    DataType type;
    bool is_string;
    if (is_dim) {
      is_string = schema.dimensions()[i].is_string;
      type = is_string ? DataType::kString : DataType::kInt64;
    } else {
      type = schema.metrics()[i - schema.num_dimensions()].type;
      is_string = type == DataType::kString;
    }
    if (is_string) {
      record.values.emplace_back(std::string(field));
      continue;
    }
    if (type == DataType::kDouble) {
      double v = 0;
      auto [ptr, ec] =
          std::from_chars(field.data(), field.data() + field.size(), v);
      if (ec != std::errc() || ptr != field.data() + field.size()) {
        return Status::InvalidArgument("bad double: '" + std::string(field) +
                                       "'");
      }
      record.values.emplace_back(v);
    } else {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(field.data(), field.data() + field.size(), v);
      if (ec != std::errc() || ptr != field.data() + field.size()) {
        return Status::InvalidArgument("bad integer: '" + std::string(field) +
                                       "'");
      }
      record.values.emplace_back(v);
    }
  }
  if (index != schema.num_columns()) {
    return Status::InvalidArgument("expected " +
                                   std::to_string(schema.num_columns()) +
                                   " fields, got " + std::to_string(index));
  }
  return record;
}

}  // namespace cubrick
