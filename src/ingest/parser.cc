#include "ingest/parser.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

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

Status ExceedsCardinality(const DimensionDef& def, uint64_t coord) {
  return Status::OutOfRange("dimension '" + def.name + "' value " +
                            std::to_string(coord) +
                            " exceeds declared cardinality " +
                            std::to_string(def.cardinality));
}

/// The records a parse rejects, and the first `max_errors` diagnostics in
/// record order. The string phases reject records after the type checks
/// have, so a diagnostic may land before ones already kept.
class Rejections {
 public:
  Rejections(size_t num_records, size_t max_errors)
      : rejected_(num_records, 0), max_errors_(max_errors) {}

  bool rejected(size_t i) const { return rejected_[i] != 0; }
  uint64_t count() const { return count_; }

  void Add(size_t i, const Status& why) {
    rejected_[i] = 1;
    ++count_;
    const auto by_record = [](const auto& error, size_t record) {
      return error.first < record;
    };
    const size_t pos =
        std::lower_bound(errors_.begin(), errors_.end(), i, by_record) -
        errors_.begin();
    if (pos >= max_errors_) return;
    if (errors_.size() == max_errors_) errors_.pop_back();
    errors_.insert(errors_.begin() + pos, {i, why.ToString()});
  }

  std::vector<std::string> TakeErrors() {
    std::vector<std::string> out;
    out.reserve(errors_.size());
    for (auto& [record, error] : errors_) out.push_back(std::move(error));
    return out;
  }

  Status Discard(uint64_t max_rejected) const {
    const std::string detail =
        errors_.empty() ? "" : " (first: " + errors_.front().second + ")";
    return Status::InvalidArgument(
        "batch discarded: " + std::to_string(count_) +
        " records rejected, max_rejected=" + std::to_string(max_rejected) +
        detail);
  }

 private:
  std::vector<uint8_t> rejected_;
  uint64_t count_ = 0;
  size_t max_errors_;
  /// (record, diagnostic), ascending by record.
  std::vector<std::pair<size_t, std::string>> errors_;
};

/// Checks `record`'s arity, value types and integer coordinates, and
/// writes each integer dimension's coordinate to codes[d][i]. String values
/// are only type-checked here: the dictionary phases encode them.
Status CheckRecord(const CubeSchema& schema, const Record& record, size_t i,
                   std::vector<std::vector<uint64_t>>* codes) {
  if (record.values.size() != schema.num_columns()) {
    return Status::InvalidArgument("wrong number of columns");
  }
  const size_t num_dims = schema.num_dimensions();
  for (size_t d = 0; d < num_dims; ++d) {
    const DimensionDef& def = schema.dimensions()[d];
    const Value& v = record.values[d];
    if (def.is_string) {
      if (!v.is_string()) {
        return Status::InvalidArgument("dimension '" + def.name +
                                       "' expects a string");
      }
      continue;
    }
    if (!v.is_int64()) {
      return Status::InvalidArgument("dimension '" + def.name +
                                     "' expects an integer");
    }
    if (v.as_int64() < 0) {
      return Status::OutOfRange("dimension '" + def.name +
                                "' coordinate is negative");
    }
    const auto coord = static_cast<uint64_t>(v.as_int64());
    if (coord >= def.cardinality) return ExceedsCardinality(def, coord);
    (*codes)[d][i] = coord;
  }
  for (size_t m = 0; m < schema.num_metrics(); ++m) {
    const Value& v = record.values[num_dims + m];
    const MetricDef& def = schema.metrics()[m];
    switch (def.type) {
      case DataType::kInt64:
        if (!v.is_int64()) {
          return Status::InvalidArgument("metric '" + def.name +
                                         "' expects int64");
        }
        break;
      case DataType::kDouble:
        if (v.is_string()) {
          return Status::InvalidArgument("metric '" + def.name +
                                         "' expects a number");
        }
        break;
      case DataType::kString:
        if (!v.is_string()) {
          return Status::InvalidArgument("metric '" + def.name +
                                         "' expects a string");
        }
        break;
    }
  }
  return Status::OK();
}

/// The values of one string column that its dictionary lacked, sorted and
/// deduplicated, and the records that bring them. Between the two phases
/// such a record's code holds its value's rank in `values`.
struct NewStrings {
  std::vector<std::string_view> values;
  std::vector<size_t> records;
};

/// Phase one of the two-phase dictionary encode for string column `c`: one
/// locked Lookup of the kept records' values writes each id found to
/// `codes` and collects the misses. A dimension rejects each record whose
/// id, found or predicted, reaches its cardinality; the prediction is the
/// id the sorted insert of every miss would give. Returns the values found.
uint64_t LookUpColumn(const CubeSchema& schema,
                      const std::vector<Record>& records, size_t c,
                      Rejections* rejects, std::vector<uint64_t>* codes,
                      NewStrings* fresh) {
  const StringDictionary& dict = *schema.dictionary(c);
  const DimensionDef* dim =
      c < schema.num_dimensions() ? &schema.dimensions()[c] : nullptr;
  // Read before the lookup, so a racing load can only make a prediction
  // low, never high; InsertColumn then rejects by the ids the insert gives.
  const uint64_t next_id = dict.size();
  std::vector<std::string_view> values;
  std::vector<size_t> rows;
  for (size_t i = 0; i < records.size(); ++i) {
    if (rejects->rejected(i)) continue;
    values.push_back(records[i].values[c].as_string());
    rows.push_back(i);
  }
  const std::vector<uint64_t> found = dict.Lookup(values);
  uint64_t hits = 0;
  for (size_t k = 0; k < rows.size(); ++k) {
    if (found[k] == StringDictionary::kMissing) {
      fresh->values.push_back(values[k]);
      fresh->records.push_back(rows[k]);
      continue;
    }
    ++hits;
    (*codes)[rows[k]] = found[k];
    if (dim != nullptr && found[k] >= dim->cardinality) {
      rejects->Add(rows[k], ExceedsCardinality(*dim, found[k]));
    }
  }
  std::vector<std::string_view>& sorted = fresh->values;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (size_t i : fresh->records) {
    const uint64_t rank =
        std::lower_bound(sorted.begin(), sorted.end(),
                         std::string_view(records[i].values[c].as_string())) -
        sorted.begin();
    (*codes)[i] = rank;
    if (dim != nullptr && next_id + rank >= dim->cardinality) {
      rejects->Add(i, ExceedsCardinality(*dim, next_id + rank));
    }
  }
  return hits;
}

/// Phase two for string column `c`: one sorted InsertSorted of the misses
/// that kept records bring, so rejected records' strings stay out, then
/// each such record's rank becomes its id. Sorted assignment makes the ids
/// depend only on the dictionary's prior state and the set of new strings.
/// Under a concurrent load the returned ids decide, and a dimension rejects
/// a record whose id reaches its cardinality. Returns the strings added.
uint64_t InsertColumn(const CubeSchema& schema, size_t c,
                      const NewStrings& fresh, Rejections* rejects,
                      std::vector<uint64_t>* codes) {
  constexpr size_t kUnused = ~size_t{0};
  // slot[rank]: the value's index in `inserted`, or kUnused.
  std::vector<size_t> slot(fresh.values.size(), kUnused);
  for (size_t i : fresh.records) {
    if (!rejects->rejected(i)) slot[(*codes)[i]] = 0;
  }
  std::vector<std::string_view> inserted;
  for (size_t rank = 0; rank < slot.size(); ++rank) {
    if (slot[rank] == kUnused) continue;
    slot[rank] = inserted.size();
    inserted.push_back(fresh.values[rank]);
  }
  if (inserted.empty()) return 0;
  size_t added = 0;
  const std::vector<uint64_t> ids =
      schema.dictionary(c)->InsertSorted(inserted, &added);
  const DimensionDef* dim =
      c < schema.num_dimensions() ? &schema.dimensions()[c] : nullptr;
  for (size_t i : fresh.records) {
    if (rejects->rejected(i)) continue;
    const uint64_t id = ids[slot[(*codes)[i]]];
    (*codes)[i] = id;
    if (dim != nullptr && id >= dim->cardinality) {
      rejects->Add(i, ExceedsCardinality(*dim, id));
    }
  }
  return added;
}

/// Partitions the kept records by brick in one pass: sorting the (bid,
/// record index) pairs puts each brick's rows together in record order, and
/// one gather lays every column's rows out contiguously.
EncodedBatch PartitionByBrick(const CubeSchema& schema,
                              const std::vector<Record>& records,
                              const std::vector<std::vector<uint64_t>>& codes,
                              const Rejections& rejects) {
  const size_t num_dims = schema.num_dimensions();
  const size_t num_metrics = schema.num_metrics();
  std::vector<std::pair<Bid, size_t>> keys;
  keys.reserve(records.size());
  std::vector<uint64_t> coords(num_dims);
  for (size_t i = 0; i < records.size(); ++i) {
    if (rejects.rejected(i)) continue;
    for (size_t d = 0; d < num_dims; ++d) coords[d] = codes[d][i];
    keys.emplace_back(schema.BidFor(coords).value(), i);
  }
  std::sort(keys.begin(), keys.end());

  EncodedBatch out(schema);
  out.num_rows = keys.size();
  for (auto& column : out.dim_offsets) column.resize(keys.size());
  for (size_t m = 0; m < num_metrics; ++m) {
    if (schema.metrics()[m].type == DataType::kDouble) {
      out.metric_doubles[m].resize(keys.size());
    } else {
      out.metric_ints[m].resize(keys.size());
    }
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    const size_t i = keys[k].second;
    for (size_t d = 0; d < num_dims; ++d) {
      uint64_t range_idx = 0;
      schema.SplitCoord(d, codes[d][i], &range_idx, &out.dim_offsets[d][k]);
    }
    for (size_t m = 0; m < num_metrics; ++m) {
      const size_t c = num_dims + m;
      const Value& v = records[i].values[c];
      switch (schema.metrics()[m].type) {
        case DataType::kInt64:
          out.metric_ints[m][k] = v.as_int64();
          break;
        case DataType::kDouble:
          out.metric_doubles[m][k] = v.ToDouble().value();
          break;
        case DataType::kString:
          out.metric_ints[m][k] = static_cast<int64_t>(codes[c][i]);
          break;
      }
    }
    if (k + 1 == keys.size() || keys[k + 1].first != keys[k].first) {
      out.bids.push_back(keys[k].first);
      out.starts.push_back(k + 1);
    }
  }
  return out;
}

}  // namespace

Result<ParseOutput> ParseRecords(const CubeSchema& schema,
                                 const std::vector<Record>& records,
                                 const ParseOptions& options, size_t) {
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

  // codes[c][i]: record i's coordinate in dimension c, or its dictionary id
  // in string metric c.
  const size_t n = records.size();
  const std::vector<size_t> string_cols = StringColumns(schema);
  std::vector<std::vector<uint64_t>> codes(schema.num_columns());
  for (size_t d = 0; d < schema.num_dimensions(); ++d) codes[d].resize(n);
  for (size_t c : string_cols) codes[c].resize(n);

  Rejections rejects(n, options.max_errors);
  for (size_t i = 0; i < n; ++i) {
    const Status checked = CheckRecord(schema, records[i], i, &codes);
    if (!checked.ok()) rejects.Add(i, checked);
  }

  std::vector<NewStrings> fresh(string_cols.size());
  uint64_t hits = 0;
  for (size_t k = 0; k < string_cols.size(); ++k) {
    const size_t c = string_cols[k];
    hits += LookUpColumn(schema, records, c, &rejects, &codes[c], &fresh[k]);
  }
  lookup_hits->Add(hits);

  // A load already past max_rejected is discarded without inserting
  // anything; a racing load can still push one past it during the inserts.
  uint64_t added = 0;
  for (size_t k = 0;
       k < string_cols.size() && rejects.count() <= options.max_rejected;
       ++k) {
    const size_t c = string_cols[k];
    added += InsertColumn(schema, c, fresh[k], &rejects, &codes[c]);
  }
  strings_added->Add(added);
  rejected->Add(rejects.count());
  if (rejects.count() > options.max_rejected) {
    return rejects.Discard(options.max_rejected);
  }

  const uint64_t kept = n - rejects.count();
  accepted->Add(kept);
  batches->Add();
  return ParseOutput{PartitionByBrick(schema, records, codes, rejects), kept,
                     rejects.count(), rejects.TakeErrors()};
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
