// Random loads for the ingest partition test (ingest_parser_test.cc):
// records over two cubes with rejects at random positions, and the
// partition contract every parse must meet.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ingest/parser.h"

namespace cubrick::ingest_test {

/// A string dimension (dictionary-encoded) beside an int one, and a string
/// metric.
inline std::shared_ptr<CubeSchema> StringDimCube() {
  return CubeSchema::Make("strings",
                          {{"region", 64, 4, /*is_string=*/true},
                           {"day", 32, 8, /*is_string=*/false}},
                          {{"n", DataType::kInt64},
                           {"score", DataType::kDouble},
                           {"tag", DataType::kString}})
      .value();
}

/// Four dimensions of 2^16 ranges each: the bid uses all 64 bits, so a
/// partition cannot lean on a small bid space.
inline std::shared_ptr<CubeSchema> WideBidCube() {
  std::vector<DimensionDef> dims;
  for (const char* name : {"a", "b", "c", "d"}) {
    dims.push_back({name, uint64_t{1} << 20, 16, /*is_string=*/false});
  }
  return CubeSchema::Make("wide", std::move(dims), {{"n", DataType::kInt64}})
      .value();
}

struct RandomLoad {
  std::vector<Record> records;
  /// Whether the parser must accept records[i].
  std::vector<bool> accepted;
};

/// `n` random records over `schema`. About one in `reject_one_in` is broken
/// at a random place: a missing column, a dimension value past its
/// cardinality or of the wrong type, or a string where metric "n" expects
/// an integer. Metric 0 ("n") holds the record index, so every batch row
/// names the record it came from.
inline RandomLoad MakeRandomLoad(const CubeSchema& schema, size_t n,
                                 uint64_t seed, uint64_t reject_one_in = 8) {
  Random rng(seed);
  RandomLoad load;
  const size_t num_dims = schema.num_dimensions();
  for (size_t i = 0; i < n; ++i) {
    Record record;
    for (const DimensionDef& def : schema.dimensions()) {
      const uint64_t coord = rng.Uniform(def.cardinality);
      if (def.is_string) {
        record.values.emplace_back(
            std::string("s").append(std::to_string(coord)));
      } else {
        record.values.emplace_back(static_cast<int64_t>(coord));
      }
    }
    for (size_t m = 0; m < schema.num_metrics(); ++m) {
      switch (schema.metrics()[m].type) {
        case DataType::kInt64:
          record.values.emplace_back(
              m == 0 ? static_cast<int64_t>(i)
                     : static_cast<int64_t>(rng.Uniform(1000)));
          break;
        case DataType::kDouble:
          record.values.emplace_back(rng.NextDouble());
          break;
        case DataType::kString:
          record.values.emplace_back(
              std::string("t").append(std::to_string(rng.Uniform(16))));
          break;
      }
    }
    const bool reject = rng.OneIn(reject_one_in);
    if (reject) {
      switch (rng.Uniform(3)) {
        case 0:
          record.values.pop_back();
          break;
        case 1: {
          const size_t d = rng.Uniform(num_dims);
          const DimensionDef& def = schema.dimensions()[d];
          record.values[d] =
              def.is_string ? Value(int64_t{7})
                            : Value(static_cast<int64_t>(def.cardinality));
          break;
        }
        default:
          record.values[num_dims] = Value("not-a-number");
          break;
      }
    }
    load.records.push_back(std::move(record));
    load.accepted.push_back(!reject);
  }
  return load;
}

/// Encoded coordinates of an accepted record (dictionary ids for strings).
inline std::vector<uint64_t> CoordsOf(const CubeSchema& schema,
                                      const Record& record) {
  std::vector<uint64_t> coords;
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    const Value& v = record.values[d];
    coords.push_back(schema.dimensions()[d].is_string
                         ? schema.dictionary(d)->Encode(v.as_string()).value()
                         : static_cast<uint64_t>(v.as_int64()));
  }
  return coords;
}

/// The partition contract: the batch holds exactly the accepted records;
/// partition p holds every accepted record whose bid is bids[p], in record
/// order; bids ascend, so none repeats; and every row encodes its record.
inline void ExpectPartitionedLoad(const CubeSchema& schema,
                                  const RandomLoad& load,
                                  const ParseOutput& out) {
  const EncodedBatch& batch = out.batches;
  const Status valid = batch.Validate(schema);
  ASSERT_TRUE(valid.ok()) << valid.ToString();

  std::map<Bid, std::vector<size_t>> expected;
  uint64_t accepted = 0;
  for (size_t i = 0; i < load.records.size(); ++i) {
    if (!load.accepted[i]) continue;
    ++accepted;
    const auto coords = CoordsOf(schema, load.records[i]);
    expected[schema.BidFor(coords).value()].push_back(i);
  }
  EXPECT_EQ(out.accepted, accepted);
  EXPECT_EQ(out.rejected, load.records.size() - accepted);
  ASSERT_EQ(batch.num_rows, accepted);
  ASSERT_EQ(batch.num_partitions(), expected.size());

  size_t p = 0;
  for (const auto& [bid, indexes] : expected) {
    ASSERT_EQ(batch.bids[p], bid) << "partition " << p;
    ASSERT_EQ(batch.starts[p + 1] - batch.starts[p], indexes.size())
        << "partition " << p;
    for (size_t k = 0; k < indexes.size(); ++k) {
      const uint64_t row = batch.starts[p] + k;
      const Record& record = load.records[indexes[k]];
      // Metric 0 is the record index: the rows follow record order.
      ASSERT_EQ(batch.metric_ints[0][row], static_cast<int64_t>(indexes[k]));
      const auto coords = CoordsOf(schema, record);
      for (size_t d = 0; d < schema.num_dimensions(); ++d) {
        EXPECT_EQ(batch.dim_offsets[d][row],
                  coords[d] % schema.dimensions()[d].range_size);
      }
      for (size_t m = 1; m < schema.num_metrics(); ++m) {
        const Value& v = record.values[schema.num_dimensions() + m];
        switch (schema.metrics()[m].type) {
          case DataType::kInt64:
            EXPECT_EQ(batch.metric_ints[m][row], v.as_int64());
            break;
          case DataType::kDouble:
            EXPECT_EQ(batch.metric_doubles[m][row], v.as_double());
            break;
          case DataType::kString:
            EXPECT_EQ(schema.dictionary(schema.num_dimensions() + m)
                          ->Decode(static_cast<uint64_t>(
                              batch.metric_ints[m][row]))
                          .value(),
                      v.as_string());
            break;
        }
      }
    }
    ++p;
  }
}

}  // namespace cubrick::ingest_test
