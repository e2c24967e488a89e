#include "persist/flush_manager.h"

#include <filesystem>
#include <functional>

#include "common/stopwatch.h"
#include "engine/run_extract.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "persist/serializer.h"

namespace cubrick::persist {

namespace {
constexpr uint64_t kSegmentMagic = 0x3147455343425243ULL;   // "CBRCSEG1"
constexpr uint64_t kManifestMagic = 0x314e414d43425243ULL;  // "CBRCMAN1"
constexpr uint64_t kDictMagic = 0x3154434443425243ULL;      // "CBRCDCT1"

/// OK unless a string-dimension coordinate or string-metric id of the
/// one-brick run `batch` (brick `bid`) lies past its recovered dictionary.
Status CheckStringIds(const CubeSchema& schema, const EncodedBatch& batch,
                      Bid bid) {
  const size_t dims = schema.num_dimensions();
  for (size_t d = 0; d < dims; ++d) {
    const StringDictionary* dict = schema.dictionary(d);
    if (dict == nullptr) continue;
    const uint64_t known = dict->size();
    const uint64_t base =
        schema.RangeIndexOf(bid, d) * schema.dimensions()[d].range_size;
    for (uint64_t offset : batch.dim_offsets[d]) {
      if (base + offset >= known) {
        return Status::IOError("dimension " + std::to_string(d) + " id " +
                               std::to_string(base + offset) +
                               " is missing from its dictionary");
      }
    }
  }
  for (size_t m = 0; m < schema.num_metrics(); ++m) {
    const StringDictionary* dict = schema.dictionary(dims + m);
    if (dict == nullptr) continue;
    const uint64_t known = dict->size();
    for (int64_t id : batch.metric_ints[m]) {
      if (id < 0 || static_cast<uint64_t>(id) >= known) {
        return Status::IOError("metric " + std::to_string(m) + " id " +
                               std::to_string(id) +
                               " is missing from its dictionary");
      }
    }
  }
  return Status::OK();
}

/// Writes `path` through `write` into `path`.tmp, then renames it over
/// `path`: a crash or failed write part-way leaves the old file whole.
Status ReplaceFile(const std::string& path,
                   const std::function<void(BinaryWriter&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    BinaryWriter writer(tmp);
    write(writer);
    CUBRICK_RETURN_IF_ERROR(writer.Finish());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename of " + tmp + " failed: " + ec.message());
  }
  return Status::OK();
}
}  // namespace

FlushManager::FlushManager(std::string dir, std::string cube_name)
    : dir_(std::move(dir)), cube_name_(std::move(cube_name)) {}

std::string FlushManager::SegmentPath(uint64_t round) const {
  return dir_ + "/" + cube_name_ + ".seg." + std::to_string(round);
}
std::string FlushManager::DictPath() const {
  return dir_ + "/" + cube_name_ + ".dict";
}
std::string FlushManager::ManifestPath() const {
  return dir_ + "/" + cube_name_ + ".manifest";
}

Status FlushManager::WriteManifest(uint64_t rounds, aosi::Epoch lse) const {
  return ReplaceFile(ManifestPath(), [&](BinaryWriter& writer) {
    writer.WriteU64(kManifestMagic);
    writer.WriteU64(rounds);
    writer.WriteU64(lse);
  });
}

Result<FlushManager::Manifest> FlushManager::ReadManifest() const {
  std::error_code ec;
  if (!std::filesystem::exists(ManifestPath(), ec) && !ec) return Manifest{};
  BinaryReader reader(ManifestPath());
  auto magic = reader.ReadU64();
  auto rounds = reader.ReadU64();
  auto lse = reader.ReadU64();
  if (!magic.ok() || *magic != kManifestMagic || !rounds.ok() ||
      !lse.ok() || *rounds == 0) {
    return Status::IOError("corrupt manifest " + ManifestPath());
  }
  return Manifest{*rounds, *lse};
}

aosi::Epoch FlushManager::ManifestLse() const {
  return ReadManifest().value_or(Manifest{}).lse;
}

uint64_t FlushManager::ManifestRounds() const {
  return ReadManifest().value_or(Manifest{}).rounds;
}

Status FlushManager::WriteDictionaries(const CubeSchema& schema) const {
  return ReplaceFile(DictPath(), [&schema](BinaryWriter& writer) {
    writer.WriteU64(kDictMagic);
    writer.WriteU64(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      StringDictionary* dict = schema.dictionary(c);
      if (dict == nullptr) {
        writer.WriteU64(0);
        continue;
      }
      const uint64_t n = dict->size();
      writer.WriteU64(n);
      for (uint64_t id = 0; id < n; ++id) {
        writer.WriteString(dict->Decode(id).value());
      }
    }
  });
}

Status FlushManager::ReadDictionaries(const CubeSchema& schema) const {
  BinaryReader reader(DictPath());
  if (!reader.ok()) return Status::OK();  // no string columns ever flushed
  const auto corrupt = [](const std::string& what) {
    return Status::IOError("corrupt dictionary file: " + what);
  };
  auto magic = reader.ReadU64();
  if (!magic.ok() || *magic != kDictMagic) return corrupt("bad magic");
  auto cols = reader.ReadU64();
  if (!cols.ok() || *cols != schema.num_columns()) {
    return corrupt("column count mismatch");
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    auto n = reader.ReadU64();
    if (!n.ok()) return corrupt(n.status().message());
    StringDictionary* dict = schema.dictionary(c);
    if (*n > 0 && dict == nullptr) {
      return corrupt("dictionary for non-string column");
    }
    for (uint64_t id = 0; id < *n; ++id) {
      auto s = reader.ReadString();
      if (!s.ok()) return corrupt(s.status().message());
      const uint64_t assigned = dict->EncodeOrAdd(*s);
      if (assigned != id) return corrupt("id mismatch");
    }
  }
  return Status::OK();
}

void FlushRoundStats::PublishTo(obs::MetricsRegistry& reg) const {
  // Flush rounds are background work; no instrument caching needed.
  reg.GetCounter("persist.rows_flushed")->Add(rows_written);
  reg.GetCounter("persist.delete_markers_flushed")
      ->Add(delete_markers_written);
  reg.GetCounter("persist.bricks_flushed")->Add(bricks_touched);
}

Result<FlushRoundStats> FlushManager::FlushRound(Table* table,
                                                 aosi::Epoch from_lse,
                                                 aosi::Epoch to_lse) {
  CUBRICK_CHECK(aosi::AtOrBefore(from_lse, to_lse));
  MutexLock lock(io_mu_);
  // Re-resolve the resume point under the lock: a concurrent round may have
  // advanced the manifest past the caller's snapshot of ManifestLse(), and
  // re-flushing that range would duplicate rows on recovery. An unreadable
  // manifest fails the round rather than overwrite round 1.
  auto manifest = ReadManifest();
  if (!manifest.ok()) return manifest.status();
  if (aosi::AtOrBefore(from_lse, manifest->lse)) from_lse = manifest->lse;
  if (aosi::AtOrBefore(to_lse, from_lse)) return FlushRoundStats{};
  obs::ObsSpan span(
      obs::MetricsRegistry::Global().GetHistogram("persist.flush_us"));
  const CubeSchema& schema = table->schema();
  const uint64_t round = manifest->rounds + 1;
  FlushRoundStats stats;

  BinaryWriter writer(SegmentPath(round));
  writer.WriteU64(kSegmentMagic);
  writer.WriteU64(round);
  writer.WriteU64(from_lse);
  writer.WriteU64(to_lse);

  // Bricks are written as they are visited; the count is unknown upfront,
  // so each brick block is prefixed with a has-more flag. Runs are decoded
  // one at a time into one reused batch. io_mu_ is held across the
  // shard-queue round on purpose: it serializes whole flush rounds against
  // each other and is never taken on a lookup or query path, so a blocked
  // holder stalls only other maintenance.
  EncodedBatch batch(schema);
  table->VisitBricks([&](const Brick& brick) {  // aosi-lint: allow(hold-across-blocking)
    const auto runs = SelectBrickRuns(brick, from_lse, to_lse);
    if (runs.empty()) return;
    ++stats.bricks_touched;
    writer.WriteU8(1);  // has-more
    writer.WriteU64(brick.bid());
    writer.WriteU64(runs.size());
    for (const auto& run : runs) {
      writer.WriteU64(run.epoch);
      writer.WriteU8(run.is_delete ? 1 : 0);
      if (run.is_delete) {
        ++stats.delete_markers_written;
        continue;
      }
      DecodeRun(brick, run, &batch);
      writer.WriteU64(batch.num_rows);
      stats.rows_written += batch.num_rows;
      for (const auto& offsets : batch.dim_offsets) {
        writer.WriteVector(offsets);
      }
      for (size_t m = 0; m < schema.num_metrics(); ++m) {
        if (schema.metrics()[m].type == DataType::kDouble) {
          writer.WriteVector(batch.metric_doubles[m]);
        } else {
          writer.WriteVector(batch.metric_ints[m]);
        }
      }
    }
  });
  writer.WriteU8(0);  // end of bricks
  CUBRICK_RETURN_IF_ERROR(writer.Finish());

  // Dictionaries must be durable before the manifest declares the round
  // complete: recovered coordinates are meaningless without them.
  CUBRICK_RETURN_IF_ERROR(WriteDictionaries(schema));
  CUBRICK_RETURN_IF_ERROR(WriteManifest(round, to_lse));
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("persist.flush_rounds_total")->Add();
  stats.PublishTo(reg);
  return stats;
}

Result<RecoveryResult> FlushManager::Recover(Table* table) {
  MutexLock lock(io_mu_);
  const Stopwatch clock;
  auto manifest = ReadManifest();
  if (!manifest.ok()) return manifest.status();
  RecoveryResult result;
  result.lse = manifest->lse;
  if (manifest->rounds == 0) return result;

  const CubeSchema& schema = table->schema();
  CUBRICK_RETURN_IF_ERROR(ReadDictionaries(schema));

  for (uint64_t round = 1; round <= manifest->rounds; ++round) {
    BinaryReader reader(SegmentPath(round));
    if (!reader.ok()) {
      return Status::IOError("missing flush segment " + std::to_string(round));
    }
    const auto corrupt_segment = [round](const std::string& what) {
      return Status::IOError("corrupt flush segment " + std::to_string(round) +
                             ": " + what);
    };
    auto magic = reader.ReadU64();
    auto header_round = reader.ReadU64();
    auto from_lse = reader.ReadU64();
    auto to_lse = reader.ReadU64();
    if (!magic.ok() || *magic != kSegmentMagic || !header_round.ok() ||
        *header_round != round || !from_lse.ok() || !to_lse.ok()) {
      return corrupt_segment("bad header");
    }
    // The manifest commits the last round's LSE, so the two must agree.
    if (round == manifest->rounds &&
        !aosi::SameEpoch(*to_lse, manifest->lse)) {
      return corrupt_segment("its LSE " + std::to_string(*to_lse) +
                             " is not the manifest's " +
                             std::to_string(manifest->lse));
    }

    // The whole round is read and checked before any of it is applied.
    std::vector<ExtractedBrick> bricks;
    while (true) {
      auto has_more = reader.ReadU8();
      if (!has_more.ok()) return corrupt_segment(has_more.status().message());
      if (*has_more == 0) break;
      auto bid = reader.ReadU64();
      auto num_runs = reader.ReadU64();
      if (!bid.ok() || !num_runs.ok()) {
        return corrupt_segment("truncated brick header");
      }
      const auto corrupt = [round, &bid](const std::string& what) {
        return Status::IOError("corrupt flush segment " +
                               std::to_string(round) + ", brick " +
                               std::to_string(*bid) + ": " + what);
      };
      if (!schema.IsValidBid(*bid)) return corrupt("bid names no brick");
      ExtractedBrick& brick = bricks.emplace_back();
      brick.bid = *bid;
      for (uint64_t r = 0; r < *num_runs; ++r) {
        auto epoch = reader.ReadU64();
        auto is_delete = reader.ReadU8();
        if (!epoch.ok() || !is_delete.ok()) {
          return corrupt("truncated run header");
        }
        // FlushRound writes only runs of its own (from_lse, to_lse].
        if (!aosi::InEpochRange(*epoch, *from_lse, *to_lse)) {
          return corrupt("run epoch " + std::to_string(*epoch) +
                         " lies outside the round's (" +
                         std::to_string(*from_lse) + ", " +
                         std::to_string(*to_lse) + "]");
        }
        ExtractedRun& run = brick.runs.emplace_back(schema);
        run.epoch = *epoch;
        run.is_delete = *is_delete != 0;
        if (run.is_delete) continue;
        auto n = reader.ReadU64();
        if (!n.ok()) return corrupt(n.status().message());
        EncodedBatch& batch = run.batch;
        batch.num_rows = *n;
        for (size_t d = 0; d < schema.num_dimensions(); ++d) {
          auto offsets = reader.ReadVector<uint64_t>();
          if (!offsets.ok()) return corrupt(offsets.status().message());
          batch.dim_offsets[d] = std::move(*offsets);
        }
        for (size_t m = 0; m < schema.num_metrics(); ++m) {
          if (schema.metrics()[m].type == DataType::kDouble) {
            auto values = reader.ReadVector<double>();
            if (!values.ok()) return corrupt(values.status().message());
            batch.metric_doubles[m] = std::move(*values);
          } else {
            auto values = reader.ReadVector<int64_t>();
            if (!values.ok()) return corrupt(values.status().message());
            batch.metric_ints[m] = std::move(*values);
          }
        }
        batch.ClosePartition(*bid);
        // A run that would trip a brick's checks, or decode an id its
        // dictionary lacks, must fail here as a Status: on a shard thread
        // it would abort or strand the append, and a query would abort.
        Status valid = batch.Validate(schema);
        if (valid.ok()) valid = CheckStringIds(schema, batch, *bid);
        if (!valid.ok()) return corrupt(valid.message());
        result.rows_recovered += *n;
      }
    }
    // io_mu_ across the shard queues is by design here too: Recover runs
    // on the startup path before any other maintenance, and the lock
    // guards only flush/recover, never lookups.
    CUBRICK_RETURN_IF_ERROR(
        ReplayExtracted(  // aosi-lint: allow(hold-across-blocking)
            table, std::move(bricks)));
    ++result.rounds_replayed;
  }
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("persist.rows_recovered")->Add(result.rows_recovered);
  reg.GetCounter("persist.rounds_replayed")->Add(result.rounds_replayed);
  reg.GetGauge("persist.last_recovery_us")->Set(clock.ElapsedMicros());
  return result;
}

}  // namespace cubrick::persist
