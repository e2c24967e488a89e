#include "engine/table.h"

#include <algorithm>
#include <numeric>

#include "aosi/purge.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cubrick {

void PurgeStats::PublishTo(obs::MetricsRegistry& reg) const {
  // Purge rounds are rare; the registry lookups are not worth caching.
  reg.GetCounter("aosi.purge.bricks_examined")->Add(bricks_examined);
  reg.GetCounter("aosi.purge.bricks_rewritten")->Add(bricks_rewritten);
  reg.GetCounter("aosi.purge.bricks_erased")->Add(bricks_erased);
  reg.GetCounter("aosi.purge.records_reclaimed")->Add(records_removed);
}

Table::Table(std::shared_ptr<const CubeSchema> schema, size_t num_shards,
             bool threaded, bool rollback_index)
    : schema_(std::move(schema)) {
  CUBRICK_CHECK(num_shards >= 1);
  append_stages_.reserve(num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    append_stages_.push_back(std::make_unique<AppendStage>());
    shards_.push_back(std::make_unique<Shard>(schema_, threaded));
  }
  if (rollback_index) {
    rollback_index_.emplace();
  }
}

BatchView::BatchView(EncodedBatch&& whole)
    : batch(std::make_shared<const EncodedBatch>(std::move(whole))),
      partitions(batch->num_partitions()) {
  std::iota(partitions.begin(), partitions.end(), size_t{0});
}

Status Table::Append(aosi::Epoch epoch, BatchView view) {
  // ingest.flush_us records the synchronous flush wait — what a load
  // request spends behind the shard queues (docs/OBSERVABILITY.md).
  static obs::Histogram* flush_us =
      obs::MetricsRegistry::Global().GetHistogram("ingest.flush_us");
  obs::ObsSpan span(flush_us);
  const EncodedBatch& batch = *view.batch;
  // Route partition indexes to shards off-lock, then stage one view per
  // shard in one mutex hold. A shard whose drain op is already queued or
  // running picks the new view up in the same op (group append).
  std::vector<std::vector<size_t>> per_shard(shards_.size());
  for (size_t p : view.partitions) {
    CUBRICK_CHECK(p < batch.num_partitions() &&
                  batch.starts[p] < batch.starts[p + 1]);
    const Bid bid = batch.bids[p];
    if (rollback_index_) {
      rollback_index_->Note(epoch, bid);
    }
    per_shard[ShardOf(bid)].push_back(p);
  }
  const uint64_t items = static_cast<uint64_t>(
      std::count_if(per_shard.begin(), per_shard.end(),
                    [](const auto& parts) { return !parts.empty(); }));
  if (items == 0) return Status::OK();
  auto request = std::make_shared<PendingAppend>(items);
  std::future<void> done = request->done.get_future();
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    AppendStage* stage = append_stages_[s].get();
    bool schedule = false;
    {
      MutexLock lock(stage->mu);
      stage->staged.push_back(
          StagedView{epoch, view.batch, std::move(per_shard[s]), request});
      if (!stage->drain_scheduled) {
        stage->drain_scheduled = true;
        schedule = true;
      }
    }
    if (schedule) {
      shards_[s]->Enqueue(
          [stage](BrickMap& bricks) { DrainAppendStage(stage, bricks); });
    }
  }
  done.get();
  return Status::OK();
}

void Table::DrainAppendStage(AppendStage* stage, BrickMap& bricks) {
  static obs::Counter* group_appends =
      obs::MetricsRegistry::Global().GetCounter("ingest.group_appends");
  std::vector<StagedView> work;
  while (true) {
    {
      MutexLock lock(stage->mu);
      if (stage->staged.empty()) {
        stage->drain_scheduled = false;
        return;
      }
      work.swap(stage->staged);
    }
    // A request stages one view per shard, so every view past the first is
    // one load this slice coalesced.
    if (work.size() > 1) group_appends->Add(work.size() - 1);
    for (StagedView& staged : work) {
      const EncodedBatch& batch = *staged.batch;
      for (size_t p : staged.partitions) {
        bricks.GetOrCreate(batch.bids[p]).AppendBatch(staged.epoch, batch, p);
      }
      if (staged.request->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        staged.request->done.set_value();
      }
    }
    work.clear();
  }
}

Status Table::DeleteWhere(aosi::Epoch epoch,
                          const std::vector<FilterClause>& filters) {
  CUBRICK_RETURN_IF_ERROR(CheckDeleteGranularity(filters));
  MarkDeleted(epoch, filters);
  return Status::OK();
}

Status Table::CheckDeleteGranularity(
    const std::vector<FilterClause>& filters) {
  Query probe;
  probe.filters = filters;
  CUBRICK_RETURN_IF_ERROR(ValidateQuery(*schema_, probe));
  std::vector<Status> shard_status(shards_.size());
  OnEveryShard([&probe, &shard_status](size_t s, BrickMap& bricks) {
    Status& out = shard_status[s];
    bricks.ForEach([&](Brick& brick) {
      if (!out.ok()) return;
      if (BrickIntersectsFilters(brick, probe) &&
          !BrickCoveredByFilters(brick, probe)) {
        out = Status::InvalidArgument(
            "delete predicate only partially covers brick " +
            std::to_string(brick.bid()) +
            "; AOSI deletes are partition-granular");
      }
    });
  });
  for (const auto& st : shard_status) {
    CUBRICK_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

void Table::MarkDeleted(aosi::Epoch epoch,
                        const std::vector<FilterClause>& filters) {
  Query probe;
  probe.filters = filters;
  RollbackIndex* index = rollback_index_ ? &*rollback_index_ : nullptr;
  OnEveryShard([&probe, epoch, index](size_t, BrickMap& bricks) {
    bricks.ForEach([&](Brick& brick) {
      if (brick.num_records() > 0 && BrickCoveredByFilters(brick, probe)) {
        brick.MarkDeleted(epoch);
        if (index != nullptr) index->Note(epoch, brick.bid());
      }
    });
  });
}

QueryResult Table::Scan(const aosi::Snapshot& snapshot, ScanMode mode,
                        const Query& query,
                        const std::function<bool(Bid)>& brick_filter,
                        size_t parallelism, bool visibility_cache) {
  static obs::Counter* scans =
      obs::MetricsRegistry::Global().GetCounter("query.scans_total");
  static obs::Histogram* latency =
      obs::MetricsRegistry::Global().GetHistogram("query.latency_us");
  static obs::Histogram* result_merge_us =
      obs::MetricsRegistry::Global().GetHistogram("query.result_merge_us");
  scans->Add();
  obs::ObsSpan span(latency);
  const size_t num_shards = shards_.size();
  std::vector<GroupTable> partials(
      num_shards, GroupTable(query.group_by.size(), query.aggs.size()));
  OnEveryShard([&](size_t s, BrickMap& bricks) {
    // This op's share of the request's worker budget (see table.h).
    const size_t workers = std::max<size_t>(
        1, parallelism / num_shards + (s < parallelism % num_shards ? 1 : 0));
    std::vector<const Brick*> candidates;
    bricks.ForEach([&](const Brick& brick) {
      if (!brick_filter || brick_filter(brick.bid())) {
        candidates.push_back(&brick);
      }
    });
    partials[s] = ScanBricks(candidates, snapshot, mode, query, workers,
                             visibility_cache);
  });
  obs::ObsSpan merge_span(result_merge_us);
  GroupTable& merged = partials[0];
  for (size_t s = 1; s < num_shards; ++s) merged.MergeFrom(partials[s]);
  return merged.ToResult();
}

ScanPlanStats Table::ExplainScan(const Query& query) {
  ScanPlanStats stats;
  VisitBricks(
      [&](const Brick& brick) { ExplainBrick(brick, query, &stats); });
  stats.PublishTo(obs::MetricsRegistry::Global());
  return stats;
}

std::vector<MaterializedRow> Table::Materialize(
    const aosi::Snapshot& snapshot, ScanMode mode, const Query& query,
    const MaterializeOptions& options) {
  std::vector<MaterializedRow> rows;
  // MaterializeBrick returns at once when `rows` is full.
  VisitBricks([&](const Brick& brick) {
    MaterializeBrick(brick, snapshot, mode, query, options, &rows);
  });
  return rows;
}

PurgeStats Table::Purge(aosi::Epoch lse) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::ObsSpan round_span(reg.GetHistogram("aosi.purge.round_us"));
  if (rollback_index_) {
    // Transactions at or before LSE are finished: their index entries can
    // never be used and would otherwise grow without bound.
    rollback_index_->DiscardUpTo(lse);
  }
  obs::Histogram* pause = reg.GetHistogram("aosi.purge.pause_us");
  obs::Counter* conflicts = reg.GetCounter("aosi.purge.conflicts");

  // Each shard op of the pipeline is timed individually, so pause_us
  // records the slices scans actually wait behind, not the whole round.
  const auto timed = [pause](Shard& shard,
                             std::function<void(BrickMap&)> op) {
    shard
        .Enqueue([pause, op = std::move(op)](BrickMap& bricks) {
          obs::ObsSpan span(pause);
          op(bricks);
        })
        .get();
  };

  PurgeStats total;
  uint64_t total_entries = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];

    // Op 1 (O(history entries)): take shared handles to the shard's
    // bricks that have work at `lse`, by PlanPurge's own predicate. A brick
    // left out is left untouched, which is always correct; work that
    // appears after this op waits for the next round. Another round may
    // erase a brick before this round reaches it; the handle keeps it
    // alive, so later ops touch only the object planned against, never a
    // brick created since under the same bid.
    std::vector<std::shared_ptr<Brick>> shard_bricks;
    timed(shard, [&](BrickMap& bricks) {
      total.bricks_examined += bricks.size();
      shard_bricks = bricks.Handles([lse](const Brick& brick) {
        return aosi::HasPurgeWork(brick.history(), lse);
      });
    });

    for (const std::shared_ptr<Brick>& brick : shard_bricks) {
      // Bounded replan loop: a mutation between plan and install refuses
      // the install; purge is periodic, so after a few refusals the brick
      // simply waits for the next round.
      for (int attempt = 0; attempt < 3; ++attempt) {
        // Op 2 (O(entries + bytes)): plan against the live history and
        // copy the columns the plan filters, at one version.
        uint64_t version = 0;
        aosi::CompactionPlan plan;
        std::optional<BessColumn> bess_copy;
        std::vector<MetricColumn> metric_copies;
        timed(shard, [&](BrickMap&) {
          version = brick->history().version();
          plan = aosi::PlanPurge(brick->history(), lse);
          if (plan.needed) {
            brick->SnapshotColumnsForCompaction(&bess_copy, &metric_copies);
          }
        });
        if (!plan.needed) break;

        // Off the shard: the expensive part — filter every column down to
        // the plan's keep rows, against the copies.
        const auto keep = [&plan](uint64_t row) {
          return plan.keep.Get(row);
        };
        BessColumn new_bess = bess_copy->CompactedCopy(keep);
        std::vector<MetricColumn> new_metrics;
        new_metrics.reserve(metric_copies.size());
        for (const auto& m : metric_copies) {
          new_metrics.push_back(m.CompactedCopy(keep));
        }

        // Op 3 (O(history entries)): version-checked install of the
        // rebuilt columns.
        bool installed = false;
        uint64_t removed = 0;
        timed(shard, [&](BrickMap&) {
          const uint64_t before = brick->num_records();
          installed = brick->InstallCompaction(version, plan,
                                               std::move(new_bess),
                                               std::move(new_metrics));
          if (installed) removed = before - brick->num_records();
        });
        if (!installed) {
          conflicts->Add();
          continue;
        }
        ++total.bricks_rewritten;
        total.records_removed += removed;
        break;
      }
    }

    // Op 4 (O(bricks)): count surviving history entries and erase bricks
    // the round left fully dead.
    timed(shard, [&](BrickMap& bricks) {
      std::vector<Bid> dead;
      bricks.ForEach([&](Brick& brick) {
        total_entries += brick.history().num_entries();
        if (brick.num_records() == 0 && brick.history().num_entries() == 0) {
          dead.push_back(brick.bid());
        }
      });
      for (Bid bid : dead) {
        bricks.Erase(bid);
        ++total.bricks_erased;
      }
    });
  }
  reg.GetCounter("aosi.purge.rounds_total")->Add();
  // Post-purge epochs-vector footprint: how much §III-C history the table
  // still carries (grows between purges, shrinks as LSE advances).
  reg.GetGauge("aosi.epochs_vector_entries")
      ->Set(static_cast<int64_t>(total_entries));
  total.PublishTo(reg);
  return total;
}

void Table::Rollback(aosi::Epoch victim) {
  // Indexed path (§III-C5's alternative): each shard visits only the
  // victim's bricks, skipping every untouched partition's epochs vector.
  std::optional<std::vector<std::vector<Bid>>> indexed;
  if (rollback_index_) {
    indexed.emplace(shards_.size());
    for (Bid bid : rollback_index_->Take(victim)) {
      (*indexed)[ShardOf(bid)].push_back(bid);
    }
  }
  OnEveryShard([victim, &indexed](size_t s, BrickMap& bricks) {
    const auto roll_back = [victim](Brick& brick) {
      auto plan = aosi::PlanRollback(brick.history(), victim);
      if (plan.needed) {
        brick.ApplyCompaction(plan);
      }
    };
    if (!indexed) {
      bricks.ForEach(roll_back);
      return;
    }
    for (Bid bid : (*indexed)[s]) {
      if (Brick* brick = bricks.Find(bid)) roll_back(*brick);
    }
  });
}

void Table::TruncateAfter(aosi::Epoch lse) {
  OnEveryShard([lse](size_t, BrickMap& bricks) {
    std::vector<Bid> dead;
    bricks.ForEach([&](Brick& brick) {
      auto plan = aosi::PlanRetainUpTo(brick.history(), lse);
      if (plan.needed) {
        brick.ApplyCompaction(plan);
      }
      if (brick.num_records() == 0 && brick.history().num_entries() == 0) {
        dead.push_back(brick.bid());
      }
    });
    for (Bid bid : dead) bricks.Erase(bid);
  });
}

void Table::Drain() {
  OnEveryShard([](size_t, BrickMap&) {});
}

void Table::VisitBricks(const std::function<void(const Brick&)>& fn) {
  for (auto& shard : shards_) {
    shard
        ->Enqueue([&fn](BrickMap& bricks) {
          bricks.ForEach([&](const Brick& brick) { fn(brick); });
        })
        .get();
  }
}

void Table::ApplyToBrick(Bid bid, const std::function<void(Brick&)>& fn) {
  shards_[ShardOf(bid)]
      ->Enqueue([bid, &fn](BrickMap& bricks) { fn(bricks.GetOrCreate(bid)); })
      .get();
}

uint64_t Table::TotalRecords() {
  return SumOverShards(
      [](const BrickMap& bricks) { return bricks.TotalRecords(); });
}

uint64_t Table::NumBricks() {
  return SumOverShards([](const BrickMap& bricks) { return bricks.size(); });
}

size_t Table::DataMemoryUsage() {
  return SumOverShards(
      [](const BrickMap& bricks) { return bricks.DataMemoryUsage(); });
}

size_t Table::HistoryMemoryUsage() {
  return SumOverShards(
      [](const BrickMap& bricks) { return bricks.HistoryMemoryUsage(); });
}

void Table::OnEveryShard(const std::function<void(size_t, BrickMap&)>& op) {
  std::vector<std::future<void>> done;
  done.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    done.push_back(
        shards_[s]->Enqueue([&op, s](BrickMap& bricks) { op(s, bricks); }));
  }
  // Every op borrows `op` and the caller's state: wait for all of them
  // before get() can rethrow one's failure.
  for (auto& f : done) f.wait();
  for (auto& f : done) f.get();
}

uint64_t Table::SumOverShards(
    const std::function<uint64_t(const BrickMap&)>& count) {
  std::vector<uint64_t> per_shard(shards_.size());
  OnEveryShard(
      [&](size_t s, BrickMap& bricks) { per_shard[s] = count(bricks); });
  return std::accumulate(per_shard.begin(), per_shard.end(), uint64_t{0});
}

}  // namespace cubrick
