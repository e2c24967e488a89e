// Property-based tests over randomized transactional histories: the
// epochs-vector / visibility / purge / rollback machinery is checked against
// a naive per-record reference model for thousands of generated schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "aosi/purge.h"
#include "aosi/visibility.h"
#include "common/random.h"

namespace cubrick::aosi {
namespace {

// Reference model: every record individually stamped with its epoch; deletes
// recorded as (epoch, boundary). Visibility computed record-by-record from
// first principles.
struct RefModel {
  struct Rec {
    Epoch epoch;
  };
  struct Del {
    Epoch epoch;
    size_t boundary;
  };
  std::vector<Rec> records;
  std::vector<Del> deletes;

  void Append(Epoch e, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) records.push_back({e});
  }
  void Delete(Epoch e) { deletes.push_back({e, records.size()}); }

  bool Visible(size_t idx, const Snapshot& snap) const {
    if (!snap.Sees(records[idx].epoch)) return false;
    for (const auto& del : deletes) {
      if (!snap.Sees(del.epoch)) continue;
      if (records[idx].epoch < del.epoch) return false;
      if (records[idx].epoch == del.epoch && idx < del.boundary) {
        return false;
      }
    }
    return true;
  }

  Bitmap VisibilityBitmap(const Snapshot& snap) const {
    Bitmap bm(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      if (Visible(i, snap)) bm.Set(i);
    }
    return bm;
  }
};

struct GeneratedHistory {
  EpochVector ev;
  RefModel ref;
  Epoch max_epoch = 0;
};

GeneratedHistory Generate(Random* rng, int ops, double delete_prob) {
  GeneratedHistory h;
  // A pool of "active" epochs to mimic interleaved transactions, including
  // out-of-order arrivals (distributed logical clocks).
  for (int op = 0; op < ops; ++op) {
    const Epoch e = 1 + rng->Uniform(static_cast<uint64_t>(ops));
    h.max_epoch = std::max(h.max_epoch, e);
    if (rng->NextDouble() < delete_prob && h.ref.records.size() > 0) {
      h.ev.RecordDelete(e);
      h.ref.Delete(e);
    } else {
      const uint64_t count = 1 + rng->Uniform(5);
      h.ev.RecordAppend(e, count);
      h.ref.Append(e, count);
    }
  }
  return h;
}

/// A history of at least `min_records` records over epochs 1-40. Each
/// append repeats the previous op's transaction with probability
/// `repeat_prob`, which extends the back run in place when that op was an
/// append (paper Fig 1 (b)).
GeneratedHistory GenerateLong(Random* rng, uint64_t min_records,
                              double repeat_prob, double delete_prob) {
  GeneratedHistory h;
  Epoch last = 0;
  while (h.ref.records.size() < min_records) {
    const Epoch e =
        last != 0 && rng->NextDouble() < repeat_prob ? last : 1 + rng->Uniform(40);
    h.max_epoch = std::max(h.max_epoch, e);
    if (rng->NextDouble() < delete_prob && h.ref.records.size() > 0) {
      h.ev.RecordDelete(e);
      h.ref.Delete(e);
    } else {
      const uint64_t count = 1 + rng->Uniform(8);
      h.ev.RecordAppend(e, count);
      h.ref.Append(e, count);
    }
    last = e;
  }
  return h;
}

/// A snapshot at or past `max_epoch` half the time, with deps drawn below,
/// at and past its horizon MinEpoch(epoch, max_epoch): the deps the bitmap
/// build probes and the ones it may skip.
Snapshot SnapshotAroundHorizon(Random* rng, Epoch max_epoch) {
  Snapshot snap;
  snap.epoch = rng->OneIn(2) ? max_epoch + rng->Uniform(3)
                             : rng->Uniform(max_epoch + 1);
  const Epoch horizon = std::min(snap.epoch, max_epoch);
  std::vector<Epoch> deps;
  if (horizon > 1 && rng->OneIn(2)) deps.push_back(1 + rng->Uniform(horizon - 1));
  if (horizon > 0 && rng->OneIn(3)) deps.push_back(horizon);
  if (rng->OneIn(2)) deps.push_back(horizon + 1 + rng->Uniform(3));
  snap.deps = EpochSet(deps);
  return snap;
}

Snapshot RandomSnapshot(Random* rng, Epoch max_epoch) {
  Snapshot snap;
  snap.epoch = rng->Uniform(max_epoch + 2);
  std::vector<Epoch> deps;
  const size_t num_deps = rng->Uniform(4);
  for (size_t i = 0; i < num_deps; ++i) {
    deps.push_back(1 + rng->Uniform(max_epoch + 1));
  }
  snap.deps = EpochSet(deps);
  return snap;
}

class RandomHistoryTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHistoryTest,
                         ::testing::Range(0, 12));

TEST_P(RandomHistoryTest, VisibilityMatchesReferenceModel) {
  Random rng(1000 + static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 30; ++round) {
    auto h = Generate(&rng, 40, /*delete_prob=*/0.15);
    for (int probe = 0; probe < 20; ++probe) {
      const Snapshot snap = RandomSnapshot(&rng, h.max_epoch);
      const Bitmap actual = BuildVisibilityBitmap(h.ev, snap);
      const Bitmap expected = h.ref.VisibilityBitmap(snap);
      ASSERT_EQ(actual.ToString(), expected.ToString())
          << "history=" << h.ev.ToString() << " reader=" << snap.epoch
          << " deps=" << snap.deps.ToString();
    }
  }
  // Histories past one and two bitmap words, with back runs extended in
  // place and deps below, at and past the horizon. A snapshot that sees
  // the history whole must see every record.
  uint64_t seen_whole = 0;
  for (uint64_t min_records : {65u, 129u}) {
    for (int round = 0; round < 20; ++round) {
      auto h = GenerateLong(&rng, min_records, /*repeat_prob=*/0.3,
                            /*delete_prob=*/round % 2 == 0 ? 0.0 : 0.08);
      for (int probe = 0; probe < 20; ++probe) {
        const Snapshot snap = SnapshotAroundHorizon(&rng, h.max_epoch);
        const Bitmap expected = h.ref.VisibilityBitmap(snap);
        ASSERT_EQ(BuildVisibilityBitmap(h.ev, snap).ToString(),
                  expected.ToString())
            << "history=" << h.ev.ToString() << " reader=" << snap.epoch
            << " deps=" << snap.deps.ToString();
        if (SeesWhole(h.ev, snap)) {
          ++seen_whole;
          ASSERT_TRUE(expected.All())
              << "seen whole: history=" << h.ev.ToString()
              << " reader=" << snap.epoch << " deps=" << snap.deps.ToString();
        }
      }
    }
  }
  EXPECT_GT(seen_whole, 0u);
}

TEST_P(RandomHistoryTest, PurgePreservesFutureSnapshots) {
  Random rng(2000 + static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 20; ++round) {
    auto h = Generate(&rng, 30, 0.2);
    const Epoch lse = rng.Uniform(h.max_epoch + 2);
    auto plan = PlanPurge(h.ev, lse);
    if (!plan.needed) continue;

    // Every snapshot a future reader can hold: epoch >= lse, deps > lse.
    for (int probe = 0; probe < 15; ++probe) {
      Snapshot snap;
      snap.epoch = lse + rng.Uniform(h.max_epoch + 2);
      std::vector<Epoch> deps;
      for (size_t d = 0; d < rng.Uniform(3); ++d) {
        deps.push_back(lse + 1 + rng.Uniform(h.max_epoch + 1));
      }
      snap.deps = EpochSet(deps);

      const Bitmap before = BuildVisibilityBitmap(h.ev, snap);
      const Bitmap after = BuildVisibilityBitmap(plan.new_history, snap);
      // Kept rows must be exactly the visible rows, in order.
      std::vector<size_t> surviving_visible;
      size_t new_idx = 0;
      for (size_t i = 0; i < before.size(); ++i) {
        if (plan.keep.Get(i)) {
          ASSERT_LT(new_idx, after.size());
          ASSERT_EQ(after.Get(new_idx), before.Get(i))
              << "row " << i << " history=" << h.ev.ToString()
              << " purged=" << plan.new_history.ToString() << " lse=" << lse
              << " reader=" << snap.epoch;
          ++new_idx;
        } else {
          ASSERT_FALSE(before.Get(i))
              << "purge at lse=" << lse << " dropped row " << i
              << " visible to epoch " << snap.epoch
              << " history=" << h.ev.ToString();
        }
      }
    }
  }
}

TEST_P(RandomHistoryTest, RollbackEqualsNeverHappened) {
  Random rng(3000 + static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 20; ++round) {
    // Build two histories in parallel: one with a victim's ops, one without.
    EpochVector with, without;
    Random gen(rng.Next());
    const Epoch victim = 1 + gen.Uniform(20);
    Epoch max_epoch = 0;
    for (int op = 0; op < 30; ++op) {
      const Epoch e = 1 + gen.Uniform(20);
      max_epoch = std::max(max_epoch, e);
      const bool is_delete = gen.OneIn(6) && with.num_records() > 0;
      if (is_delete) {
        with.RecordDelete(e);
        if (e != victim) without.RecordDelete(e);
      } else {
        const uint64_t count = 1 + gen.Uniform(3);
        with.RecordAppend(e, count);
        // Mirror non-victim appends so both histories agree on the
        // relative order of surviving records.
        if (e != victim) without.RecordAppend(e, count);
      }
    }
    auto plan = PlanRollback(with, victim);
    const EpochVector rolled =
        plan.needed ? plan.new_history : with;

    // All snapshots that exclude the victim agree between `rolled` and
    // `without`.
    for (int probe = 0; probe < 10; ++probe) {
      Snapshot snap = RandomSnapshot(&rng, max_epoch);
      snap.deps.Insert(victim);  // a snapshot that cannot see the victim
      ASSERT_EQ(BuildVisibilityBitmap(rolled, snap).CountSet(),
                BuildVisibilityBitmap(without, snap).CountSet())
          << "victim=" << victim << " with=" << with.ToString()
          << " rolled=" << rolled.ToString()
          << " without=" << without.ToString();
    }
  }
}

TEST_P(RandomHistoryTest, RetainUpToDropsExactlyNewerRuns) {
  Random rng(4000 + static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 20; ++round) {
    auto h = Generate(&rng, 30, 0.15);
    const Epoch lse = rng.Uniform(h.max_epoch + 2);
    auto plan = PlanRetainUpTo(h.ev, lse);
    const EpochVector& result = plan.needed ? plan.new_history : h.ev;
    for (const auto& run : result.Decode()) {
      EXPECT_LE(run.epoch, lse) << result.ToString();
    }
    // Row count = rows with epoch <= lse.
    uint64_t expected = 0;
    for (const auto& run : h.ev.Decode()) {
      if (!run.is_delete && run.epoch <= lse) {
        expected += run.end - run.begin;
      }
    }
    EXPECT_EQ(result.num_records(), expected);
  }
}

TEST_P(RandomHistoryTest, DecodeRoundTripsAlways) {
  Random rng(5000 + static_cast<uint64_t>(GetParam()));
  auto h = Generate(&rng, 60, 0.2);
  EXPECT_TRUE(EpochVector::FromRuns(h.ev.Decode()) == h.ev);
}

TEST_P(RandomHistoryTest, PurgeIsIdempotent) {
  Random rng(6000 + static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 15; ++round) {
    auto h = Generate(&rng, 25, 0.2);
    const Epoch lse = rng.Uniform(h.max_epoch + 2);
    auto first = PlanPurge(h.ev, lse);
    if (!first.needed) continue;
    auto second = PlanPurge(first.new_history, lse);
    if (second.needed) {
      // A second purge at the same LSE must not remove any further records.
      EXPECT_TRUE(second.keep.All())
          << "first=" << first.new_history.ToString()
          << " second=" << second.new_history.ToString();
    }
  }
}

}  // namespace
}  // namespace cubrick::aosi
