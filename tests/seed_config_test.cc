// MakeSeedConfig is the only source of a check_si run's configuration, so
// the seed ranges the check_si ctest targets sweep must reach every shipped
// path, and a target named after a path must run seeds that draw it. The
// table below mirrors those targets in the top-level CMakeLists.txt; change
// both together.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "check/stress.h"

namespace cubrick {
namespace {

using Predicate = std::function<bool(const check::StressOptions&)>;

bool Any(const check::StressOptions&) { return true; }
bool Parallel(const check::StressOptions& o) {
  return o.engine.query_parallelism > 1;
}
bool IngestParallel(const check::StressOptions& o) {
  return o.engine.ingest_parallelism > 1;
}
bool Online(const check::StressOptions& o) { return o.online_check; }
bool ScalarKernels(const check::StressOptions& o) { return o.scalar_kernels; }
bool ParallelOnline(const check::StressOptions& o) {
  return Parallel(o) && o.online_check;
}
bool ParallelIngest(const check::StressOptions& o) {
  return Parallel(o) && IngestParallel(o);
}
bool PurgeParallelOnline(const check::StressOptions& o) {
  return o.purge_stress && ParallelOnline(o);
}

/// One ctest target's seed range in one mode, and the path its name
/// promises (some seed of the range draws it).
struct SeedRange {
  const char* target;
  bool cluster;
  uint64_t seed0;
  uint64_t seeds;
  bool sanitizer_sized;  // a `_short` target
  Predicate draws;
};

const std::vector<SeedRange>& Targets() {
  static const std::vector<SeedRange> kTargets = {
      {"check_si_single", false, 1, 200, false, Any},
      {"check_si_cluster", true, 1, 200, false, Any},
      {"check_si_single_metrics", false, 201, 25, false, Any},
      {"check_si_single_parallel", false, 226, 50, false, Parallel},
      {"check_si_single_cache", false, 276, 50, false, Parallel},
      {"check_si_single_online", false, 326, 50, false, Online},
      {"check_si_single_purge_concurrent", false, 376, 20, false,
       PurgeParallelOnline},
      {"check_si_single_ingest_parallel", false, 396, 50, false,
       IngestParallel},
      {"check_si_single_simd_scalar", false, 446, 50, false, ScalarKernels},
      {"check_si_cluster_online", true, 201, 50, false, Online},
      {"check_si_seed_sweep", false, 496, 16, false, Online},
      {"check_si_seed_sweep", true, 496, 16, false, Online},
      {"check_si_single_short", false, 1, 6, true, Any},
      {"check_si_single_parallel_short", false, 7, 4, true, Parallel},
      {"check_si_single_cache_short", false, 11, 4, true, Parallel},
      {"check_si_single_online_short", false, 15, 4, true, ParallelOnline},
      {"check_si_single_purge_concurrent_short", false, 19, 4, true,
       PurgeParallelOnline},
      {"check_si_single_ingest_parallel_short", false, 23, 4, true,
       ParallelIngest},
      {"check_si_single_simd_scalar_short", false, 27, 4, true,
       ScalarKernels},
      {"check_si_cluster_short", true, 1, 4, true, Any},
      {"check_si_cluster_online_short", true, 5, 3, true, ParallelOnline},
  };
  return kTargets;
}

/// The seeds one mode runs across the sanitizer-sized targets or the rest.
std::vector<uint64_t> Sweep(bool cluster, bool sanitizer_sized) {
  std::vector<uint64_t> seeds;
  for (const SeedRange& r : Targets()) {
    if (r.cluster != cluster || r.sanitizer_sized != sanitizer_sized) continue;
    for (uint64_t s = r.seed0; s < r.seed0 + r.seeds; ++s) seeds.push_back(s);
  }
  return seeds;
}

uint64_t Count(const std::vector<uint64_t>& seeds, bool cluster,
               const Predicate& pred) {
  uint64_t n = 0;
  for (uint64_t s : seeds) {
    if (pred(check::MakeSeedConfig(s, cluster))) ++n;
  }
  return n;
}

const char* SweepName(bool cluster, bool sanitizer_sized) {
  if (sanitizer_sized) {
    return cluster ? "the cluster _short targets" : "the single _short targets";
  }
  return cluster ? "the long cluster targets" : "the long single targets";
}

/// `pred` holds for some seed of the sweep and fails for another.
void ExpectBothValues(bool cluster, bool sanitizer_sized, const char* what,
                      const Predicate& pred) {
  const std::vector<uint64_t> seeds = Sweep(cluster, sanitizer_sized);
  const uint64_t n = Count(seeds, cluster, pred);
  EXPECT_GT(n, 0u) << what << " never holds in "
                   << SweepName(cluster, sanitizer_sized);
  EXPECT_LT(n, seeds.size()) << what << " always holds in "
                             << SweepName(cluster, sanitizer_sized);
}

TEST(SeedConfigTest, EachTargetRunsThePathItIsNamedFor) {
  for (const SeedRange& r : Targets()) {
    std::vector<uint64_t> seeds;
    for (uint64_t s = r.seed0; s < r.seed0 + r.seeds; ++s) seeds.push_back(s);
    EXPECT_GT(Count(seeds, r.cluster, r.draws), 0u)
        << r.target << " (" << (r.cluster ? "cluster" : "single")
        << ") never draws the path it is named for";
  }
}

// The `_short` targets replay a slice of the long sweeps under sanitizers;
// within each group, no two targets of one mode run the same seed.
TEST(SeedConfigTest, TargetRangesOfOneModeAreDisjoint) {
  std::set<std::tuple<bool, bool, uint64_t>> seen;
  for (const SeedRange& r : Targets()) {
    for (uint64_t s = r.seed0; s < r.seed0 + r.seeds; ++s) {
      EXPECT_TRUE(seen.insert({r.sanitizer_sized, r.cluster, s}).second)
          << r.target << " reruns seed " << s << " of another target";
    }
  }
}

TEST(SeedConfigTest, EverySweepReachesBothValuesOfEveryDimension) {
  for (bool sanitizer_sized : {false, true}) {
    for (bool cluster : {false, true}) {
      ExpectBothValues(cluster, sanitizer_sized, "query_parallelism > 1",
                       Parallel);
      ExpectBothValues(cluster, sanitizer_sized, "ingest_parallelism > 1",
                       IngestParallel);
      ExpectBothValues(cluster, sanitizer_sized, "online_check", Online);
      ExpectBothValues(cluster, sanitizer_sized, "rollback_index",
                       [](const auto& o) { return o.engine.rollback_index; });
      ExpectBothValues(cluster, sanitizer_sized, "with_persistence",
                       [](const auto& o) { return o.with_persistence; });
      ExpectBothValues(cluster, sanitizer_sized, "threaded_shards",
                       [](const auto& o) { return o.engine.threaded_shards; });
      ExpectBothValues(cluster, sanitizer_sized, "scalar_kernels",
                       ScalarKernels);
    }
    ExpectBothValues(/*cluster=*/false, sanitizer_sized, "purge_stress",
                     [](const auto& o) { return o.purge_stress; });
    EXPECT_EQ(Count(Sweep(/*cluster=*/true, sanitizer_sized), /*cluster=*/true,
                    [](const auto& o) { return o.purge_stress; }),
              0u)
        << "purge_stress is single-node only";
  }
}

TEST(SeedConfigTest, LongSweepsReachEveryScanFanOut) {
  for (bool cluster : {false, true}) {
    for (size_t fan_out : {1, 2, 4}) {
      EXPECT_GT(Count(Sweep(cluster, /*sanitizer_sized=*/false), cluster,
                      [fan_out](const auto& o) {
                        return o.engine.query_parallelism == fan_out;
                      }),
                0u)
          << "query_parallelism " << fan_out;
    }
  }
}

// The `_short` targets are what the sanitizer jobs run; across them they
// must cover each combination the sanitizer runs have always raced.
TEST(SeedConfigTest, ShortSweepsHitTheRacingCombinations) {
  for (bool cluster : {false, true}) {
    const std::vector<uint64_t> seeds =
        Sweep(cluster, /*sanitizer_sized=*/true);
    EXPECT_GT(Count(seeds, cluster, ParallelOnline), 0u)
        << "parallel scans under the online checker, cluster=" << cluster;
    EXPECT_GT(Count(seeds, cluster, ParallelIngest), 0u)
        << "parallel scans beside parallel ingest, cluster=" << cluster;
  }
  EXPECT_GT(Count(Sweep(/*cluster=*/false, /*sanitizer_sized=*/true),
                  /*cluster=*/false, PurgeParallelOnline),
            0u)
      << "purge stress racing parallel scans under the online checker";
}

// The whole engine configuration reaches every node, so a seed that draws
// the rollback index runs the cluster with it.
TEST(SeedConfigTest, ClusterSeedWithRollbackIndexBuildsIndexedNodes) {
  uint64_t seed = 1;
  while (!check::MakeSeedConfig(seed, /*cluster=*/true).engine.rollback_index) {
    ++seed;
  }
  ASSERT_LE(seed, 200u);
  cluster::Cluster cluster(
      check::ToClusterOptions(check::MakeSeedConfig(seed, /*cluster=*/true)));
  ASSERT_TRUE(cluster
                  .CreateCube("c", {{"d", 8, 2, false}},
                              {{"v", DataType::kInt64}})
                  .ok());
  for (uint32_t n = 1; n <= cluster.num_nodes(); ++n) {
    Table* table = cluster.node(n).FindTable("c");
    ASSERT_NE(table, nullptr);
    EXPECT_NE(table->rollback_index(), nullptr) << "node " << n;
  }
}

}  // namespace
}  // namespace cubrick
