// Randomized distributed workloads over the simulated cluster: arbitrary
// interleavings of begins, appends, deletes, commits and rollbacks from
// rotating coordinators must always converge to a consistent, SI-correct
// state on every node.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"

namespace cubrick::cluster {
namespace {

struct OpenTxn {
  DistTxn txn;
  int64_t appended_sum = 0;
  uint64_t appended_rows = 0;
};

void ConvergesToConsistentState(int seed, uint32_t num_nodes, size_t rf) {
  ClusterOptions options;
  options.num_nodes = num_nodes;
  options.replication_factor = rf;
  options.shards_per_cube = 2;
  Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .CreateCube("t", {{"k", 64, 4, false}},
                              {{"v", DataType::kInt64}})
                  .ok());

  Random rng(7000 + static_cast<uint64_t>(seed));
  std::vector<OpenTxn> open;
  int64_t committed_sum = 0;
  uint64_t committed_rows = 0;
  bool deleted_everything_at_end = false;

  for (int step = 0; step < 120; ++step) {
    const double dice = rng.NextDouble();
    const uint32_t coord = 1 + static_cast<uint32_t>(rng.Uniform(num_nodes));
    if (dice < 0.35 || open.empty()) {
      auto txn = cluster.BeginReadWrite(coord);
      ASSERT_TRUE(txn.ok());
      open.push_back({*txn, 0, 0});
    } else if (dice < 0.65) {
      OpenTxn& t = open[rng.Uniform(open.size())];
      std::vector<Record> rows;
      const uint64_t n = 1 + rng.Uniform(8);
      for (uint64_t i = 0; i < n; ++i) {
        const int64_t v = static_cast<int64_t>(rng.Uniform(1000));
        rows.push_back({static_cast<int64_t>(rng.Uniform(64)), v});
        t.appended_sum += v;
      }
      t.appended_rows += n;
      ASSERT_TRUE(cluster.Append(&t.txn, "t", rows).ok());
    } else if (dice < 0.85) {
      const size_t pick = rng.Uniform(open.size());
      ASSERT_TRUE(cluster.Commit(&open[pick].txn).ok());
      committed_sum += open[pick].appended_sum;
      committed_rows += open[pick].appended_rows;
      open.erase(open.begin() + static_cast<ptrdiff_t>(pick));
    } else if (dice < 0.95) {
      const size_t pick = rng.Uniform(open.size());
      ASSERT_TRUE(cluster.Rollback(&open[pick].txn).ok());
      open.erase(open.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      // Consistency probe: a RO query sees only committed whole
      // transactions — i.e. some prefix-closed subset. With concurrent
      // opens, LCE may trail; the sum must match commits whose epoch <=
      // the coordinator's LCE. We verify the weaker end-state-checkable
      // invariant: count is a sum of whole committed txns' row counts.
      cubrick::Query q;
      q.aggs = {{AggSpec::Fn::kCount, 0}};
      auto result = cluster.QueryOnce(coord, "t", q);
      ASSERT_TRUE(result.ok());
      ASSERT_LE(result->Single(0, AggSpec::Fn::kCount),
                static_cast<double>(committed_rows));
    }
  }

  for (auto& t : open) {
    ASSERT_TRUE(cluster.Commit(&t.txn).ok());
    committed_sum += t.appended_sum;
    committed_rows += t.appended_rows;
  }
  (void)deleted_everything_at_end;

  // Convergence: every node answers the same totals.
  cubrick::Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  for (uint32_t n = 1; n <= num_nodes; ++n) {
    auto result = cluster.QueryOnce(n, "t", q);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kSum),
                     static_cast<double>(committed_sum))
        << "node " << n;
    EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kCount),
                     static_cast<double>(committed_rows))
        << "node " << n;
  }
  // Replication: physical copies = committed rows x replication factor.
  EXPECT_EQ(cluster.TotalRecords(), committed_rows * rf);

  // All LCEs agree after quiescence.
  const aosi::Epoch lce1 = cluster.node(1).txns().LCE();
  for (uint32_t n = 2; n <= num_nodes; ++n) {
    EXPECT_EQ(cluster.node(n).txns().LCE(), lce1);
  }

  // Purge leaves visible state untouched.
  cluster.AdvanceClusterLSE();
  cluster.PurgeAll();
  auto after = cluster.QueryOnce(1, "t", q);
  EXPECT_DOUBLE_EQ(after->Single(0, AggSpec::Fn::kSum),
                   static_cast<double>(committed_sum));
  EXPECT_DOUBLE_EQ(after->Single(1, AggSpec::Fn::kCount),
                   static_cast<double>(committed_rows));
}

void RandomOutagesNeverLoseCommittedData(int seed, uint32_t num_nodes,
                                         size_t rf) {
  ClusterOptions options;
  options.num_nodes = num_nodes;
  options.replication_factor = rf;
  Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .CreateCube("t", {{"k", 64, 4, false}},
                              {{"v", DataType::kInt64}})
                  .ok());

  Random rng(8000 + static_cast<uint64_t>(seed));
  uint64_t committed_rows = 0;
  for (int round = 0; round < 15; ++round) {
    // Load with everyone up (RW begins require full membership).
    auto txn = cluster.BeginReadWrite(
        1 + static_cast<uint32_t>(rng.Uniform(num_nodes)));
    ASSERT_TRUE(txn.ok());
    std::vector<Record> rows;
    for (int i = 0; i < 10; ++i) {
      rows.push_back({static_cast<int64_t>(rng.Uniform(64)), 1});
    }
    ASSERT_TRUE(cluster.Append(&*txn, "t", rows).ok());
    ASSERT_TRUE(cluster.Commit(&*txn).ok());
    committed_rows += 10;

    // Take a random node down; committed data must remain fully readable.
    const uint32_t victim =
        1 + static_cast<uint32_t>(rng.Uniform(num_nodes));
    ASSERT_TRUE(cluster.SetNodeOnline(victim, false).ok());
    uint32_t reader = 1 + static_cast<uint32_t>(rng.Uniform(num_nodes));
    while (reader == victim) {
      reader = 1 + static_cast<uint32_t>(rng.Uniform(num_nodes));
    }
    cubrick::Query q;
    q.aggs = {{AggSpec::Fn::kCount, 0}};
    auto result = cluster.QueryOnce(reader, "t", q);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kCount),
                     static_cast<double>(committed_rows))
        << "round " << round << " victim " << victim;
    ASSERT_TRUE(cluster.SetNodeOnline(victim, true).ok());
  }
}

// Each property runs only on the layouts it is about: convergence wherever
// the replicas fit on the nodes, outages only with replication. A
// value-parameterized suite would instantiate both on every layout and skip
// the rest, so each case is registered on its own, under the name and
// parameter label a TEST_P over (seed, nodes, rf) would print.
class RandomClusterTest : public ::testing::Test {
 public:
  using Property = void (*)(int seed, uint32_t num_nodes, size_t rf);

  RandomClusterTest(Property property, int seed, uint32_t num_nodes,
                    size_t rf)
      : property_(property), seed_(seed), num_nodes_(num_nodes), rf_(rf) {}

  void TestBody() override { property_(seed_, num_nodes_, rf_); }

 private:
  Property property_;
  int seed_;
  uint32_t num_nodes_;
  size_t rf_;
};

[[maybe_unused]] const bool kRegistered = [] {
  struct Layout {
    uint32_t num_nodes;
    size_t rf;
  };
  const struct {
    const char* name;
    RandomClusterTest::Property property;
    std::vector<Layout> layouts;
  } kProperties[] = {
      {"ConvergesToConsistentState", ConvergesToConsistentState,
       {{1, 1}, {3, 1}, {3, 2}}},
      {"RandomOutagesNeverLoseCommittedData",
       RandomOutagesNeverLoseCommittedData, {{3, 2}}},
  };
  for (const auto& p : kProperties) {
    for (int seed = 0; seed < 4; ++seed) {
      for (const Layout& layout : p.layouts) {
        const std::string s = std::to_string(seed);
        const std::string n = std::to_string(layout.num_nodes);
        const std::string r = std::to_string(layout.rf);
        ::testing::RegisterTest(
            "SeedsNodesReplicas/RandomClusterTest",
            (std::string(p.name) + "/seed" + s + "_nodes" + n + "_rf" + r)
                .c_str(),
            nullptr, ("(" + s + ", " + n + ", " + r + ")").c_str(), __FILE__,
            __LINE__,
            [property = p.property, seed, layout]() -> RandomClusterTest* {
              return new RandomClusterTest(property, seed, layout.num_nodes,
                                           layout.rf);
            });
      }
    }
  }
  return true;
}();

}  // namespace
}  // namespace cubrick::cluster
