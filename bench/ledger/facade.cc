// `ledger`: every request goes through the public Database and Cluster
// facades, exactly as a user issues it.

#include <utility>

#include "ledger.h"

namespace ledger {
namespace {

using cubrick::QueryResult;
using cubrick::Record;
using cubrick::Result;
using cubrick::Status;

class FacadeNode final : public Node {
 public:
  explicit FacadeNode(cubrick::DatabaseOptions options)
      : db_(std::move(options)) {}

  cubrick::Database& db() override { return db_; }

  Status Load(const std::vector<Record>& records) override {
    return db_.Load(kCube, records);
  }
  Result<QueryResult> Query(const cubrick::Query& query) override {
    return db_.Query(kCube, query);
  }
  Status DeletePartitions(
      const std::vector<cubrick::FilterClause>& filters) override {
    return db_.DeletePartitions(kCube, filters);
  }
  Status Checkpoint() override { return db_.Checkpoint().status(); }

 private:
  cubrick::Database db_;
};

class FacadeCluster final : public ClusterTarget {
 public:
  FacadeCluster() : cluster_(ClusterOptions()) {}

  cubrick::cluster::Cluster& cluster() override { return cluster_; }

  Status Load(uint32_t coordinator,
              const std::vector<Record>& records) override {
    auto txn = cluster_.BeginReadWrite(coordinator);
    if (!txn.ok()) return txn.status();
    const Status append = cluster_.Append(&*txn, kCube, records);
    if (!append.ok()) {
      (void)cluster_.Rollback(&*txn);
      return append;
    }
    return cluster_.Commit(&*txn);
  }
  Result<QueryResult> Query(uint32_t coordinator,
                            const cubrick::Query& query) override {
    return cluster_.QueryOnce(coordinator, kCube, query);
  }

 private:
  cubrick::cluster::Cluster cluster_;
};

class FacadeBackend final : public Backend {
 public:
  explicit FacadeBackend(size_t ingest_parallelism)
      : ingest_parallelism_(ingest_parallelism) {}

  std::unique_ptr<Node> OpenNode(const std::string& data_dir) override {
    auto node = std::make_unique<FacadeNode>(
        NodeOptions(data_dir, ingest_parallelism_));
    CUBRICK_CHECK(CreateCube(&node->db()).ok());
    return node;
  }

  Result<std::unique_ptr<Node>> RecoverNode(
      const std::string& data_dir) override {
    std::unique_ptr<Node> node = OpenNode(data_dir);
    const Status status = node->db().Recover();
    if (!status.ok()) return status;
    return node;
  }

  std::unique_ptr<ClusterTarget> OpenCluster() override {
    auto target = std::make_unique<FacadeCluster>();
    CUBRICK_CHECK(CreateCube(&target->cluster()).ok());
    return target;
  }

 private:
  size_t ingest_parallelism_;
};

}  // namespace

std::unique_ptr<Backend> MakeBackend(size_t ingest_parallelism) {
  return std::make_unique<FacadeBackend>(ingest_parallelism);
}

bool Traced() { return false; }

}  // namespace ledger
