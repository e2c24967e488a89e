#include "check/stress.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "check/online_checker.h"
#include "check/si_oracle.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/simd.h"
#include "cubrick/database.h"
#include "ingest/parser.h"
#include "query/executor.h"

namespace cubrick::check {
namespace {

namespace fs = std::filesystem;

// The stress cube: two integer dimensions (8 x 2 = 16 bricks) and one
// integer metric. Small enough that every brick sees appends, deletes and
// purges within a short run; large enough that filters and group-bys
// discriminate.
constexpr char kCube[] = "stress";
constexpr uint64_t kCardB = 32, kRangeB = 4;
constexpr uint64_t kCardC = 8, kRangeC = 4;

std::vector<DimensionDef> StressDimensions() {
  return {{"b", kCardB, kRangeB, false}, {"c", kCardC, kRangeC, false}};
}

std::vector<MetricDef> StressMetrics() {
  return {{"v", DataType::kInt64}};
}

std::vector<Record> RandomRecords(Random& rng) {
  std::vector<Record> rows;
  const uint64_t n = 1 + rng.Uniform(5);
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    rows.push_back({static_cast<int64_t>(rng.Uniform(kCardB)),
                    static_cast<int64_t>(rng.Uniform(kCardC)),
                    static_cast<int64_t>(rng.Uniform(100))});
  }
  return rows;
}

/// 64 to 191 records for one brick. From 127 on they fill at least one
/// whole bitmap word wherever they start, so scans meet dense words. Under
/// a parse fan-out (`fan_out`) they are 2 * kMinMorselRecords plus 0 to 127
/// records, which the parse splits into morsels, so the oracle checks the
/// morsel-parallel parse too.
std::vector<Record> OneBrickRecords(Random& rng, bool fan_out) {
  const uint64_t b0 = kRangeB * rng.Uniform(kCardB / kRangeB);
  const uint64_t c0 = kRangeC * rng.Uniform(kCardC / kRangeC);
  const uint64_t n =
      (fan_out ? 2 * kMinMorselRecords : 64) + rng.Uniform(128);
  std::vector<Record> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    rows.push_back({static_cast<int64_t>(b0 + rng.Uniform(kRangeB)),
                    static_cast<int64_t>(c0 + rng.Uniform(kRangeC)),
                    static_cast<int64_t>(rng.Uniform(100))});
  }
  return rows;
}

Query RandomQuery(Random& rng) {
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  const uint64_t num_filters = rng.Uniform(3);
  for (uint64_t i = 0; i < num_filters; ++i) {
    FilterClause f;
    f.dim = rng.Uniform(2);
    const uint64_t card = f.dim == 0 ? kCardB : kCardC;
    switch (rng.Uniform(3)) {
      case 0:
        f.op = FilterClause::Op::kEq;
        f.values = {rng.Uniform(card)};
        break;
      case 1:
        f.op = FilterClause::Op::kRange;
        f.range_lo = rng.Uniform(card);
        f.range_hi = f.range_lo + rng.Uniform(card - f.range_lo);
        break;
      default:
        f.op = FilterClause::Op::kIn;
        for (uint64_t v = 0, nv = 1 + rng.Uniform(3); v < nv; ++v) {
          f.values.push_back(rng.Uniform(card));
        }
        break;
    }
    q.filters.push_back(std::move(f));
  }
  switch (rng.Uniform(4)) {
    case 1:
      q.group_by = {0};
      break;
    case 2:
      q.group_by = {1};
      break;
    case 3:
      q.group_by = {0, 1};
      break;
    default:
      break;
  }
  return q;
}

std::vector<FilterClause> RandomDeleteFilters(Random& rng) {
  const double dice = rng.NextDouble();
  std::vector<FilterClause> filters;
  if (dice < 0.15) return filters;  // empty predicate: delete the whole cube
  FilterClause f;
  f.op = FilterClause::Op::kRange;
  if (dice < 0.80) {
    // Range-aligned on one dimension: always partition-granular.
    f.dim = rng.Uniform(2);
    const uint64_t range = f.dim == 0 ? kRangeB : kRangeC;
    const uint64_t ranges = (f.dim == 0 ? kCardB : kCardC) / range;
    f.range_lo = range * rng.Uniform(ranges);
    f.range_hi = f.range_lo + range - 1;
  } else {
    // Deliberately misaligned: rejected whenever it partially covers a
    // materialized brick (exercises the granularity check under load).
    f.dim = 0;
    f.range_lo = rng.Uniform(kCardB - 1);
    f.range_hi = f.range_lo + 1;
  }
  filters.push_back(std::move(f));
  return filters;
}

std::string QueryToString(const Query& q) {
  std::ostringstream out;
  out << "filters=[";
  for (size_t i = 0; i < q.filters.size(); ++i) {
    const FilterClause& f = q.filters[i];
    if (i > 0) out << ", ";
    out << "dim" << f.dim;
    switch (f.op) {
      case FilterClause::Op::kEq:
        out << "==" << f.values[0];
        break;
      case FilterClause::Op::kRange:
        out << " in [" << f.range_lo << "," << f.range_hi << "]";
        break;
      case FilterClause::Op::kIn:
        out << " in {";
        for (size_t v = 0; v < f.values.size(); ++v) {
          out << (v > 0 ? "," : "") << f.values[v];
        }
        out << "}";
        break;
    }
  }
  out << "] group_by={";
  for (size_t i = 0; i < q.group_by.size(); ++i) {
    out << (i > 0 ? "," : "") << q.group_by[i];
  }
  out << "}";
  return out.str();
}

std::string FiltersToString(const std::vector<FilterClause>& filters) {
  Query q;
  q.filters = filters;
  return QueryToString(q);
}

/// Engine-side covered-brick collection: exactly the predicate
/// Table::MarkDeleted applies. Must run with the stress driver's structure
/// lock held exclusively so the set cannot change before the mark.
void CollectCoveredBricks(Table* table,
                          const std::vector<FilterClause>& filters,
                          std::set<Bid>* out) {
  Query probe;
  probe.filters = filters;
  table->VisitBricks([&](const Brick& brick) {
    if (brick.num_records() > 0 && BrickCoveredByFilters(brick, probe)) {
      out->insert(brick.bid());
    }
  });
}

// --- System-under-test adapters -------------------------------------------

/// A transaction handle valid for either mode.
struct SutTxn {
  aosi::Txn local;
  cluster::DistTxn dist;
  bool is_cluster = false;

  const aosi::Txn& txn() const { return is_cluster ? dist.txn : local; }
  aosi::Epoch epoch() const { return txn().epoch; }
  aosi::Snapshot snapshot() const { return txn().snapshot(); }
};

/// Every choice an adapter used to draw from an RNG is passed in explicitly
/// (coordinator, checkpoint-vs-purge): adapters are deterministic executors
/// of a pre-generated plan, never consumers of randomness.
class SutAdapter {
 public:
  virtual ~SutAdapter() = default;
  virtual Status BeginRw(uint32_t coordinator, SutTxn* out) = 0;
  virtual void BeginRo(uint32_t coordinator, SutTxn* out) = 0;
  virtual Status Append(SutTxn* t, const std::vector<Record>& rows) = 0;
  virtual Status Delete(SutTxn* t,
                        const std::vector<FilterClause>& filters) = 0;
  virtual Status Commit(SutTxn* t) = 0;
  /// Physical rollback plus timestamp finalization.
  virtual Status Abort(SutTxn* t) = 0;
  virtual void EndRo(SutTxn* t) = 0;
  virtual Result<QueryResult> RunQuery(SutTxn* t, const Query& q) = 0;
  virtual std::vector<Bid> CoveredBricks(
      const std::vector<FilterClause>& filters) = 0;
  /// Purge / LSE advance / checkpoint step. Caller holds the structure lock
  /// shared. `want_checkpoint` is only honored when persistence is on.
  virtual Status Maintenance(bool want_checkpoint,
                             StressReport* counters) = 0;
};

class SingleNodeSut : public SutAdapter {
 public:
  SingleNodeSut(Database* db, bool with_persistence)
      : db_(db), with_persistence_(with_persistence) {}

  Status BeginRw(uint32_t /*coordinator*/, SutTxn* out) override {
    out->local = db_->Begin();
    return Status::OK();
  }

  void BeginRo(uint32_t /*coordinator*/, SutTxn* out) override {
    out->local = db_->BeginReadOnly();
  }

  Status Append(SutTxn* t, const std::vector<Record>& rows) override {
    return db_->LoadIn(t->local, kCube, rows);
  }

  Status Delete(SutTxn* t,
                const std::vector<FilterClause>& filters) override {
    return db_->DeletePartitionsIn(t->local, kCube, filters);
  }

  Status Commit(SutTxn* t) override { return db_->Commit(t->local); }
  Status Abort(SutTxn* t) override { return db_->Rollback(t->local); }
  void EndRo(SutTxn* t) override { db_->txns().EndReadOnly(t->local); }

  Result<QueryResult> RunQuery(SutTxn* t, const Query& q) override {
    return db_->QueryIn(t->local, kCube, q);
  }

  std::vector<Bid> CoveredBricks(
      const std::vector<FilterClause>& filters) override {
    std::set<Bid> bids;
    CollectCoveredBricks(db_->FindTable(kCube), filters, &bids);
    return {bids.begin(), bids.end()};
  }

  Status Maintenance(bool want_checkpoint, StressReport* counters) override {
    if (with_persistence_) {
      if (want_checkpoint) {
        auto lse = db_->Checkpoint();
        if (!lse.ok()) return lse.status();
        ++counters->checkpoints;
      } else {
        db_->PurgeAll();
      }
    } else {
      // Diskless deployment: durability is replication's problem (§III-D);
      // LSE may chase LCE directly, which is what makes purge effective.
      db_->txns().TryAdvanceLSE(db_->txns().LCE());
      db_->PurgeAll();
    }
    return Status::OK();
  }

 private:
  Database* db_;
  const bool with_persistence_;
};

class ClusterSut : public SutAdapter {
 public:
  ClusterSut(cluster::Cluster* cluster, bool with_persistence)
      : cluster_(cluster), with_persistence_(with_persistence) {}

  Status BeginRw(uint32_t coordinator, SutTxn* out) override {
    out->is_cluster = true;
    auto txn = cluster_->BeginReadWrite(coordinator);
    if (!txn.ok()) return txn.status();
    out->dist = *txn;
    return Status::OK();
  }

  void BeginRo(uint32_t coordinator, SutTxn* out) override {
    out->is_cluster = true;
    out->dist = cluster_->BeginReadOnly(coordinator);
  }

  Status Append(SutTxn* t, const std::vector<Record>& rows) override {
    return cluster_->Append(&t->dist, kCube, rows);
  }

  Status Delete(SutTxn* t,
                const std::vector<FilterClause>& filters) override {
    return cluster_->DeleteWhere(&t->dist, kCube, filters);
  }

  Status Commit(SutTxn* t) override { return cluster_->Commit(&t->dist); }
  Status Abort(SutTxn* t) override { return cluster_->Rollback(&t->dist); }
  void EndRo(SutTxn* t) override { cluster_->EndReadOnly(&t->dist); }

  Result<QueryResult> RunQuery(SutTxn* t, const Query& q) override {
    return cluster_->Query(&t->dist, kCube, q);
  }

  std::vector<Bid> CoveredBricks(
      const std::vector<FilterClause>& filters) override {
    // Replicas are identical while the structure lock is held exclusively,
    // so the union over nodes is the engine's cluster-wide delete scope.
    std::set<Bid> bids;
    for (uint32_t n = 1; n <= cluster_->num_nodes(); ++n) {
      CollectCoveredBricks(cluster_->node(n).FindTable(kCube), filters,
                           &bids);
    }
    return {bids.begin(), bids.end()};
  }

  Status Maintenance(bool want_checkpoint, StressReport* counters) override {
    cluster_->AdvanceClusterLSE();
    cluster_->PurgeAll();
    if (with_persistence_ && want_checkpoint) {
      auto lse = cluster_->CheckpointAll();
      if (!lse.ok()) return lse.status();
      ++counters->checkpoints;
    }
    return Status::OK();
  }

 private:
  cluster::Cluster* cluster_;
  const bool with_persistence_;
};

// --- Pre-generated op plans -----------------------------------------------
//
// Every random choice a worker will ever make is drawn here, on the main
// thread, before any worker launches — a pure function of (seed, tid). The
// draws inside each op kind are unconditional: runtime state (e.g. whether
// a delete was rejected) decides only whether a pre-drawn value is *used*,
// never whether it is *drawn*, so the workload is bit-identical across
// thread interleavings, sanitizers and machines.

struct OpPlan {
  enum class Kind : uint8_t {
    kCommitAppend,
    kAbort,
    kDelete,
    kRoQuery,
    kMaintenance,
  };

  Kind kind = Kind::kRoQuery;
  /// Coordinator node for this op's transaction (1 in single-node mode).
  uint32_t coordinator = 1;
  /// Record batches, in append order. kDelete: [0] is the pre-delete batch,
  /// [1] the post-delete batch (each used only if its dice said so).
  std::vector<std::vector<Record>> batches;
  /// Validate a read inside the transaction (ryw / pre-abort / post-delete)?
  bool do_read = false;
  Query query;
  std::vector<FilterClause> delete_filters;
  bool append_before_delete = false;
  bool append_after_delete = false;
  /// Commit the delete txn (vs abort); only honored when the delete stuck.
  bool commit_delete = false;
  bool maintenance_checkpoint = false;
};

uint64_t WorkerSeed(uint64_t seed, int tid) {
  uint64_t state = seed * 1000003ULL + static_cast<uint64_t>(tid);
  return SplitMix64(state);
}

std::vector<OpPlan> GenerateThreadPlan(const StressOptions& opt,
                                       bool cluster, int tid) {
  Random rng(WorkerSeed(opt.seed, tid));
  std::vector<OpPlan> plan;
  plan.reserve(static_cast<size_t>(opt.ops_per_thread));
  for (int i = 0; i < opt.ops_per_thread; ++i) {
    OpPlan op;
    op.coordinator =
        cluster ? 1 + static_cast<uint32_t>(rng.Uniform(opt.num_nodes)) : 1;
    const double dice = rng.NextDouble();
    if (dice < 0.30) {
      op.kind = OpPlan::Kind::kCommitAppend;
      const uint64_t batches = 1 + rng.Uniform(2);
      for (uint64_t b = 0; b < batches; ++b) {
        op.batches.push_back(RandomRecords(rng));
      }
      op.do_read = rng.OneIn(2);
      op.query = RandomQuery(rng);
      if (opt.dense_loads && rng.OneIn(3)) {
        op.batches.push_back(
            OneBrickRecords(rng, opt.engine.ingest_parallelism > 1));
      }
    } else if (dice < 0.42) {
      op.kind = OpPlan::Kind::kAbort;
      op.batches.push_back(RandomRecords(rng));
      op.do_read = rng.OneIn(3);
      op.query = RandomQuery(rng);
    } else if (dice < 0.56) {
      op.kind = OpPlan::Kind::kDelete;
      op.append_before_delete = rng.OneIn(2);
      op.batches.push_back(RandomRecords(rng));
      op.delete_filters = RandomDeleteFilters(rng);
      op.append_after_delete = rng.OneIn(3);
      op.batches.push_back(RandomRecords(rng));
      op.do_read = rng.OneIn(2);
      op.query = RandomQuery(rng);
      op.commit_delete = !rng.OneIn(4);
    } else if (dice < 0.88) {
      op.kind = OpPlan::Kind::kRoQuery;
      op.query = RandomQuery(rng);
    } else {
      op.kind = OpPlan::Kind::kMaintenance;
      op.maintenance_checkpoint = rng.OneIn(2);
    }
    plan.push_back(std::move(op));
  }
  return plan;
}

// --- Worker ---------------------------------------------------------------

struct SharedState {
  SutAdapter* sut = nullptr;
  SiOracle* oracle = nullptr;
  SharedMutex structure;
  std::atomic<bool> stop{false};
  Mutex failure_mutex;
  std::vector<std::string>* failures PT_GUARDED_BY(failure_mutex) = nullptr;
  std::string config;
};

class Worker {
 public:
  Worker(SharedState* shared, std::vector<OpPlan> plan, int tid)
      : shared_(shared), plan_(std::move(plan)), tid_(tid) {}

  StressReport& counters() { return counters_; }

  void Run() {
    for (size_t i = 0;
         i < plan_.size() && !shared_->stop.load(std::memory_order_seq_cst);
         ++i) {
      op_index_ = static_cast<int>(i);
      const OpPlan& op = plan_[i];
      switch (op.kind) {
        case OpPlan::Kind::kCommitAppend:
          CommitAppendTxn(op);
          break;
        case OpPlan::Kind::kAbort:
          AbortTxn(op);
          break;
        case OpPlan::Kind::kDelete:
          DeleteTxn(op);
          break;
        case OpPlan::Kind::kRoQuery:
          RoQueryOp(op);
          break;
        case OpPlan::Kind::kMaintenance:
          MaintenanceOp(op);
          break;
      }
    }
  }

 private:
  void Trace(const std::string& line) {
    std::ostringstream out;
    out << "t" << tid_ << "#" << op_index_ << " " << line;
    trace_.push_back(out.str());
  }

  void Fail(const std::string& what) {
    std::ostringstream out;
    out << shared_->config << "\n" << what << "\nthread " << tid_
        << " trace (oldest first):";
    for (const auto& line : trace_) out << "\n  " << line;
    {
      MutexLock lock(shared_->failure_mutex);
      shared_->failures->push_back(out.str());
    }
    shared_->stop.store(true, std::memory_order_seq_cst);
  }

  /// Engine-vs-oracle comparison for one query under `t`'s snapshot.
  bool Validate(SutTxn* t, const Query& q, const char* label) {
    auto actual = shared_->sut->RunQuery(t, q);
    if (!actual.ok()) {
      Fail(std::string(label) + " query failed: " +
           actual.status().ToString());
      return false;
    }
    const aosi::Snapshot snap = t->snapshot();
    const QueryResult expected = shared_->oracle->Eval(snap, q);
    const std::string diff = DiffResults(expected, *actual, q);
    if (!diff.empty()) {
      std::ostringstream out;
      out << "SI DIVERGENCE (" << label << ") at snapshot{epoch="
          << snap.epoch << ", deps=" << snap.deps.ToString()
          << "}: " << diff << "\nquery: " << QueryToString(q)
          << "\noracle visible rows: "
          << shared_->oracle->VisibleRows(snap);
      Fail(out.str());
      return false;
    }
    return true;
  }

  /// Appends under the shared structure lock, logging to the oracle inside
  /// the same critical section (ordering contract, see stress.h).
  bool AppendBatch(SutTxn* t, const std::vector<Record>& rows) {
    ReaderMutexLock lock(shared_->structure);
    const Status status = shared_->sut->Append(t, rows);
    if (!status.ok()) {
      Fail("append failed: " + status.ToString());
      return false;
    }
    shared_->oracle->Append(t->epoch(), rows);
    counters_.records_appended += rows.size();
    return true;
  }

  void CommitAppendTxn(const OpPlan& op) {
    SutTxn t;
    Status status = shared_->sut->BeginRw(op.coordinator, &t);
    if (!status.ok()) {
      Fail("begin failed: " + status.ToString());
      return;
    }
    Trace("begin rw epoch=" + std::to_string(t.epoch()) + " deps=" +
          t.txn().deps.ToString());
    for (const auto& batch : op.batches) {
      if (!AppendBatch(&t, batch)) return;
    }
    if (op.do_read) {
      ++counters_.ryw_queries;
      if (!Validate(&t, op.query, "read-your-writes")) return;
    }
    status = shared_->sut->Commit(&t);
    if (!status.ok()) {
      Fail("commit failed: " + status.ToString());
      return;
    }
    Trace("commit epoch=" + std::to_string(t.epoch()));
    ++counters_.commits;
  }

  void AbortTxn(const OpPlan& op) {
    SutTxn t;
    Status status = shared_->sut->BeginRw(op.coordinator, &t);
    if (!status.ok()) {
      Fail("begin failed: " + status.ToString());
      return;
    }
    if (!AppendBatch(&t, op.batches[0])) return;
    if (op.do_read) {
      ++counters_.ryw_queries;
      if (!Validate(&t, op.query, "pre-abort read")) return;
    }
    if (!FinishAbort(&t)) return;
    Trace("abort epoch=" + std::to_string(t.epoch()));
    ++counters_.aborts;
  }

  bool FinishAbort(SutTxn* t) {
    // Oracle removal first: nothing may see the victim until the engine
    // finalizes the abort (LCE may pass it from then on), and the physical
    // removal is a table mutation, so the structure lock is held shared.
    ReaderMutexLock lock(shared_->structure);
    shared_->oracle->Rollback(t->epoch());
    const Status status = shared_->sut->Abort(t);
    if (!status.ok()) {
      Fail("rollback failed: " + status.ToString());
      return false;
    }
    return true;
  }

  void DeleteTxn(const OpPlan& op) {
    SutTxn t;
    Status status = shared_->sut->BeginRw(op.coordinator, &t);
    if (!status.ok()) {
      Fail("begin failed: " + status.ToString());
      return;
    }
    // Sometimes append in the same transaction before the delete point:
    // those records must be cleared by the transaction's own delete.
    if (op.append_before_delete && !AppendBatch(&t, op.batches[0])) return;
    const std::vector<FilterClause>& filters = op.delete_filters;
    bool deleted = false;
    {
      WriterMutexLock lock(shared_->structure);
      const std::vector<Bid> bricks =
          shared_->sut->CoveredBricks(filters);
      status = shared_->sut->Delete(&t, filters);
      if (status.ok()) {
        shared_->oracle->Delete(t.epoch(), bricks);
        deleted = true;
        std::ostringstream line;
        line << "delete epoch=" << t.epoch() << " "
             << FiltersToString(filters) << " bricks=" << bricks.size();
        Trace(line.str());
      } else {
        ++counters_.delete_rejects;
        Trace("delete rejected: " + FiltersToString(filters));
      }
    }
    // Records appended after the delete point survive the delete.
    if (deleted && op.append_after_delete && !AppendBatch(&t, op.batches[1])) {
      return;
    }
    if (op.do_read) {
      ++counters_.ryw_queries;
      if (!Validate(&t, op.query, "post-delete read")) return;
    }
    if (deleted && op.commit_delete) {
      status = shared_->sut->Commit(&t);
      if (!status.ok()) {
        Fail("commit failed: " + status.ToString());
        return;
      }
      ++counters_.deletes;
    } else {
      if (!FinishAbort(&t)) return;
      ++counters_.aborts;
    }
  }

  void RoQueryOp(const OpPlan& op) {
    SutTxn t;
    shared_->sut->BeginRo(op.coordinator, &t);
    ++counters_.queries;
    const bool ok = Validate(&t, op.query, "read-only snapshot");
    shared_->sut->EndRo(&t);
    if (ok) {
      Trace("ro query epoch=" + std::to_string(t.epoch()) + " ok");
    }
  }

  void MaintenanceOp(const OpPlan& op) {
    ReaderMutexLock lock(shared_->structure);
    const Status status =
        shared_->sut->Maintenance(op.maintenance_checkpoint, &counters_);
    if (!status.ok()) {
      Fail("maintenance failed: " + status.ToString());
      return;
    }
    ++counters_.maintenance;
    Trace("maintenance");
  }

  SharedState* shared_;
  const std::vector<OpPlan> plan_;
  const int tid_;
  int op_index_ = 0;
  StressReport counters_;
  std::vector<std::string> trace_;
};

/// The scan kernels a run uses.
simd::Backend KernelBackend(const StressOptions& opt) {
  return opt.scalar_kernels ? simd::Backend::kScalar : simd::Detect();
}

/// Switches the scans to a run's kernels and restores the previous backend
/// when the run returns.
class ScopedKernels {
 public:
  explicit ScopedKernels(const StressOptions& opt)
      : previous_(simd::Active()) {
    CUBRICK_CHECK(simd::SetBackend(KernelBackend(opt)));
  }
  ~ScopedKernels() { simd::SetBackend(previous_); }
  ScopedKernels(const ScopedKernels&) = delete;
  ScopedKernels& operator=(const ScopedKernels&) = delete;

 private:
  const simd::Backend previous_;
};

/// Every setting of the run, then the command that reruns it: the seed
/// derives all of them, so the replay needs only the seed and the op count.
std::string ConfigLine(const StressOptions& opt, bool cluster) {
  const char* mode = cluster ? "cluster" : "single";
  std::ostringstream out;
  out << "config: mode=" << mode << " seed=" << opt.seed
      << " threads=" << opt.threads << " ops=" << opt.ops_per_thread
      << " shards=" << opt.engine.shards_per_cube
      << " threaded=" << opt.engine.threaded_shards
      << " rollback_index=" << opt.engine.rollback_index
      << " parallel=" << opt.engine.query_parallelism
      << " ingest_parallel=" << opt.engine.ingest_parallelism
      << " persist=" << opt.with_persistence
      << " online=" << opt.online_check
      << " purge_stress=" << opt.purge_stress
      << " simd=" << simd::BackendName(KernelBackend(opt))
      << " dense_loads=" << opt.dense_loads;
  if (cluster) {
    out << " nodes=" << opt.num_nodes << " rf=" << opt.replication_factor
        << " latency_us=" << opt.message_latency_us;
  }
  out << "\nreplay: check_si --mode=" << mode << " --seed0=" << opt.seed
      << " --seeds=1 --ops=" << opt.ops_per_thread;
  return out.str();
}

/// Drains the online checker and surfaces its violations as failures.
void AppendCheckerFailures(OnlineChecker* checker, const std::string& config,
                           StressReport* report) {
  if (checker == nullptr) return;
  checker->DrainForTest();
  if (checker->ViolationCount() == 0) return;
  std::ostringstream out;
  out << config << "\nONLINE CHECKER: " << checker->ViolationCount()
      << " violation(s), " << checker->ActiveHorizonCountForTest()
      << " unfinished sampled txn(s) at shutdown";
  for (const auto& v : checker->Violations()) {
    out << "\n  [" << ViolationKindName(v.kind) << "] " << v.detail;
  }
  report->failures.push_back(out.str());
}

Query FullScanQuery() {
  Query q;
  q.group_by = {0, 1};
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  return q;
}

/// Pre-generates every thread's plan, then runs the worker pool and merges
/// counters/failures into `report`.
void RunWorkers(SharedState* shared, const StressOptions& opt, bool cluster,
                StressReport* report) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (int t = 0; t < opt.threads; ++t) {
    workers.push_back(std::make_unique<Worker>(
        shared, GenerateThreadPlan(opt, cluster, t), t));
  }
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (auto& worker : workers) {
    threads.emplace_back([&worker] { worker->Run(); });
  }
  for (auto& thread : threads) thread.join();
  for (auto& worker : workers) {
    report->MergeCounters(worker->counters());
  }
}

/// Validates one (snapshot, query) pair sequentially (epilogue checks).
bool ValidateSequential(const SiOracle& oracle, const aosi::Snapshot& snap,
                        const Query& q, const Result<QueryResult>& actual,
                        const std::string& config, const char* label,
                        StressReport* report) {
  if (!actual.ok()) {
    report->failures.push_back(config + "\n" + label + " query failed: " +
                               actual.status().ToString());
    return false;
  }
  const QueryResult expected = oracle.Eval(snap, q);
  const std::string diff = DiffResults(expected, *actual, q);
  if (!diff.empty()) {
    std::ostringstream out;
    out << config << "\nSI DIVERGENCE (" << label << ") at snapshot{epoch="
        << snap.epoch << ", deps=" << snap.deps.ToString() << "}: " << diff;
    report->failures.push_back(out.str());
    return false;
  }
  return true;
}

fs::path ScratchDir(const StressOptions& opt, const char* mode) {
  const fs::path base = opt.scratch_dir.empty()
                            ? fs::temp_directory_path()
                            : fs::path(opt.scratch_dir);
  return base / ("cubrick_check_si_" + std::string(mode) + "_" +
                 std::to_string(opt.seed) + "_" + std::to_string(getpid()));
}

}  // namespace

void StressReport::MergeCounters(const StressReport& other) {
  commits += other.commits;
  aborts += other.aborts;
  deletes += other.deletes;
  delete_rejects += other.delete_rejects;
  queries += other.queries;
  ryw_queries += other.ryw_queries;
  maintenance += other.maintenance;
  checkpoints += other.checkpoints;
  purge_rounds += other.purge_rounds;
  records_appended += other.records_appended;
}

std::string StressReport::Summary() const {
  std::ostringstream out;
  out << "commits=" << commits << " aborts=" << aborts
      << " deletes=" << deletes << " delete_rejects=" << delete_rejects
      << " queries=" << queries << " ryw=" << ryw_queries
      << " maintenance=" << maintenance << " checkpoints=" << checkpoints
      << " purge_rounds=" << purge_rounds << " rows=" << records_appended;
  return out.str();
}

StressOptions MakeSeedConfig(uint64_t seed, bool cluster) {
  // Every draw is unconditional, so a seed's shared settings are the same
  // in both modes and adding a mode-specific draw never shifts the others.
  Random rng(seed);
  constexpr size_t kQueryParallelism[] = {1, 2, 4};
  StressOptions opt;
  opt.seed = seed;
  opt.threads = 3 + static_cast<int>(rng.Uniform(3));
  opt.engine.shards_per_cube = 1 + rng.Uniform(3);
  opt.engine.threaded_shards = rng.OneIn(2);
  opt.engine.rollback_index = rng.OneIn(2);
  opt.engine.query_parallelism = kQueryParallelism[rng.Uniform(3)];
  opt.engine.ingest_parallelism = rng.OneIn(2) ? 4 : 1;
  opt.with_persistence = rng.OneIn(5);
  opt.online_check = rng.OneIn(2);
  const bool purge_stress = rng.OneIn(2);
  const size_t replication_factor = 1 + rng.Uniform(2);
  const bool latency = rng.OneIn(7);
  opt.scalar_kernels = rng.OneIn(2);
  opt.dense_loads = rng.OneIn(2);
  if (cluster) {
    opt.num_nodes = 3;
    opt.replication_factor = replication_factor;
    opt.message_latency_us = latency ? 20 : 0;
  } else {
    opt.purge_stress = purge_stress;
  }
  return opt;
}

DatabaseOptions ToDatabaseOptions(const StressOptions& opt) {
  DatabaseOptions options;
  static_cast<EngineOptions&>(options) = opt.engine;
  options.online_check = opt.online_check;
  return options;
}

cluster::ClusterOptions ToClusterOptions(const StressOptions& opt) {
  cluster::ClusterOptions options;
  static_cast<EngineOptions&>(options) = opt.engine;
  options.num_nodes = opt.num_nodes;
  options.replication_factor = opt.replication_factor;
  options.message_latency_us = opt.message_latency_us;
  return options;
}

StressReport RunSingleNodeStress(const StressOptions& opt) {
  const ScopedKernels kernels(opt);
  StressReport report;
  const std::string config = ConfigLine(opt, /*cluster=*/false);
  const fs::path dir = ScratchDir(opt, "single");
  DatabaseOptions db_options = ToDatabaseOptions(opt);
  if (opt.with_persistence) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    db_options.data_dir = dir.string();
  }

  auto db = std::make_unique<Database>(db_options);
  Status created =
      db->CreateCube(kCube, StressDimensions(), StressMetrics());
  CUBRICK_CHECK(created.ok());
  SiOracle oracle(db->FindSchema(kCube));

  SingleNodeSut sut(db.get(), opt.with_persistence);
  SharedState shared;
  shared.sut = &sut;
  shared.oracle = &oracle;
  shared.failures = &report.failures;
  shared.config = config;

  // Dedicated purge churn (purge_stress): loop purge rounds while
  // the workers scan, append and delete. Shared structure lock
  // only — same locking as MaintenanceOp, so deletes still serialize
  // against it — and LSE chases LCE only in the diskless case (with
  // persistence the LSE must stay checkpoint-bounded for the crash
  // epilogue). The short sleep keeps the shard queues from being purge-only.
  std::atomic<bool> stop_purge{false};
  std::thread purge_thread;
  // Tallied thread-locally: RunWorkers merges worker reports into `report`
  // while the purge thread is still running, so the shared report is only
  // touched after the join.
  uint64_t purge_rounds_run = 0;
  if (opt.purge_stress) {
    purge_thread = std::thread([&] {
      while (!stop_purge.load(std::memory_order_acquire)) {
        {
          ReaderMutexLock lock(shared.structure);
          if (!opt.with_persistence) {
            db->txns().TryAdvanceLSE(db->txns().LCE());
          }
          db->PurgeAll();
        }
        ++purge_rounds_run;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  RunWorkers(&shared, opt, /*cluster=*/false, &report);
  if (purge_thread.joinable()) {
    stop_purge.store(true, std::memory_order_release);
    purge_thread.join();
    report.purge_rounds += purge_rounds_run;
  }

  // Epilogue 1: quiescent full-cube validation at the final LCE.
  const Query q = FullScanQuery();
  if (report.ok()) {
    aosi::Txn ro = db->BeginReadOnly();
    auto actual = db->QueryIn(ro, kCube, q);
    ValidateSequential(oracle, ro.snapshot(), q, actual, config,
                       "final read", &report);
    db->txns().EndReadOnly(ro);
  }
  // The checker dies with the Database in the crash epilogue below, so
  // collect its verdict now (the recovered instance gets a fresh one).
  AppendCheckerFailures(db->online_checker(), config, &report);

  // Epilogue 2: crash (destroy the Database; segments survive on disk),
  // recover, and verify the recovered state equals the oracle at the
  // recovered LSE.
  if (report.ok() && opt.with_persistence) {
    auto lse = db->Checkpoint();
    if (!lse.ok()) {
      report.failures.push_back(config + "\ncheckpoint failed: " +
                                lse.status().ToString());
    } else {
      db.reset();
      db = std::make_unique<Database>(db_options);
      created = db->CreateCube(kCube, StressDimensions(), StressMetrics());
      CUBRICK_CHECK(created.ok());
      const Status recovered = db->Recover();
      if (!recovered.ok()) {
        report.failures.push_back(config + "\nrecovery failed: " +
                                  recovered.ToString());
      } else {
        oracle.TruncateAfter(db->txns().LSE());
        aosi::Txn ro = db->BeginReadOnly();
        auto actual = db->QueryIn(ro, kCube, q);
        ValidateSequential(oracle, ro.snapshot(), q, actual, config,
                           "post-recovery read", &report);
        db->txns().EndReadOnly(ro);
        AppendCheckerFailures(db->online_checker(), config, &report);
      }
    }
  }

  if (opt.with_persistence) fs::remove_all(dir);
  return report;
}

StressReport RunClusterStress(const StressOptions& opt) {
  const ScopedKernels kernels(opt);
  StressReport report;
  const std::string config = ConfigLine(opt, /*cluster=*/true);
  const fs::path dir = ScratchDir(opt, "cluster");
  cluster::ClusterOptions cluster_options = ToClusterOptions(opt);
  if (opt.with_persistence) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    cluster_options.data_dir = dir.string();
  }

  cluster::Cluster cluster(cluster_options);
  Status created =
      cluster.CreateCube(kCube, StressDimensions(), StressMetrics());
  CUBRICK_CHECK(created.ok());
  SiOracle oracle(cluster.FindSchema(kCube));

  // ClusterOptions has no online_check knob (the checker hook is process-
  // wide, shared by every node), so the harness installs one checker over
  // the whole run, epilogues included.
  std::unique_ptr<OnlineChecker> checker;
  if (opt.online_check) {
    checker = std::make_unique<OnlineChecker>();
    checker->Install();
  }

  ClusterSut sut(&cluster, opt.with_persistence);
  SharedState shared;
  shared.sut = &sut;
  shared.oracle = &oracle;
  shared.failures = &report.failures;
  shared.config = config;
  RunWorkers(&shared, opt, /*cluster=*/true, &report);

  // Epilogue 1: quiescent validation from every coordinator.
  const Query q = FullScanQuery();
  for (uint32_t n = 1; n <= opt.num_nodes && report.ok(); ++n) {
    cluster::DistTxn ro = cluster.BeginReadOnly(n);
    auto actual = cluster.Query(&ro, kCube, q);
    ValidateSequential(oracle, ro.txn.snapshot(), q, actual, config,
                       "final coordinator read", &report);
    cluster.EndReadOnly(&ro);
  }

  // Epilogue 2: crash one node and recover it from local segments plus
  // replica peers; every coordinator must still agree with the oracle.
  if (report.ok() && opt.with_persistence && opt.replication_factor >= 2) {
    auto lse = cluster.CheckpointAll();
    if (!lse.ok()) {
      report.failures.push_back(config + "\ncheckpoint-all failed: " +
                                lse.status().ToString());
    } else {
      const uint32_t victim =
          1 + static_cast<uint32_t>(opt.seed % opt.num_nodes);
      Status status = cluster.CrashNode(victim);
      CUBRICK_CHECK(status.ok());
      for (uint32_t n = 1; n <= opt.num_nodes && report.ok(); ++n) {
        if (n == victim) continue;
        cluster::DistTxn ro = cluster.BeginReadOnly(n);
        auto actual = cluster.Query(&ro, kCube, q);
        ValidateSequential(oracle, ro.txn.snapshot(), q, actual, config,
                           "during-outage read", &report);
        cluster.EndReadOnly(&ro);
      }
      status = cluster.RecoverNode(victim);
      if (!status.ok()) {
        report.failures.push_back(config + "\nnode recovery failed: " +
                                  status.ToString());
      }
      for (uint32_t n = 1; n <= opt.num_nodes && report.ok(); ++n) {
        cluster::DistTxn ro = cluster.BeginReadOnly(n);
        auto actual = cluster.Query(&ro, kCube, q);
        ValidateSequential(oracle, ro.txn.snapshot(), q, actual, config,
                           "post-recovery read", &report);
        cluster.EndReadOnly(&ro);
      }
    }
  }

  if (checker != nullptr) {
    checker->Uninstall();
    AppendCheckerFailures(checker.get(), config, &report);
  }
  if (opt.with_persistence) fs::remove_all(dir);
  return report;
}

}  // namespace cubrick::check
