// `ledger_trace`: every request is issued as the facade's own sequence of
// public layer calls (the bodies of Database::Load/Query/Checkpoint/Recover
// and Cluster::Query), and each call is timed from here. Counts and
// intra-scan phases come from before/after deltas of the engine's registry
// instruments; nothing is added to the engine itself.
//
// One load or query in four still goes through the facade untouched, so
// `trace.overhead_pct` compares the two paths inside the same run.

#include <algorithm>
#include <filesystem>
#include <map>

#include "aosi/epoch.h"
#include "common/mutex.h"
#include "ingest/parser.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "persist/flush_manager.h"

namespace ledger {
namespace {

namespace aosi = cubrick::aosi;
namespace fs = std::filesystem;
using cubrick::QueryResult;
using cubrick::Record;
using cubrick::Result;
using cubrick::Status;

/// Durations of consecutive stages: each Next() returns the ms since the
/// previous one.
class Lap {
 public:
  double Next() {
    const auto now = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - last_).count();
    last_ = now;
    return ms;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Stage samples of every traced request, keyed "<request>.<stage>".
class Trace {
 public:
  void Add(std::initializer_list<std::pair<const char*, double>> samples) {
    cubrick::MutexLock lock(mu_);
    for (const auto& [stage, value] : samples) stages_[stage].push_back(value);
  }

  std::vector<double> Get(const std::string& stage) const {
    cubrick::MutexLock lock(mu_);
    auto it = stages_.find(stage);
    return it == stages_.end() ? std::vector<double>{} : it->second;
  }

  void Clear() {
    cubrick::MutexLock lock(mu_);
    stages_.clear();
  }

  /// A pseudo-random quarter of the calls per counter take the facade.
  /// Hashing the call number keeps the choice independent of the clients'
  /// shape cycles, which a plain modulus would lock onto.
  static bool ViaFacade(std::atomic<uint64_t>* calls) {
    return Mix(calls->fetch_add(1, std::memory_order_acq_rel)) % 4 == 0;
  }

  static uint64_t Mix(uint64_t n) {
    n = (n ^ (n >> 30)) * 0xbf58476d1ce4e5b9ULL;
    n = (n ^ (n >> 27)) * 0x94d049bb133111ebULL;
    return n ^ (n >> 31);
  }

  std::atomic<uint64_t> load_calls{0};
  std::atomic<uint64_t> query_calls{0};

 private:
  mutable cubrick::Mutex mu_;
  std::map<std::string, std::vector<double>> stages_ GUARDED_BY(mu_);
};

double P50(const Trace& t, const std::string& stage) {
  return Percentile(t.Get(stage), 50);
}

/// `stage` of a median request: its mean over the requests whose total lies
/// between the 45th and 55th percentile. Per-stage medians of skewed
/// distributions do not add up to the request median; these do.
double Typical(const Trace& t, const std::string& request,
               const std::string& stage) {
  const std::vector<double> totals = t.Get(request + ".total");
  const std::vector<double> values = t.Get(request + "." + stage);
  if (totals.empty() || values.size() != totals.size()) return 0;
  std::vector<size_t> order(totals.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return totals[a] < totals[b]; });
  const size_t n = order.size();
  const size_t lo = n * 45 / 100;
  const size_t hi = std::max(lo + 1, (n * 55 + 99) / 100);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += values[order[i]];
  return sum / static_cast<double>(hi - lo);
}

size_t Count(const Trace& t, const std::string& stage) {
  return t.Get(stage).size();
}

using FileStates =
    std::map<std::string, std::pair<uintmax_t, fs::file_time_type>>;

FileStates ListFiles(const std::string& dir) {
  FileStates files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().string()] = {entry.file_size(),
                                      entry.last_write_time()};
    }
  }
  return files;
}

/// Bytes of every file created or rewritten between two listings.
double BytesWritten(const FileStates& before, const FileStates& after) {
  double bytes = 0;
  for (const auto& [path, state] : after) {
    auto it = before.find(path);
    if (it == before.end() || it->second != state) {
      bytes += static_cast<double>(state.first);
    }
  }
  return bytes;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.num_groups() != b.num_groups()) return false;
  auto ia = a.groups().begin();
  auto ib = b.groups().begin();
  for (; ia != a.groups().end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.size() != ib->second.size()) {
      return false;
    }
    for (size_t k = 0; k < ia->second.size(); ++k) {
      const auto& x = ia->second[k];
      const auto& y = ib->second[k];
      if (x.sum != y.sum || x.count != y.count || x.min != y.min ||
          x.max != y.max) {
        return false;
      }
    }
  }
  return true;
}

/// A Database without a data directory: checkpoints and recovery run
/// through a FlushManager the bench owns, so each of their steps is timed.
class TracedNode final : public Node {
 public:
  TracedNode(Trace* trace, const std::string& data_dir,
             size_t ingest_parallelism)
      : trace_(trace),
        db_(NodeOptions("", ingest_parallelism)),
        dir_(data_dir),
        ingest_parallelism_(ingest_parallelism) {
    CUBRICK_CHECK(CreateCube(&db_).ok());
    if (!dir_.empty()) {
      flusher_ = std::make_unique<cubrick::persist::FlushManager>(dir_, kCube);
    }
  }

  cubrick::Database& db() override { return db_; }
  cubrick::persist::FlushManager* flusher() { return flusher_.get(); }

  // database.cc Database::Load
  Status Load(const std::vector<Record>& records) override {
    if (Trace::ViaFacade(&trace_->load_calls)) {
      const auto t = Clock::now();
      const Status status = db_.Load(kCube, records);
      trace_->Add({{"load.facade", MillisSince(t)}});
      return status;
    }
    const auto t = Clock::now();
    Lap lap;
    const aosi::Txn txn = db_.Begin();
    const double begin = lap.Next();
    cubrick::Table* table = db_.FindTable(kCube);
    auto parsed = cubrick::ParseRecords(table->schema(), records, {},
                                        ingest_parallelism_);
    const double parse = lap.Next();
    if (!parsed.ok()) {
      (void)db_.txns().Rollback(txn);
      return parsed.status();
    }
    Status status = table->Append(txn.epoch, std::move(parsed->batches));
    const double append = lap.Next();
    if (!status.ok()) {
      (void)db_.Rollback(txn);
      return status;
    }
    status = db_.Commit(txn);
    const double commit = lap.Next();
    const double total = MillisSince(t);
    trace_->Add({{"load.total", total},
                 {"load.begin", begin},
                 {"load.parse", parse},
                 {"load.append", append},
                 {"load.commit", commit},
                 {"load.unattributed",
                  total - begin - parse - append - commit}});
    return status;
  }

  // database.cc Database::Query and Database::QueryIn
  Result<QueryResult> Query(const cubrick::Query& query) override {
    if (Trace::ViaFacade(&trace_->query_calls)) {
      const auto t = Clock::now();
      auto result = db_.Query(kCube, query);
      trace_->Add({{"query.facade", MillisSince(t)}});
      return result;
    }
    const auto t = Clock::now();
    Lap lap;
    const aosi::Txn txn = db_.BeginReadOnly();
    const double begin = lap.Next();
    cubrick::Table* table = db_.FindTable(kCube);
    QueryResult result =
        table->Scan(txn.snapshot(), cubrick::ScanMode::kSnapshotIsolation,
                    query, nullptr, kQueryParallelism,
                    /*visibility_cache=*/true);
    const double scan = lap.Next();
    db_.txns().EndReadOnly(txn);
    const double end = lap.Next();
    const double total = MillisSince(t);
    trace_->Add({{"query.total", total},
                 {"query.begin_ro", begin},
                 {"query.scan", scan},
                 {"query.end_ro", end},
                 {"query.unattributed", total - begin - scan - end}});
    return result;
  }

  Status DeletePartitions(
      const std::vector<cubrick::FilterClause>& filters) override {
    return db_.DeletePartitions(kCube, filters);
  }

  // database.cc Database::Checkpoint, with this node's own FlushManager.
  Status Checkpoint() override {
    if (flusher_ == nullptr) {
      return Status::FailedPrecondition("no data directory");
    }
    const FileStates files_before = ListFiles(dir_);
    const auto t = Clock::now();
    Lap lap;
    const aosi::Epoch to = db_.txns().LCE();
    const aosi::Epoch from = flusher_->ManifestLse();
    double rows = 0;
    if (!aosi::AtOrBefore(to, from)) {
      auto stats = flusher_->FlushRound(db_.FindTable(kCube), from, to);
      if (!stats.ok()) return stats.status();
      rows = static_cast<double>(stats->rows_written);
    }
    const double flush = lap.Next();
    (void)db_.txns().TryAdvanceLSE(to);
    const double advance = lap.Next();
    db_.PurgeAll();
    const double purge = lap.Next();
    const double total = MillisSince(t);
    trace_->Add({{"checkpoint.total", total},
                 {"checkpoint.flush", flush},
                 {"checkpoint.lse", advance},
                 {"checkpoint.purge", purge},
                 {"checkpoint.unattributed", total - flush - advance - purge},
                 {"checkpoint.rows", rows},
                 {"checkpoint.bytes",
                  BytesWritten(files_before, ListFiles(dir_))}});
    return Status::OK();
  }

 private:
  Trace* trace_;
  cubrick::Database db_;
  std::string dir_;
  size_t ingest_parallelism_;
  std::unique_ptr<cubrick::persist::FlushManager> flusher_;
};

class TracedCluster final : public ClusterTarget {
 public:
  explicit TracedCluster(Trace* trace)
      : trace_(trace), cluster_(ClusterOptions()) {
    CUBRICK_CHECK(CreateCube(&cluster_).ok());
  }

  cubrick::cluster::Cluster& cluster() override { return cluster_; }

  Status Load(uint32_t coordinator,
              const std::vector<Record>& records) override {
    const bool facade = Trace::ViaFacade(&trace_->load_calls);
    const auto t = Clock::now();
    Lap lap;
    auto txn = cluster_.BeginReadWrite(coordinator);
    const double begin = lap.Next();
    if (!txn.ok()) return txn.status();
    cubrick::cluster::LoadStats stats;
    Status status = cluster_.Append(&*txn, kCube, records, {},
                                    facade ? nullptr : &stats);
    const double append = lap.Next();
    if (!status.ok()) {
      (void)cluster_.Rollback(&*txn);
      return status;
    }
    status = cluster_.Commit(&*txn);
    const double commit = lap.Next();
    const double total = MillisSince(t);
    if (facade) {
      trace_->Add({{"cluster_load.facade", total}});
      return status;
    }
    trace_->Add({{"cluster_load.total", total},
                 {"cluster_load.begin", begin},
                 {"cluster_load.append", append},
                 {"cluster_load.parse",
                  static_cast<double>(stats.parse_us) / 1000},
                 {"cluster_load.forward",
                  static_cast<double>(stats.flush_us) / 1000},
                 {"cluster_load.commit", commit},
                 {"cluster_load.unattributed",
                  total - begin - append - commit}});
    return status;
  }

  // Real QueryOnce calls alternate with the same query recomposed from the
  // node RPC handlers without the bus (cluster.cc Cluster::Query); the
  // difference of their medians is the bus cost.
  Result<QueryResult> Query(uint32_t coordinator,
                            const cubrick::Query& query) override {
    const uint64_t n =
        Trace::Mix(trace_->query_calls.fetch_add(1, std::memory_order_acq_rel));
    if (n % 2 == 0) {
      const auto t = Clock::now();
      auto result = cluster_.QueryOnce(coordinator, kCube, query);
      trace_->Add({{"cluster_query.real", MillisSince(t)}});
      return result;
    }
    const auto t = Clock::now();
    Lap lap;
    cubrick::cluster::DistTxn ro = cluster_.BeginReadOnly(coordinator);
    const double begin = lap.Next();
    std::vector<double> scans;
    double merge = 0;
    auto merged = Recompose(ro, query, &scans, &merge);
    const auto ending = Clock::now();
    cluster_.EndReadOnly(&ro);
    const double end = MillisSince(ending);
    const double total = MillisSince(t);
    if (!merged.ok()) return merged.status();
    const double scanning = Sum(scans);
    const double mean = scanning / static_cast<double>(scans.size());
    trace_->Add({{"cluster_query.total", total},
                 {"cluster_query.begin_ro", begin},
                 {"cluster_query.scans", scanning},
                 {"cluster_query.node_scan", mean},
                 {"cluster_query.skew",
                  Ratio(*std::max_element(scans.begin(), scans.end()), mean)},
                 {"cluster_query.merge", merge},
                 {"cluster_query.end_ro", end},
                 {"cluster_query.unattributed",
                  total - begin - scanning - merge - end}});
    // One recomposed query in eight is re-run both ways at one snapshot,
    // untimed: the two paths must agree exactly.
    if (n % 16 == 1) Verify(coordinator, query);
    return merged;
  }

 private:
  /// Cluster::Query without the bus: each node's scan handler over the
  /// bricks it is the preferred owner of, merged in node order. Appends
  /// each node's scan time to `scans` and the merge time to `merge`.
  Result<QueryResult> Recompose(const cubrick::cluster::DistTxn& ro,
                                const cubrick::Query& query,
                                std::vector<double>* scans, double* merge) {
    QueryResult merged(query.aggs.size());
    Lap lap;
    for (uint32_t o = 1; o <= cluster_.num_nodes(); ++o) {
      auto owned = [this, o](cubrick::Bid bid) {
        return cluster_.ring()
                   .NodesFor(bid, ClusterOptions().replication_factor)
                   .front() == o;
      };
      auto partial = cluster_.node(o).HandleScan(
          kCube, ro.txn.snapshot(), cubrick::ScanMode::kSnapshotIsolation,
          query, owned);
      scans->push_back(lap.Next());
      if (!partial.ok()) return partial.status();
      merged.Merge(*partial);
      *merge += lap.Next();
    }
    return merged;
  }

  void Verify(uint32_t coordinator, const cubrick::Query& query) {
    cubrick::cluster::DistTxn ro = cluster_.BeginReadOnly(coordinator);
    auto real = cluster_.Query(&ro, kCube, query);
    std::vector<double> scans;
    double merge = 0;
    auto recomposed = Recompose(ro, query, &scans, &merge);
    cluster_.EndReadOnly(&ro);
    const bool same =
        real.ok() && recomposed.ok() && SameResult(*real, *recomposed);
    trace_->Add({{"cluster_query.verified", same ? 1.0 : 0.0}});
  }

  Trace* trace_;
  cubrick::cluster::Cluster cluster_;
};

/// Registry deltas over the measured window.
class Delta {
 public:
  void Start() { before_ = cubrick::obs::MetricsRegistry::Global().Snapshot(); }
  void Stop() { after_ = cubrick::obs::MetricsRegistry::Global().Snapshot(); }

  double Counter(const std::string& name) const {
    return static_cast<double>(Get(after_.counters, name) -
                               Get(before_.counters, name));
  }

  cubrick::obs::HistogramSnapshot Histogram(const std::string& name) const {
    cubrick::obs::HistogramSnapshot d;
    auto a = after_.histograms.find(name);
    if (a == after_.histograms.end()) return d;
    auto b = before_.histograms.find(name);
    for (size_t i = 0; i < d.buckets.size(); ++i) {
      d.buckets[i] = a->second.buckets[i] -
                     (b == before_.histograms.end() ? 0 : b->second.buckets[i]);
      d.count += d.buckets[i];
    }
    d.sum = a->second.sum -
            (b == before_.histograms.end() ? 0 : b->second.sum);
    return d;
  }

 private:
  static uint64_t Get(const std::map<std::string, uint64_t>& m,
                      const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  }

  cubrick::obs::MetricsSnapshot before_;
  cubrick::obs::MetricsSnapshot after_;
};

class TracedBackend final : public Backend {
 public:
  explicit TracedBackend(size_t ingest_parallelism)
      : ingest_parallelism_(ingest_parallelism) {}

  std::unique_ptr<Node> OpenNode(const std::string& data_dir) override {
    return std::make_unique<TracedNode>(&trace_, data_dir,
                                        ingest_parallelism_);
  }

  // database.cc Database::Recover, for the one ledger cube.
  Result<std::unique_ptr<Node>> RecoverNode(
      const std::string& data_dir) override {
    const auto t = Clock::now();
    auto node =
        std::make_unique<TracedNode>(&trace_, data_dir, ingest_parallelism_);
    Lap lap;
    cubrick::Table* table = node->db().FindTable(kCube);
    auto recovered = node->flusher()->Recover(table);
    const double replay = lap.Next();
    if (!recovered.ok()) return recovered.status();
    table->TruncateAfter(recovered->lse);
    const double truncate = lap.Next();
    node->db().txns().RestoreAfterRecovery(
        aosi::SameEpoch(recovered->lse, aosi::kEpochMax) ? aosi::kNoEpoch
                                                         : recovered->lse);
    const double restore = lap.Next();
    const double total = MillisSince(t);
    trace_.Add({{"recover.total", total},
                {"recover.replay", replay},
                {"recover.truncate", truncate},
                {"recover.restore", restore},
                {"recover.unattributed", total - replay - truncate - restore},
                {"recover.rows",
                 static_cast<double>(recovered->rows_recovered)}});
    return std::unique_ptr<Node>(std::move(node));
  }

  std::unique_ptr<ClusterTarget> OpenCluster() override {
    return std::make_unique<TracedCluster>(&trace_);
  }

  void StartWindow() override {
    trace_.Clear();
    delta_.Start();
  }

  void Finish(Report* report) override;

 private:
  size_t ingest_parallelism_;
  Trace trace_;
  Delta delta_;
};

void TracedBackend::Finish(Report* report) {
  delta_.Stop();
  const Trace& t = trace_;
  // Stage of a median request (see Typical), and a plain stage percentile.
  auto typical = [&](const std::string& name, const std::string& request,
                     const std::string& stage, double scale,
                     const std::string& unit) {
    report->Add(name, Typical(t, request, stage) * scale, unit,
                Count(t, request + ".total"));
  };
  auto p95 = [&](const std::string& name, const std::string& key) {
    const std::vector<double> v = t.Get(key);
    report->Add(name, Percentile(v, 95), "ms", v.size());
  };
  auto ratio = [&](const std::string& name, double num, double den,
                   const std::string& unit = "ratio") {
    report->Add(name, Ratio(num, den), unit, static_cast<uint64_t>(den));
  };
  const bool cluster = report->workload == "cluster";
  const double loads = static_cast<double>(
      Count(t, "load.total") + Count(t, "load.facade") +
      Count(t, "cluster_load.total") + Count(t, "cluster_load.facade"));
  // A verification runs two scans (Cluster::Query and the recomposition)
  // inside the delta window, so it counts as two queries.
  const double queries = static_cast<double>(
      Count(t, "query.total") + Count(t, "query.facade") +
      Count(t, "cluster_query.real") + Count(t, "cluster_query.total") +
      2 * Count(t, "cluster_query.verified"));

  // ingest
  typical("ingest.parse_ms_p50", "load", "parse", 1, "ms");
  ratio("ingest.parse_share", Sum(t.Get("load.parse")),
        Sum(t.Get("load.total")));
  const double hits = delta_.Counter("ingest.dict_snapshot_hits");
  ratio("ingest.dict_hit_ratio", hits,
        hits + delta_.Counter("ingest.dict_batch_misses"));

  // engine
  typical("engine.append_ms_p50", "load", "append", 1, "ms");
  p95("engine.append_ms_p95", "load.append");
  ratio("engine.group_append_ratio", delta_.Counter("ingest.group_appends"),
        loads);
  typical("engine.scan_ms_p50", "query", "scan", 1, "ms");
  p95("engine.scan_ms_p95", "query.scan");
  typical("engine.truncate_ms", "recover", "truncate", 1, "ms");

  // aosi
  typical("aosi.begin_rw_us_p50", "load", "begin", 1000, "us");
  typical("aosi.commit_us_p50", "load", "commit", 1000, "us");
  typical("aosi.begin_ro_us_p50", "query", "begin_ro", 1000, "us");
  typical("aosi.lse_advance_us_p50", "checkpoint", "lse", 1000, "us");
  typical("aosi.purge_ms_p50", "checkpoint", "purge", 1, "ms");
  ratio("aosi.purge_conflict_ratio", delta_.Counter("aosi.purge.conflicts"),
        delta_.Counter("aosi.purge.bricks_examined"));
  const auto pause = delta_.Histogram("aosi.purge.pause_us");
  report->Add("aosi.purge_pause_us_p99",
              static_cast<double>(pause.Percentile(99)), "us", pause.count);

  // query: intra-scan phases are per-brick registry histograms, summed
  // over the window and divided by the client queries.
  for (const auto& [name, hist] :
       std::vector<std::pair<std::string, std::string>>{
           {"query.visibility_ms_per_query", "query.visibility_us"},
           {"query.filter_ms_per_query", "query.filter_us"},
           {"query.agg_ms_per_query", "query.agg_us"},
           {"query.merge_ms_per_query", "query.parallel_merge_us"}}) {
    ratio(name, static_cast<double>(delta_.Histogram(hist).sum) / 1000,
          queries, "ms");
  }
  const double cache_hits = delta_.Counter("query.vis_cache_hits");
  ratio("query.vis_cache_hit_ratio", cache_hits,
        cache_hits + delta_.Counter("query.vis_cache_misses"));
  const double pruned = delta_.Counter("query.bricks_pruned");
  ratio("query.bricks_pruned_ratio", pruned,
        pruned + delta_.Counter("query.bricks_scanned"));
  ratio("query.rows_visible_ratio", delta_.Counter("query.rows_scanned"),
        delta_.Counter("query.rows_considered"));
  const double simd = delta_.Counter("query.kernel_simd_words");
  ratio("query.simd_word_ratio", simd,
        simd + delta_.Counter("query.kernel_simd_fallback"));

  // persist
  typical("persist.flush_round_ms_p50", "checkpoint", "flush", 1, "ms");
  ratio("persist.bytes_written_per_row", Sum(t.Get("checkpoint.bytes")),
        Sum(t.Get("checkpoint.rows")), "B/row");
  typical("persist.recover_replay_s", "recover", "replay", 0.001, "s");
  ratio("persist.recover_rows_per_s", Sum(t.Get("recover.rows")),
        Sum(t.Get("recover.replay")) / 1000, "1/s");

  // cluster
  typical("cluster.begin_rw_ms_p50", "cluster_load", "begin", 1, "ms");
  typical("cluster.append_parse_ms_p50", "cluster_load", "parse", 1, "ms");
  typical("cluster.append_forward_ms_p50", "cluster_load", "forward", 1,
          "ms");
  typical("cluster.commit_ms_p50", "cluster_load", "commit", 1, "ms");
  ratio("cluster.msgs_per_load",
        delta_.Counter("cluster.rpc.begin_broadcasts") +
            delta_.Counter("cluster.rpc.horizon_registrations") +
            delta_.Counter("cluster.rpc.finish_broadcasts") +
            delta_.Counter("cluster.rpc.append_forwards"),
        static_cast<double>(Count(t, "cluster_load.total") +
                            Count(t, "cluster_load.facade")),
        "count");
  typical("cluster.node_scan_ms_p50", "cluster_query", "node_scan", 1, "ms");
  typical("cluster.node_scan_skew", "cluster_query", "skew", 1, "ratio");
  typical("cluster.merge_us_p50", "cluster_query", "merge", 1000, "us");
  report->Add("cluster.bus_ms_p50",
              cluster ? P50(t, "cluster_query.real") -
                            P50(t, "cluster_query.total")
                      : 0,
              "ms", Count(t, "cluster_query.real"));
  for (double same : t.Get("cluster_query.verified")) {
    if (same == 0) {
      report->Fail("cluster: recomposed query differs from Cluster::Query");
      break;
    }
  }

  // common
  const double tasks = delta_.Counter("pool.tasks_total");
  ratio("pool.tasks_per_request", tasks, loads + queries, "count");
  ratio("pool.steal_ratio", delta_.Counter("pool.steals_total"), tasks);

  // Unattributed time and closure: the typical stages plus the typical
  // unattributed time should come within 10% of the request p50.
  struct Request {
    const char* unattributed;
    const char* prefix;
    std::vector<const char*> stages;
  };
  const std::vector<Request> requests = {
      {"unattributed.load_ms_p50", cluster ? "cluster_load" : "load",
       cluster ? std::vector<const char*>{"begin", "append", "commit"}
               : std::vector<const char*>{"begin", "parse", "append",
                                          "commit"}},
      {"unattributed.query_ms_p50", cluster ? "cluster_query" : "query",
       cluster ? std::vector<const char*>{"begin_ro", "scans", "merge",
                                          "end_ro"}
               : std::vector<const char*>{"begin_ro", "scan", "end_ro"}},
      {"unattributed.checkpoint_ms_p50", "checkpoint",
       {"flush", "lse", "purge"}},
      {"unattributed.recover_ms_p50", "recover",
       {"replay", "truncate", "restore"}},
  };
  for (const Request& r : requests) {
    const std::string prefix = r.prefix;
    typical(r.unattributed, prefix, "unattributed", 1, "ms");
    double parts = Typical(t, prefix, "unattributed");
    for (const char* s : r.stages) parts += Typical(t, prefix, s);
    const double total = P50(t, prefix + ".total");
    report->Add("trace.closure_" + prefix + "_pct",
                total > 0 ? 100 * (parts / total - 1) : 0, "%",
                Count(t, prefix + ".total"));
  }

  // Tracing overhead on the workload's main request type.
  const std::string main = report->workload == "ingest"    ? "load"
                           : report->workload == "cluster" ? "cluster_load"
                                                           : "query";
  const double facade = P50(t, main + ".facade");
  report->Add("trace.overhead_pct",
              facade > 0 ? 100 * (P50(t, main + ".total") / facade - 1) : 0,
              "%", Count(t, main + ".total"));
}

}  // namespace

std::unique_ptr<Backend> MakeBackend(size_t ingest_parallelism) {
  return std::make_unique<TracedBackend>(ingest_parallelism);
}

bool Traced() { return true; }

}  // namespace ledger
