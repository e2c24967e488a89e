#include "cluster/cluster.h"

#include "aosi/checker_hook.h"
#include "cubrick/ddl.h"
#include "obs/metrics.h"

#include <filesystem>
#include <thread>

namespace cubrick::cluster {

namespace {

/// RPC fan-out instrumentation (docs/OBSERVABILITY.md, "cluster.rpc.*").
struct RpcInstruments {
  obs::Counter* begin_broadcasts;
  obs::Counter* horizon_registrations;
  obs::Counter* finish_broadcasts;
  obs::Counter* append_forwards;
  obs::Counter* redeliveries_queued;
  obs::Counter* redeliveries_applied;
  obs::Gauge* redelivery_depth;
};

const RpcInstruments& Rpc() {
  static const RpcInstruments m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return RpcInstruments{
        reg.GetCounter("cluster.rpc.begin_broadcasts"),
        reg.GetCounter("cluster.rpc.horizon_registrations"),
        reg.GetCounter("cluster.rpc.finish_broadcasts"),
        reg.GetCounter("cluster.rpc.append_forwards"),
        reg.GetCounter("cluster.rpc.redeliveries_queued"),
        reg.GetCounter("cluster.rpc.redeliveries_applied"),
        reg.GetGauge("cluster.rpc.redelivery_depth"),
    };
  }();
  return m;
}

}  // namespace

void LoadStats::PublishTo(obs::MetricsRegistry& reg) const {
  reg.GetCounter("cluster.load.records_accepted")->Add(accepted);
  reg.GetCounter("cluster.load.records_rejected")->Add(rejected);
  reg.GetHistogram("cluster.load.parse_us")
      ->Record(static_cast<uint64_t>(parse_us < 0 ? 0 : parse_us));
  reg.GetHistogram("cluster.load.flush_us")
      ->Record(static_cast<uint64_t>(flush_us < 0 ? 0 : flush_us));
  reg.GetHistogram("cluster.load.total_us")
      ->Record(static_cast<uint64_t>(total_us < 0 ? 0 : total_us));
}

std::unique_ptr<ClusterNode> Cluster::MakeNode(uint32_t idx) const {
  EngineOptions engine = options_;
  if (!engine.data_dir.empty()) {
    engine.data_dir += "/node" + std::to_string(idx);
    std::filesystem::create_directories(engine.data_dir);
  }
  return std::make_unique<ClusterNode>(idx, options_.num_nodes,
                                       std::move(engine));
}

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  CUBRICK_CHECK(options_.num_nodes >= 1);
  CUBRICK_CHECK(options_.replication_factor >= 1);
  CUBRICK_CHECK(options_.replication_factor <= options_.num_nodes);
  for (uint32_t i = 1; i <= options_.num_nodes; ++i) {
    nodes_.push_back(MakeNode(i));
    ring_.AddNode(i);
  }
  missed_ops_.resize(options_.num_nodes);
  crashed_.resize(options_.num_nodes);
}

void Cluster::Latency() const {
  if (options_.message_latency_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.message_latency_us));
  }
}

void Cluster::CarryClocksForward(uint32_t from, uint32_t to) {
  Latency();
  node(to).txns().ObserveClock(node(from).txns().EC());
}

void Cluster::CarryClocksBack(uint32_t from, uint32_t to) {
  Latency();
  node(from).txns().ObserveClock(node(to).txns().EC());
}

Status Cluster::CreateCube(const std::string& name,
                           std::vector<DimensionDef> dimensions,
                           std::vector<MetricDef> metrics) {
  auto schema =
      CubeSchema::Make(name, std::move(dimensions), std::move(metrics));
  if (!schema.ok()) return schema.status();
  for (auto& n : nodes_) {
    CUBRICK_RETURN_IF_ERROR(n->CreateCube(schema.value()));
  }
  catalog_.emplace(name, schema.value());
  return Status::OK();
}

Status Cluster::ExecuteDdl(const std::string& ddl) {
  auto stmt = ParseCreateCube(ddl);
  if (!stmt.ok()) return stmt.status();
  return CreateCube(stmt->cube_name, std::move(stmt->dimensions),
                    std::move(stmt->metrics));
}

Status Cluster::DropCube(const std::string& name) {
  for (auto& n : nodes_) {
    CUBRICK_RETURN_IF_ERROR(n->DropCube(name));
  }
  catalog_.erase(name);
  return Status::OK();
}

std::shared_ptr<const CubeSchema> Cluster::FindSchema(
    const std::string& name) const {
  Table* table = nodes_.front()->FindTable(name);
  if (table == nullptr) return nullptr;
  // All nodes share the schema object; grab it via the table's brick map.
  // (Schema is immutable apart from its internally-synchronized
  // dictionaries.)
  return std::shared_ptr<const CubeSchema>(table->schema_ptr());
}

Result<DistTxn> Cluster::BeginReadWrite(uint32_t coordinator) {
  // Dependency sets must reflect every node's pending list; an unreachable
  // node makes the snapshot unsound, so RW begins require full membership.
  for (auto& n : nodes_) {
    if (!n->online()) {
      return Status::Unavailable("node " + std::to_string(n->node_idx()) +
                                 " is offline; cannot begin RW transaction");
    }
  }
  // The coordinator draws the epoch before the begin broadcast lands, so a
  // peer's LCE may already have walked past it (the walk skips unallocated
  // epoch gaps). Such a peer rejects the registration — accepting it would
  // retroactively grow snapshots pinned at its LCE — and the coordinator
  // aborts the draft epoch and redraws. The clock carries of the failed
  // round made the coordinator observe the rejecting peer's EC (> its LCE),
  // so every retry draws a strictly larger epoch; more than a handful of
  // rounds means LCEs are advancing faster than a broadcast completes.
  constexpr int kMaxBeginAttempts = 16;
  for (int attempt = 0; attempt < kMaxBeginAttempts; ++attempt) {
    DistTxn dist;
    dist.coordinator = coordinator;
    // The checker's OnBegin is deferred to the end of this round: a draft
    // that loses a race below aborts without ever reading, and reporting
    // its horizon would turn averted hazards into false lost_horizon
    // violations.
    dist.txn = node(coordinator).txns().BeginReadWrite(
        /*notify_checker=*/false);

    aosi::EpochSet remote_pending;
    std::vector<uint32_t> accepted_peers;
    bool rejected = false;
    for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
      if (o == coordinator) continue;
      Rpc().begin_broadcasts->Add();
      CarryClocksForward(coordinator, o);
      auto result = node(o).HandleBeginBroadcast(dist.txn.epoch);
      CarryClocksBack(coordinator, o);
      if (!result.accepted) {
        rejected = true;
        break;
      }
      accepted_peers.push_back(o);
      remote_pending.UnionWith(result.pending);
    }
    if (!rejected) {
      // Phase 2: the final dependency set — and with it the snapshot's
      // purge horizon — is only known after augmenting with every peer's
      // pending list, but TryAdvanceLSE clamps against *local*
      // registrations only, and the distributed scan path reads every
      // node's replicas. Register the final horizon on every node before
      // the transaction reads anything; a node whose LSE already passed it
      // (an AdvanceClusterLSE sweep that read this node before the dep
      // existed) refuses, and the draft is aborted and redrawn exactly as
      // for a stale begin. Peer pins are released by the HandleFinish
      // broadcast, which the abort path below also sends.
      bool horizon_ok =
          node(coordinator).txns().AugmentDeps(&dist.txn, remote_pending);
      const aosi::Epoch horizon = dist.txn.Horizon();
      for (uint32_t o : accepted_peers) {
        if (!horizon_ok) break;
        Rpc().horizon_registrations->Add();
        CarryClocksForward(coordinator, o);
        horizon_ok = node(o).HandleRegisterHorizon(dist.txn.epoch, horizon);
        CarryClocksBack(coordinator, o);
      }
      if (horizon_ok) {
        if (auto* hook = aosi::GetCheckerHook()) hook->OnBegin(dist.txn);
        return dist;
      }
      rejected = true;
    }
    // Abort the draft epoch: peers that registered it learn it finished
    // (nothing was written at this epoch, so there is no data to remove),
    // then the coordinator finalizes locally and the loop redraws.
    const aosi::Epoch draft = dist.txn.epoch;
    for (uint32_t o : accepted_peers) {
      Rpc().finish_broadcasts->Add();
      DeliverOrQueue(coordinator, o, [draft](ClusterNode& n) {
        return n.HandleFinish(draft, aosi::EpochSet{}, /*committed=*/false);
      });
    }
    const Status rollback = node(coordinator).txns().Rollback(dist.txn);
    CUBRICK_CHECK(rollback.ok());
  }
  return Status::Unavailable(
      "begin broadcast lost the race against LCE advancement " +
      std::to_string(kMaxBeginAttempts) + " times; cluster is overloaded");
}

DistTxn Cluster::BeginReadOnly(uint32_t coordinator) {
  DistTxn dist;
  dist.coordinator = coordinator;
  dist.txn = node(coordinator).txns().BeginReadOnly();
  return dist;
}

void Cluster::DeliverOrQueue(uint32_t from, uint32_t to,
                             std::function<Status(ClusterNode&)> op) {
  if (to != from && !node(to).online()) {
    MutexLock lock(redelivery_mutex_);
    missed_ops_[to - 1].push_back(std::move(op));
    Rpc().redeliveries_queued->Add();
    Rpc().redelivery_depth->Set(
        static_cast<int64_t>(missed_ops_[to - 1].size()));
    return;
  }
  if (to != from) CarryClocksForward(from, to);
  const Status status = op(node(to));
  // Deterministic operations cannot fail on a healthy node; surface
  // programming errors loudly instead of silently dropping them.
  CUBRICK_CHECK(status.ok());
  if (to != from) CarryClocksBack(from, to);
}

Status Cluster::Commit(DistTxn* dist) {
  if (dist->txn.read_only()) {
    EndReadOnly(dist);
    return Status::OK();
  }
  // Single broadcast, no consensus: commits are deterministic (§IV).
  const aosi::Epoch epoch = dist->txn.epoch;
  const aosi::EpochSet deps = dist->txn.deps;
  // The snapshot's reads are over once commit starts, and a peer that
  // receives the finish below releases its phase-2 horizon pin — so its
  // LSE may legitimately pass the horizon before the local commit at the
  // bottom runs. Retire the snapshot with the checker first, or it judges
  // those advances against a transaction that already stopped reading.
  if (auto* hook = aosi::GetCheckerHook()) hook->OnFinish(dist->txn, true);
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    if (o == dist->coordinator) continue;
    Rpc().finish_broadcasts->Add();
    DeliverOrQueue(dist->coordinator, o, [epoch, deps](ClusterNode& n) {
      return n.HandleFinish(epoch, deps, /*committed=*/true);
    });
  }
  return node(dist->coordinator).txns().Commit(dist->txn);
}

Status Cluster::Rollback(DistTxn* dist) {
  if (dist->txn.read_only()) {
    EndReadOnly(dist);
    return Status::OK();
  }
  const aosi::Epoch epoch = dist->txn.epoch;
  const aosi::EpochSet deps = dist->txn.deps;
  // Two-phase: physically remove the victim's records everywhere (§III-C5)
  // *before* finalizing the abort anywhere. Finalizing first would let a
  // node's LCE pass the victim while its data is still present on another
  // node, and a reader beginning there would see aborted records.
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    if (o == dist->coordinator) continue;
    DeliverOrQueue(dist->coordinator, o, [epoch](ClusterNode& n) {
      n.RollbackData(epoch);
      return Status::OK();
    });
  }
  node(dist->coordinator).RollbackData(epoch);
  // Same as Commit: peers receiving the finish release their horizon pins,
  // so retire the snapshot with the checker before the broadcast.
  if (auto* hook = aosi::GetCheckerHook()) hook->OnFinish(dist->txn, false);
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    if (o == dist->coordinator) continue;
    Rpc().finish_broadcasts->Add();
    DeliverOrQueue(dist->coordinator, o, [epoch, deps](ClusterNode& n) {
      return n.HandleFinish(epoch, deps, /*committed=*/false);
    });
  }
  return node(dist->coordinator).txns().Rollback(dist->txn);
}

void Cluster::EndReadOnly(DistTxn* dist) {
  node(dist->coordinator).txns().EndReadOnly(dist->txn);
}

Status Cluster::Append(DistTxn* dist, const std::string& cube,
                       const std::vector<Record>& records,
                       const ParseOptions& parse_options, LoadStats* stats) {
  if (dist->txn.read_only()) {
    return Status::FailedPrecondition("append in a read-only transaction");
  }
  Stopwatch total;

  // Parse phase: CPU-only, on the node that received the buffer (§V-B).
  Stopwatch parse_timer;
  auto parsed = node(dist->coordinator).Parse(cube, records, parse_options);
  if (!parsed.ok()) return parsed.status();
  const int64_t parse_us = parse_timer.ElapsedMicros();

  // Validation and forwarding: every owner of a brick receives a view of
  // the one parsed batch naming that brick's partition, so replicas share
  // the rows instead of copying them.
  Stopwatch flush_timer;
  const auto batch =
      std::make_shared<const EncodedBatch>(std::move(parsed->batches));
  std::vector<std::vector<size_t>> per_node(options_.num_nodes);
  for (size_t p = 0; p < batch->num_partitions(); ++p) {
    for (uint32_t owner :
         ring_.NodesFor(batch->bids[p], options_.replication_factor)) {
      per_node[owner - 1].push_back(p);
    }
  }
  const aosi::Epoch epoch = dist->txn.epoch;
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    if (per_node[o - 1].empty()) continue;
    Rpc().append_forwards->Add();
    // Delivery closures run at most once per node, so the view can be
    // moved out of the closure into the engine. A delivery queued for an
    // offline node keeps the shared batch alive until it is redelivered.
    DeliverOrQueue(dist->coordinator, o,
                   [epoch, cube,
                    view = BatchView(batch, std::move(per_node[o - 1]))](
                       ClusterNode& n) mutable {
                     return n.HandleAppend(epoch, cube, std::move(view));
                   });
  }

  LoadStats local;
  local.parse_us = parse_us;
  local.flush_us = flush_timer.ElapsedMicros();
  local.total_us = total.ElapsedMicros();
  local.accepted = parsed->accepted;
  local.rejected = parsed->rejected;
  local.PublishTo(obs::MetricsRegistry::Global());
  if (stats != nullptr) {
    *stats = local;
  }
  return Status::OK();
}

Status Cluster::DeleteWhere(DistTxn* dist, const std::string& cube,
                            const std::vector<FilterClause>& filters) {
  if (dist->txn.read_only()) {
    return Status::FailedPrecondition("delete in a read-only transaction");
  }
  const aosi::Epoch epoch = dist->txn.epoch;
  // Phase 1: verify partition granularity on every reachable node before
  // marking anywhere. (Offline replicas hold copies of bricks that online
  // nodes also validated, so redelivered marks cannot hit new violations.)
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    if (!node(o).online()) continue;
    if (o != dist->coordinator) CarryClocksForward(dist->coordinator, o);
    const Status check = node(o).HandleDeleteCheck(cube, filters);
    if (o != dist->coordinator) CarryClocksBack(dist->coordinator, o);
    CUBRICK_RETURN_IF_ERROR(check);
  }
  // Phase 2: mark everywhere (queued for offline replicas).
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    DeliverOrQueue(dist->coordinator, o,
                   [epoch, cube, filters](ClusterNode& n) {
                     return n.HandleDeleteMark(epoch, cube, filters);
                   });
  }
  return Status::OK();
}

uint32_t Cluster::PreferredOwner(Bid bid) const {
  const auto owners = ring_.NodesFor(bid, options_.replication_factor);
  for (uint32_t owner : owners) {
    if (nodes_[owner - 1]->online()) return owner;
  }
  // Every owner offline. Query refuses outages of replication_factor
  // nodes up front, so only a node that fails mid-query gets here.
  return owners.front();
}

Result<QueryResult> Cluster::Query(DistTxn* dist, const std::string& cube,
                                   const cubrick::Query& query, ScanMode mode) {
  // Fewer offline nodes than replicas leave every brick an online owner;
  // with as many offline, some brick may have none, and skipping it would
  // return a silently partial answer.
  size_t offline = 0;
  for (const auto& n : nodes_) offline += n->online() ? 0 : 1;
  if (offline >= options_.replication_factor) {
    return Status::Unavailable(std::to_string(offline) +
                               " node(s) offline with replication factor " +
                               std::to_string(options_.replication_factor));
  }
  QueryResult merged(query.aggs.size());
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    if (!node(o).online()) continue;  // replicas answer for its bricks
    const uint32_t node_idx = o;
    auto filter = [this, node_idx](Bid bid) {
      return PreferredOwner(bid) == node_idx;
    };
    if (o != dist->coordinator) CarryClocksForward(dist->coordinator, o);
    auto partial =
        node(o).HandleScan(cube, dist->txn.snapshot(), mode, query, filter);
    if (o != dist->coordinator) CarryClocksBack(dist->coordinator, o);
    if (!partial.ok()) return partial.status();
    merged.Merge(*partial);
  }
  return merged;
}

Result<QueryResult> Cluster::QueryOnce(uint32_t coordinator,
                                       const std::string& cube,
                                       const cubrick::Query& query, ScanMode mode) {
  DistTxn ro = BeginReadOnly(coordinator);
  auto result = Query(&ro, cube, query, mode);
  EndReadOnly(&ro);
  return result;
}

aosi::Epoch Cluster::AdvanceClusterLSE() {
  {
    MutexLock lock(redelivery_mutex_);
    for (uint32_t o = 0; o < options_.num_nodes; ++o) {
      if (!nodes_[o]->online() || !missed_ops_[o].empty()) {
        // Replication unhealthy: LSE must not advance (§III-D).
        aosi::Epoch min_lse = aosi::kEpochMax;
        for (auto& n : nodes_) {
          min_lse = aosi::MinEpoch(min_lse, n->txns().LSE());
        }
        return min_lse;
      }
    }
  }
  aosi::Epoch candidate = aosi::kEpochMax;
  for (auto& n : nodes_) {
    candidate = aosi::MinEpoch(candidate, n->txns().LCE());
    // §III-B condition (c): LSE may not pass data that is not yet durable
    // on every replica. Diskless clusters return "unbounded" here.
    candidate = aosi::MinEpoch(candidate, n->MinFlushedLse());
    // Purge at LSE applies delete markers destructively on every node, so
    // every node's LSE must respect the cluster-wide minimum horizon.
    // These reads are not atomic across nodes; the per-node TryAdvanceLSE
    // clamp below, together with the phase-2 horizon registration in
    // BeginReadWrite (which puts every live snapshot's horizon in every
    // node's local clamp), is what makes the advance sound against begins
    // that race this sweep.
    candidate = aosi::MinEpoch(candidate, n->txns().MinActiveHorizon());
  }
  aosi::Epoch cluster_lse = aosi::kEpochMax;
  for (auto& n : nodes_) {
    cluster_lse = aosi::MinEpoch(cluster_lse, n->txns().TryAdvanceLSE(candidate));
  }
  return cluster_lse;
}

PurgeStats Cluster::PurgeAll() {
  PurgeStats total;
  for (auto& n : nodes_) total += n->Purge();
  return total;
}

Status Cluster::SetNodeOnline(uint32_t idx, bool online) {
  if (idx < 1 || idx > options_.num_nodes) {
    return Status::OutOfRange("no such node");
  }
  if (!online) {
    node(idx).set_online(false);
    return Status::OK();
  }
  if (crashed_[idx - 1]) {
    return Status::FailedPrecondition(
        "node " + std::to_string(idx) + " crashed; RecoverNode restores it");
  }
  node(idx).set_online(true);
  // Redeliver traffic missed while offline, in order.
  std::vector<std::function<Status(ClusterNode&)>> queued;
  {
    MutexLock lock(redelivery_mutex_);
    queued.swap(missed_ops_[idx - 1]);
  }
  for (auto& op : queued) {
    const Status status = op(node(idx));
    CUBRICK_CHECK(status.ok());
  }
  Rpc().redeliveries_applied->Add(queued.size());
  Rpc().redelivery_depth->Set(0);
  return Status::OK();
}

Result<aosi::Epoch> Cluster::CheckpointAll() {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("cluster has no data_dir");
  }
  {
    MutexLock lock(redelivery_mutex_);
    for (uint32_t o = 0; o < options_.num_nodes; ++o) {
      if (!nodes_[o]->online() || !missed_ops_[o].empty()) {
        return Status::Unavailable(
            "replication unhealthy; checkpoint refused");
      }
    }
  }
  aosi::Epoch candidate = aosi::kEpochMax;
  for (auto& n : nodes_) {
    candidate = aosi::MinEpoch(candidate, n->txns().LCE());
    // Same cluster-wide horizon clamp as AdvanceClusterLSE: the LSE the
    // checkpoint advances to must not pass any coordinator's active
    // snapshots, or purge would apply deletes those snapshots exclude.
    candidate = aosi::MinEpoch(candidate, n->txns().MinActiveHorizon());
  }
  for (auto& n : nodes_) {
    CUBRICK_RETURN_IF_ERROR(n->Checkpoint(candidate));
  }
  aosi::Epoch cluster_lse = aosi::kEpochMax;
  for (auto& n : nodes_) {
    cluster_lse = aosi::MinEpoch(cluster_lse, n->txns().TryAdvanceLSE(candidate));
  }
  return cluster_lse;
}

Status Cluster::CrashNode(uint32_t idx) {
  if (idx < 1 || idx > options_.num_nodes) {
    return Status::OutOfRange("no such node");
  }
  {
    MutexLock lock(redelivery_mutex_);
    missed_ops_[idx - 1].clear();  // the crashed process loses everything
  }
  // Replace the node wholesale: fresh TxnManager, empty tables.
  auto fresh = MakeNode(idx);
  for (const auto& [name, schema] : catalog_) {
    CUBRICK_RETURN_IF_ERROR(fresh->CreateCube(schema));
  }
  fresh->set_online(false);
  nodes_[idx - 1] = std::move(fresh);
  crashed_[idx - 1] = true;
  return Status::OK();
}

Status Cluster::RecoverNode(uint32_t idx) {
  if (idx < 1 || idx > options_.num_nodes) {
    return Status::OutOfRange("no such node");
  }
  if (!crashed_[idx - 1]) {
    return Status::FailedPrecondition(
        "node " + std::to_string(idx) + " did not crash");
  }
  ClusterNode& target = node(idx);
  // Step 1: local flush segments, up to the node's own durable LSE.
  auto local = target.RecoverLocal();
  if (!local.ok()) return local.status();
  const aosi::Epoch local_lse = *local;

  // Step 2: catch up from replicas. For every brick this node owns a copy
  // of, the first *other* online owner supplies the runs newer than the
  // locally recovered LSE.
  aosi::Epoch cluster_lce = 0;
  for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
    if (o == idx || !node(o).online()) continue;
    cluster_lce = aosi::MaxEpoch(cluster_lce, node(o).txns().LCE());
  }
  for (const auto& [name, schema] : catalog_) {
    for (uint32_t o = 1; o <= options_.num_nodes; ++o) {
      if (o == idx || !node(o).online()) continue;
      Table* peer_table = node(o).FindTable(name);
      Table* local_table = target.FindTable(name);
      CUBRICK_CHECK(peer_table != nullptr && local_table != nullptr);
      // Only bricks (a) replicated onto `idx` and (b) for which `o` is the
      // first online supplier — each brick is decoded and copied exactly
      // once.
      const auto supplies = [&](Bid bid) {
        bool owned = false;
        uint32_t supplier = 0;
        for (uint32_t owner :
             ring_.NodesFor(bid, options_.replication_factor)) {
          if (owner == idx) owned = true;
          if (supplier == 0 && owner != idx && node(owner).online()) {
            supplier = owner;
          }
        }
        return owned && supplier == o;
      };
      CarryClocksForward(idx, o);
      auto mine =
          ExtractTableRuns(peer_table, local_lse, cluster_lce, supplies);
      CarryClocksBack(idx, o);
      CUBRICK_RETURN_IF_ERROR(ReplayExtracted(local_table, std::move(mine)));
    }
  }

  // Step 3: restore counters — caught up to the cluster's LCE in memory,
  // durable locally only up to local_lse.
  target.txns().RestoreAfterRecovery(aosi::MaxEpoch(cluster_lce, local_lse),
                                     local_lse);
  crashed_[idx - 1] = false;
  target.set_online(true);
  return Status::OK();
}

uint64_t Cluster::TotalRecords() {
  uint64_t n = 0;
  for (auto& nd : nodes_) n += nd->TotalRecords();
  return n;
}

}  // namespace cubrick::cluster
