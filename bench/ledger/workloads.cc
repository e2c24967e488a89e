// The four ledger workloads (README.md, "Workloads"): data generation from
// the seed, the request schedules, the correctness checks and the
// end-to-end metrics. Engines are reached only through the Node and
// ClusterTarget interfaces, so `ledger` and `ledger_trace` replay exactly
// the same requests.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <sys/resource.h>
#include <unistd.h>

#include "ledger.h"

namespace ledger {

namespace fs = std::filesystem;

using cubrick::AggSpec;
using cubrick::FilterClause;
using cubrick::QueryResult;
using cubrick::Record;
using cubrick::Status;

void Report::Fail(const std::string& why) {
  correct = false;
  // The first few reasons are enough to debug; the rest only repeat them.
  if (errors.size() < 8) errors.push_back(why);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

namespace {

// Record layout: the four dimensions, then 12 int64 and 4 double metrics.
constexpr size_t kRegion = 0;
constexpr size_t kProduct = 1;
constexpr size_t kChannel = 2;
constexpr size_t kDay = 3;
constexpr size_t kNumDims = 4;
constexpr size_t kIntMetrics = 12;
constexpr size_t kDoubleMetrics = 4;
constexpr uint64_t kRegions = 64;
constexpr uint64_t kProducts = 256;
constexpr uint64_t kChannels = 8;
constexpr uint64_t kDays = 32;
/// Rows per partition delete in `mixed` and per load in `mixed`/`cluster`:
/// every visible COUNT there is a multiple of it.
constexpr size_t kRowsPerLoad = 500;
/// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupReps = 3;

using RegionCounts = std::array<uint64_t, kRegions>;

/// splitmix64: a stream of 64-bit values fixed by the seed on every
/// platform (unlike the std distributions).
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

const std::vector<std::string>& RegionNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (uint64_t r = 0; r < kRegions; ++r) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "region-%02u", static_cast<unsigned>(r));
      v.emplace_back(buf);
    }
    return v;
  }();
  return names;
}

/// Region index of a "region-NN" name, or kRegions when it is not one.
uint64_t RegionIndex(const std::string& name) {
  if (name.size() != 9 || name.compare(0, 7, "region-") != 0) return kRegions;
  const uint64_t r = static_cast<uint64_t>(std::stoul(name.substr(7)));
  return r < kRegions ? r : kRegions;
}

/// `rows` random records, all on `day` unless it is negative. Doubles are
/// multiples of 1/256 below 100, so every SUM over them is exact in any
/// fold order and the reference does not depend on the engine's order.
std::vector<Record> MakeBatch(Rng* rng, size_t rows, int64_t day) {
  std::vector<Record> batch(rows);
  for (Record& r : batch) {
    r.values.reserve(kNumDims + kIntMetrics + kDoubleMetrics);
    r.values.emplace_back(RegionNames()[rng->Uniform(kRegions)]);
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(kProducts)));
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(kChannels)));
    r.values.emplace_back(day < 0 ? static_cast<int64_t>(rng->Uniform(kDays))
                                  : day);
    for (size_t m = 0; m < kIntMetrics; ++m) {
      r.values.emplace_back(static_cast<int64_t>(rng->Uniform(1000)));
    }
    for (size_t m = 0; m < kDoubleMetrics; ++m) {
      r.values.emplace_back(static_cast<double>(rng->Uniform(25600)) / 256.0);
    }
  }
  return batch;
}

RegionCounts CountRegions(const std::vector<Record>& batch) {
  RegionCounts counts{};
  for (const Record& r : batch) {
    ++counts[RegionIndex(r.values[kRegion].as_string())];
  }
  return counts;
}

void AddCounts(RegionCounts* total, const RegionCounts& add, uint64_t times) {
  for (uint64_t r = 0; r < kRegions; ++r) (*total)[r] += add[r] * times;
}

uint64_t Sum(const RegionCounts& counts) {
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  return n;
}

// --- Queries ---------------------------------------------------------------

/// The four query shapes every workload cycles through.
enum class Shape { kByRegion, kDayRangeByProduct, kUngrouped, kChannelEq };
constexpr int kNumShapes = 4;

/// Metric indexes as queries address them: int metrics first, then doubles.
constexpr size_t kFirstDouble = kIntMetrics;

cubrick::Query MakeQuery(Shape shape, uint64_t day_lo, uint64_t day_hi,
                         uint64_t channel) {
  cubrick::Query q;
  FilterClause f;
  switch (shape) {
    case Shape::kByRegion:
      q.group_by = {kRegion};
      q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
      break;
    case Shape::kDayRangeByProduct:
      f.dim = kDay;
      f.op = FilterClause::Op::kRange;
      f.range_lo = day_lo;
      f.range_hi = day_hi;
      q.filters = {f};
      q.group_by = {kProduct};
      q.aggs = {{AggSpec::Fn::kSum, 1}, {AggSpec::Fn::kMax, 2}};
      break;
    case Shape::kUngrouped:
      q.aggs = {{AggSpec::Fn::kCount, 0},
                {AggSpec::Fn::kSum, kFirstDouble},
                {AggSpec::Fn::kMin, kFirstDouble + 1},
                {AggSpec::Fn::kMax, kFirstDouble + 2}};
      break;
    case Shape::kChannelEq:
      f.dim = kChannel;
      f.op = FilterClause::Op::kEq;
      f.values = {channel};
      q.filters = {f};
      q.aggs = {{AggSpec::Fn::kCount, 0}};
      break;
  }
  return q;
}

uint64_t UngroupedCount(const QueryResult& r) {
  return static_cast<uint64_t>(r.Single(0, AggSpec::Fn::kCount));
}

/// Region index of a by-region group key, via the cube's dictionary.
uint64_t DecodeRegion(const cubrick::CubeSchema& schema, uint64_t id) {
  auto name = schema.dictionary(kRegion)->Decode(id);
  return name.ok() ? RegionIndex(*name) : kRegions;
}

/// Checks the COUNT (agg `count_agg`) of a by-region result; "" when equal.
std::string CheckRegionCounts(const QueryResult& r, size_t count_agg,
                              const cubrick::CubeSchema& schema,
                              const RegionCounts& expected) {
  RegionCounts got{};
  for (const auto& [key, states] : r.groups()) {
    const uint64_t region = DecodeRegion(schema, key.at(0));
    if (region == kRegions) return "by-region result has an unknown key";
    got[region] = static_cast<uint64_t>(
        states[count_agg].Finalize(AggSpec::Fn::kCount));
  }
  for (uint64_t i = 0; i < kRegions; ++i) {
    if (got[i] != expected[i]) {
      return "region " + std::to_string(i) + " count " +
             std::to_string(got[i]) + " != expected " +
             std::to_string(expected[i]);
    }
  }
  return "";
}

/// Exact answers to the four shapes over everything added, computed from
/// the generated records without the engine.
class Reference {
 public:
  Reference(uint64_t day_lo, uint64_t day_hi)
      : day_lo_(day_lo), day_hi_(day_hi) {
    product_max_.fill(std::numeric_limits<int64_t>::min());
  }

  void Add(const std::vector<Record>& batch) {
    for (const Record& r : batch) {
      const auto& v = r.values;
      const uint64_t region = RegionIndex(v[kRegion].as_string());
      const auto product = static_cast<uint64_t>(v[kProduct].as_int64());
      const auto day = static_cast<uint64_t>(v[kDay].as_int64());
      region_counts_[region] += 1;
      region_sums_[region] += v[kNumDims].as_int64();
      if (day >= day_lo_ && day <= day_hi_) {
        product_seen_[product] = true;
        product_sums_[product] += v[kNumDims + 1].as_int64();
        product_max_[product] =
            std::max(product_max_[product], v[kNumDims + 2].as_int64());
      }
      count_ += 1;
      const size_t d = kNumDims + kIntMetrics;
      sum_d0_ += v[d].as_double();
      min_d1_ = std::min(min_d1_, v[d + 1].as_double());
      max_d2_ = std::max(max_d2_, v[d + 2].as_double());
      channel_counts_[static_cast<uint64_t>(v[kChannel].as_int64())] += 1;
    }
  }

  /// "" when `r` answers `shape` exactly; int aggregates, COUNT, MIN and
  /// MAX must match bit for bit, a double SUM to relative 1e-12.
  std::string Check(Shape shape, uint64_t channel, const QueryResult& r,
                    const cubrick::CubeSchema& schema) const {
    switch (shape) {
      case Shape::kByRegion: {
        if (r.num_groups() != NonZero(region_counts_)) {
          return "by-region group count differs";
        }
        for (const auto& [key, states] : r.groups()) {
          const uint64_t region = DecodeRegion(schema, key.at(0));
          if (region == kRegions ||
              states[0].Finalize(AggSpec::Fn::kSum) !=
                  static_cast<double>(region_sums_[region]) ||
              states[1].Finalize(AggSpec::Fn::kCount) !=
                  static_cast<double>(region_counts_[region])) {
            return "by-region SUM/COUNT differs";
          }
        }
        return "";
      }
      case Shape::kDayRangeByProduct: {
        size_t seen = 0;
        for (bool s : product_seen_) seen += s ? 1 : 0;
        if (r.num_groups() != seen) return "by-product group count differs";
        for (const auto& [key, states] : r.groups()) {
          const uint64_t p = key.at(0);
          if (p >= kProducts || !product_seen_[p] ||
              states[0].Finalize(AggSpec::Fn::kSum) !=
                  static_cast<double>(product_sums_[p]) ||
              states[1].Finalize(AggSpec::Fn::kMax) !=
                  static_cast<double>(product_max_[p])) {
            return "day-range by-product SUM/MAX differs";
          }
        }
        return "";
      }
      case Shape::kUngrouped: {
        if (UngroupedCount(r) != count_) return "ungrouped COUNT differs";
        if (count_ == 0) return "";
        const double sum = r.Single(1, AggSpec::Fn::kSum);
        if (std::fabs(sum - sum_d0_) > 1e-12 * std::fabs(sum_d0_)) {
          return "ungrouped double SUM differs";
        }
        if (r.Single(2, AggSpec::Fn::kMin) != min_d1_ ||
            r.Single(3, AggSpec::Fn::kMax) != max_d2_) {
          return "ungrouped MIN/MAX differs";
        }
        return "";
      }
      case Shape::kChannelEq:
        return UngroupedCount(r) == channel_counts_[channel]
                   ? ""
                   : "channel COUNT differs";
    }
    return "unknown shape";
  }

 private:
  template <typename Array>
  static size_t NonZero(const Array& a) {
    size_t n = 0;
    for (auto v : a) n += v != 0 ? 1 : 0;
    return n;
  }

  uint64_t day_lo_;
  uint64_t day_hi_;
  RegionCounts region_counts_{};
  std::array<int64_t, kRegions> region_sums_{};
  std::array<bool, kProducts> product_seen_{};
  std::array<int64_t, kProducts> product_sums_{};
  std::array<int64_t, kProducts> product_max_{};
  uint64_t count_ = 0;
  double sum_d0_ = 0;
  double min_d1_ = std::numeric_limits<double>::infinity();
  double max_d2_ = -std::numeric_limits<double>::infinity();
  std::array<uint64_t, kChannels> channel_counts_{};
};

// --- Measurement helpers ---------------------------------------------------

/// Operation tally shared by a workload's client threads.
struct Tally {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> bad_ops{0};

  /// Counts one operation; true when it succeeded.
  bool Note(const Status& status) {
    ops.fetch_add(1, std::memory_order_acq_rel);
    if (status.ok()) return true;
    bad_ops.fetch_add(1, std::memory_order_acq_rel);
    return false;
  }
};

/// One client thread's samples and failed checks, merged after it joins.
struct ClientLog {
  std::vector<double> latency_ms;
  /// Open loop: how late each request left, in ms.
  std::vector<double> lag_ms;
  std::vector<std::string> errors;
};

Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// CPU time this process has used, all threads, in seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

/// Everything a workload measured, turned into the reported metrics.
struct Outcome {
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::vector<double> load_ms;
  std::vector<double> query_ms;
  std::vector<double> lag_ms;
  double bytes_per_row = 0;
  double history_bytes_per_row = 0;
  double window_s = 0;
  /// CPU time of the whole process per client request in the window.
  double cpu_ms_per_op = 0;
  double load_rows_per_s = 0;
  uint64_t rows_loaded = 0;
  uint64_t loads = 0;
  uint64_t queries = 0;
  std::vector<double> checkpoint_ms;
  std::vector<double> recover_s;
};

void Merge(Outcome* out, ClientLog* log, Report* report, bool is_load) {
  Append(is_load ? &out->load_ms : &out->query_ms, log->latency_ms);
  Append(&out->lag_ms, log->lag_ms);
  for (const auto& e : log->errors) report->Fail(e);
}

/// CPU per request and rows/s of a measured window that used `cpu_s`,
/// once its loads and queries are counted.
void WindowRates(Outcome* o, double cpu_s) {
  const uint64_t requests = o->loads + o->queries;
  if (requests > 0) {
    o->cpu_ms_per_op = 1000 * cpu_s / static_cast<double>(requests);
  }
  if (o->window_s > 0) {
    o->load_rows_per_s = static_cast<double>(o->rows_loaded) / o->window_s;
  }
}

void Finalize(const Outcome& o, const Tally& tally, Report* report) {
  report->attempted += tally.ops.load(std::memory_order_acquire);
  report->failed += tally.bad_ops.load(std::memory_order_acquire);
  // Bounded in BENCHMARK.json: CPU time and memory repeat on a shared host
  // whose wall-clock latencies drift with its neighbours (README.md).
  report->Add("setup_s", Percentile(o.setup_cpu_s, 50), "s",
              o.setup_cpu_s.size());
  report->Add("cpu_ms_per_op", o.cpu_ms_per_op, "ms", o.loads + o.queries);
  report->Add("bytes_per_row", o.bytes_per_row, "B/row", 1);
  report->Add("load_p50_ms", Percentile(o.load_ms, 50), "ms", o.load_ms.size());
  report->Add("load_p95_ms", Percentile(o.load_ms, 95), "ms", o.load_ms.size());
  report->Add("query_p50_ms", Percentile(o.query_ms, 50), "ms",
              o.query_ms.size());
  report->Add("query_p95_ms", Percentile(o.query_ms, 95), "ms",
              o.query_ms.size());
  report->Add("setup_wall_s", Percentile(o.setup_wall_s, 50), "s",
              o.setup_wall_s.size());
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  const double attempted = static_cast<double>(report->attempted);
  report->Add("op_failure_ratio",
              attempted == 0
                  ? 0
                  : static_cast<double>(report->failed) / attempted,
              "ratio", report->attempted);
  report->Add("aosi.history_bytes_per_row", o.history_bytes_per_row, "B/row",
              1);
  report->Add("bench.gen_lag_ms_p99", Percentile(o.lag_ms, 99), "ms",
              o.lag_ms.size());
  report->Add("bench.load_rows_per_s", o.load_rows_per_s, "1/s", o.loads);
  report->Add("bench.queries_per_s",
              o.window_s > 0 ? static_cast<double>(o.queries) / o.window_s : 0,
              "1/s", o.queries);
  report->Add("bench.checkpoint_p50_ms", Percentile(o.checkpoint_ms, 50), "ms",
              o.checkpoint_ms.size());
  report->Add("bench.recover_s", Percentile(o.recover_s, 50), "s",
              o.recover_s.size());
}

/// Times one set-up, in CPU seconds of the whole process and in wall time.
class SetupTimer {
 public:
  void Stop(Outcome* o) const {
    o->setup_cpu_s.push_back(CpuSeconds() - cpu_);
    o->setup_wall_s.push_back(MillisSince(wall_) / 1000);
  }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = CpuSeconds();
};

void MeasureMemory(cubrick::Database& db, Outcome* o) {
  const double rows = static_cast<double>(db.TotalRecords());
  if (rows == 0) return;
  const double history = static_cast<double>(db.HistoryMemoryUsage());
  o->bytes_per_row =
      (static_cast<double>(db.DataMemoryUsage()) + history) / rows;
  o->history_bytes_per_row = history / rows;
}

/// Due time of request `i` of an open-loop client sending `rate` requests
/// per second, shifted by `phase` periods so that clients interleave.
Clock::time_point Due(Clock::time_point start, double rate, double phase,
                      uint64_t i) {
  return start + Secs((static_cast<double>(i) + phase) / rate);
}

/// Waits until `due` and records how late the generator got there.
void WaitUntil(Clock::time_point due, ClientLog* log) {
  std::this_thread::sleep_until(due);
  log->lag_ms.push_back(
      std::chrono::duration<double, std::milli>(Clock::now() - due).count());
}

// --- ingest ----------------------------------------------------------------
//
// Closed loop in rounds. Each round opens a fresh diskless engine and has 3
// loaders issue 100 loads of 1,000 rows each back to back, cycled from 32
// pre-generated batches per loader; no queries while loading, no disk. The
// loads overlap, so concurrent appends to one shard coalesce, and rows/s is
// what the engine sustains rather than an offered rate. Rounds repeat until
// the window ends; a fresh engine per round bounds memory, and CPU per load
// and rows/s are medians over rounds. After each round, untimed queries
// check the per-region counts and the total.

void RunIngest(const RunConfig& cfg, Backend* backend, Report* report) {
  constexpr int kLoaders = 3;
  const size_t rows = 1000;
  const size_t batches = cfg.smoke ? 4 : 32;
  const uint64_t round_loads = cfg.smoke ? 4 : 100;
  const int reps = cfg.smoke ? 1 : kSetupReps;
  Outcome o;
  Tally tally;

  std::vector<std::vector<std::vector<Record>>> data;
  std::vector<std::vector<RegionCounts>> counts;
  std::unique_ptr<Node> node;
  for (int rep = 0; rep < reps; ++rep) {
    node.reset();
    data.clear();
    counts.clear();
    const SetupTimer timer;
    node = backend->OpenNode("");
    for (int l = 0; l < kLoaders; ++l) {
      Rng rng(cfg.seed, static_cast<uint64_t>(l));
      data.emplace_back();
      counts.emplace_back();
      for (size_t b = 0; b < batches; ++b) {
        data[l].push_back(MakeBatch(&rng, rows, -1));
        counts[l].push_back(CountRegions(data[l].back()));
      }
    }
    timer.Stop(&o);
  }

  backend->StartWindow();
  const auto start = Clock::now();
  const auto end = start + Secs(cfg.seconds);
  std::vector<double> cpu_ms_per_load;
  std::vector<double> rows_per_s;
  do {
    if (node == nullptr) node = backend->OpenNode("");
    std::vector<ClientLog> logs(kLoaders);
    std::vector<std::vector<uint64_t>> done(kLoaders,
                                            std::vector<uint64_t>(batches, 0));
    const double cpu_start = CpuSeconds();
    const auto round_start = Clock::now();
    std::vector<std::thread> threads;
    for (int l = 0; l < kLoaders; ++l) {
      threads.emplace_back([&, l] {
        for (uint64_t i = 0; i < round_loads; ++i) {
          const auto t = Clock::now();
          if (!tally.Note(node->Load(data[l][i % batches]))) continue;
          logs[l].latency_ms.push_back(MillisSince(t));
          ++done[l][i % batches];
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall_s = SecondsBetween(round_start, Clock::now());
    const double cpu_s = CpuSeconds() - cpu_start;

    RegionCounts expected{};
    for (int l = 0; l < kLoaders; ++l) {
      for (size_t b = 0; b < batches; ++b) {
        AddCounts(&expected, counts[l][b], done[l][b]);
      }
      Merge(&o, &logs[l], report, /*is_load=*/true);
    }
    const uint64_t loads = o.load_ms.size() - o.loads;
    o.loads += loads;
    o.rows_loaded += Sum(expected);
    if (loads > 0) {
      cpu_ms_per_load.push_back(1000 * cpu_s / static_cast<double>(loads));
      rows_per_s.push_back(static_cast<double>(Sum(expected)) / wall_s);
    }

    // The checks call the facade directly, so the traced run does not count
    // them as the workload's queries.
    const auto schema = node->db().FindSchema(kCube);
    for (const Shape shape : {Shape::kByRegion, Shape::kUngrouped}) {
      auto r = node->db().Query(kCube, MakeQuery(shape, 0, kDays - 1, 0));
      if (!tally.Note(r.status())) continue;
      std::string why;
      if (shape == Shape::kByRegion) {
        why = CheckRegionCounts(*r, 1, *schema, expected);
      } else if (UngroupedCount(*r) != Sum(expected)) {
        why = "ungrouped COUNT != rows loaded";
      }
      if (!why.empty()) report->Fail("ingest: " + why);
    }
    MeasureMemory(node->db(), &o);
    node.reset();
  } while (Clock::now() < end);
  o.window_s = SecondsBetween(start, Clock::now());
  o.cpu_ms_per_op = Percentile(cpu_ms_per_load, 50);
  o.load_rows_per_s = Percentile(rows_per_s, 50);
  Finalize(o, tally, report);
}

// --- scan ------------------------------------------------------------------
//
// Closed loop, 2 clients issuing queries back to back, cycling the four
// shapes over 400k rows loaded in 2,000 transactions of 200 rows with no
// purge: each brick keeps ~650 epoch runs of history (4,000 x 100 rows gives
// ~710 at twice the set-up time) behind a warm visibility cache. The set-up
// loads are the load latency this workload reports; every query is checked
// against the reference.

void RunScan(const RunConfig& cfg, Backend* backend, Report* report) {
  constexpr int kClients = 2;
  constexpr uint64_t kDayLo = 4;
  constexpr uint64_t kDayHi = 11;
  const size_t txns = cfg.smoke ? 40 : 2000;
  const size_t rows = 200;
  const int reps = cfg.smoke ? 1 : kSetupReps;
  Outcome o;
  Tally tally;

  std::unique_ptr<Node> node;
  Reference reference(kDayLo, kDayHi);
  for (int rep = 0; rep < reps; ++rep) {
    node.reset();
    reference = Reference(kDayLo, kDayHi);
    const SetupTimer timer;
    node = backend->OpenNode("");
    Rng rng(cfg.seed, 0);
    for (size_t i = 0; i < txns; ++i) {
      const auto batch = MakeBatch(&rng, rows, -1);
      const auto t = Clock::now();
      if (!tally.Note(node->Load(batch))) continue;
      o.load_ms.push_back(MillisSince(t));
      reference.Add(batch);
    }
    timer.Stop(&o);
  }
  MeasureMemory(node->db(), &o);
  const auto schema = node->db().FindSchema(kCube);

  backend->StartWindow();
  const double cpu_start = CpuSeconds();
  const auto start = Clock::now();
  const auto end = start + Secs(cfg.seconds);
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = 0; Clock::now() < end; ++i) {
        const auto shape = static_cast<Shape>((i + c) % kNumShapes);
        const uint64_t channel = (i / kNumShapes) % kChannels;
        const auto t = Clock::now();
        auto r = node->Query(MakeQuery(shape, kDayLo, kDayHi, channel));
        if (!tally.Note(r.status())) continue;
        logs[c].latency_ms.push_back(MillisSince(t));
        const std::string why = reference.Check(shape, channel, *r, *schema);
        if (!why.empty()) logs[c].errors.push_back("scan: " + why);
      }
    });
  }
  for (auto& t : threads) t.join();
  o.window_s = SecondsBetween(start, Clock::now());
  const double window_cpu_s = CpuSeconds() - cpu_start;
  for (auto& log : logs) {
    o.queries += log.latency_ms.size();
    Merge(&o, &log, report, /*is_load=*/false);
  }
  node.reset();
  WindowRates(&o, window_cpu_s);
  Finalize(o, tally, report);
}

// --- mixed -----------------------------------------------------------------
//
// Open loop on one node with a data directory. One loader at 50 loads/s of
// 500 rows, all on the current day; two dashboards at 25 queries/s each; a
// maintenance thread checkpointing every window/7.5 (2 s at the default
// 15 s) and deleting the oldest 4-day partition at one and two thirds of the
// window. The day advances 12 times per window, so the schedule keeps its
// shape at any --seconds. After the window, three restarts recover the data
// directory into fresh engines.

void RunMixed(const RunConfig& cfg, Backend* backend, Report* report) {
  constexpr int64_t kPreloadDays = 8;
  constexpr int kDashboards = 2;
  const uint64_t loads_per_day = cfg.smoke ? 1 : 25;
  const size_t batches = cfg.smoke ? 4 : 32;
  const int reps = cfg.smoke ? 1 : kSetupReps;
  const double seconds = cfg.seconds;
  const fs::path root =
      fs::path(cfg.data_dir) / ("mixed-" + std::to_string(::getpid()));
  Outcome o;
  Tally tally;

  std::unique_ptr<Node> node;
  fs::path dir;
  for (int rep = 0; rep < reps; ++rep) {
    node.reset();
    fs::remove_all(root);
    dir = root / std::to_string(rep);
    fs::create_directories(dir);
    const SetupTimer timer;
    node = backend->OpenNode(dir.string());
    Rng rng(cfg.seed, 0);
    for (int64_t day = 0; day < kPreloadDays; ++day) {
      for (uint64_t k = 0; k < loads_per_day; ++k) {
        tally.Note(node->Load(MakeBatch(&rng, kRowsPerLoad, day)));
      }
    }
    tally.Note(node->Checkpoint());
    timer.Stop(&o);
  }
  std::vector<std::vector<Record>> data;
  Rng rng(cfg.seed, 1);
  for (size_t b = 0; b < batches; ++b) {
    data.push_back(MakeBatch(&rng, kRowsPerLoad, 0));
  }

  // A delete is "settled" once the loader has committed a load that began
  // after the delete finished: by then LCE has passed the delete, so every
  // later snapshot sees it. Two dashboard COUNTs may only be compared when
  // every delete started before the later one ended had settled before the
  // earlier one began.
  std::atomic<uint64_t> deletes_started{0};
  std::atomic<uint64_t> deletes_finished{0};
  std::atomic<uint64_t> deletes_settled{0};

  backend->StartWindow();
  const double cpu_start = CpuSeconds();
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + Secs(seconds);
  const double day_period = seconds / 12;
  auto day_at = [&](Clock::time_point due) {
    const auto d = kPreloadDays + static_cast<int64_t>(
                                      SecondsBetween(start, due) / day_period);
    return std::min<int64_t>(d, kDays - 1);
  };

  ClientLog loader;
  std::vector<ClientLog> dashboards(kDashboards);
  ClientLog maintenance;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (uint64_t i = 0;; ++i) {
      const auto due = Due(start, 50, 0, i);
      if (due >= end) break;
      std::vector<Record> batch = data[i % batches];
      for (Record& r : batch) r.values[kDay] = day_at(due);
      WaitUntil(due, &loader);
      const uint64_t finished =
          deletes_finished.load(std::memory_order_acquire);
      if (!tally.Note(node->Load(batch))) continue;
      loader.latency_ms.push_back(MillisSince(due));
      deletes_settled.store(finished, std::memory_order_release);
    }
  });
  for (int d = 0; d < kDashboards; ++d) {
    threads.emplace_back([&, d] {
      ClientLog& log = dashboards[d];
      bool have_prev = false;
      uint64_t prev_count = 0;
      uint64_t prev_settled = 0;
      for (uint64_t i = 0;; ++i) {
        const auto due = Due(start, 25, 0.25 + 0.5 * d, i);
        if (due >= end) break;
        const auto shape = static_cast<Shape>((i + d) % kNumShapes);
        const auto day = static_cast<uint64_t>(day_at(due));
        const auto query = MakeQuery(shape, day < 3 ? 0 : day - 3, day,
                                     i % kChannels);
        WaitUntil(due, &log);
        const uint64_t settled =
            deletes_settled.load(std::memory_order_acquire);
        auto r = node->Query(query);
        if (!tally.Note(r.status())) continue;
        log.latency_ms.push_back(MillisSince(due));
        if (shape != Shape::kUngrouped) continue;
        const uint64_t started =
            deletes_started.load(std::memory_order_acquire);
        const uint64_t count = UngroupedCount(*r);
        if (count % kRowsPerLoad != 0) {
          log.errors.push_back("mixed: COUNT " + std::to_string(count) +
                            " is not a multiple of 500");
        }
        if (have_prev && started == prev_settled && count < prev_count) {
          log.errors.push_back("mixed: COUNT fell from " +
                            std::to_string(prev_count) + " to " +
                            std::to_string(count) + " with no delete between");
        }
        have_prev = true;
        prev_count = count;
        prev_settled = settled;
      }
    });
  }
  threads.emplace_back([&] {
    struct Event {
      double at;
      int partition;  // -1: checkpoint
    };
    std::vector<Event> events;
    for (int k = 1; k < 8; ++k) events.push_back({k * seconds / 7.5, -1});
    for (int k = 1; k <= 2; ++k) {
      events.push_back({k * seconds / 3 + seconds / 30, k - 1});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.at < b.at; });
    for (const Event& e : events) {
      const auto due = start + Secs(e.at);
      WaitUntil(due, &maintenance);
      if (e.partition < 0) {
        if (tally.Note(node->Checkpoint())) {
          o.checkpoint_ms.push_back(MillisSince(due));
        }
        continue;
      }
      FilterClause f;
      f.dim = kDay;
      f.op = FilterClause::Op::kRange;
      f.range_lo = 4 * static_cast<uint64_t>(e.partition);
      f.range_hi = f.range_lo + 3;
      deletes_started.fetch_add(1, std::memory_order_acq_rel);
      tally.Note(node->DeletePartitions({f}));
      deletes_finished.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  for (auto& t : threads) t.join();
  o.window_s = SecondsBetween(start, Clock::now());
  const double window_cpu_s = CpuSeconds() - cpu_start;
  o.loads = loader.latency_ms.size();
  o.rows_loaded = o.loads * kRowsPerLoad;
  Merge(&o, &loader, report, /*is_load=*/true);
  for (auto& log : dashboards) {
    o.queries += log.latency_ms.size();
    Merge(&o, &log, report, /*is_load=*/false);
  }
  Append(&o.lag_ms, maintenance.lag_ms);

  // Everything committed is flushed by a last checkpoint with the clients
  // stopped, so each restart must recover exactly the rows visible now.
  tally.Note(node->Checkpoint());
  auto final_count = node->Query(MakeQuery(Shape::kUngrouped, 0, 0, 0));
  if (tally.Note(final_count.status())) {
    const uint64_t expected = UngroupedCount(*final_count);
    MeasureMemory(node->db(), &o);
    node.reset();
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t0 = Clock::now();
      auto recovered = backend->RecoverNode(dir.string());
      if (!tally.Note(recovered.status())) continue;
      o.recover_s.push_back(MillisSince(t0) / 1000);
      auto count = (*recovered)->Query(MakeQuery(Shape::kUngrouped, 0, 0, 0));
      if (tally.Note(count.status()) && UngroupedCount(*count) != expected) {
        report->Fail("mixed: recovered COUNT " +
                     std::to_string(UngroupedCount(*count)) +
                     " != COUNT at the final checkpoint " +
                     std::to_string(expected));
      }
    }
  } else {
    report->Fail("mixed: final COUNT failed");
  }
  node.reset();
  fs::remove_all(root);
  WindowRates(&o, window_cpu_s);
  Finalize(o, tally, report);
}

// --- cluster ---------------------------------------------------------------
//
// Open loop on a diskless 4-node cluster. One loader at 20 distributed
// loads/s of 500 rows with a rotating coordinator; two query threads at 10
// queries/s each, each on its own coordinator so its COUNTs may never fall.

void RunCluster(const RunConfig& cfg, Backend* backend, Report* report) {
  constexpr int kQueryThreads = 2;
  constexpr uint64_t kDayLo = 4;
  constexpr uint64_t kDayHi = 11;
  const size_t preload = cfg.smoke ? 4 : 40;
  const size_t batches = cfg.smoke ? 4 : 32;
  const int reps = cfg.smoke ? 1 : kSetupReps;
  Outcome o;
  Tally tally;

  std::unique_ptr<ClusterTarget> target;
  RegionCounts expected{};
  for (int rep = 0; rep < reps; ++rep) {
    target.reset();
    expected = {};
    const SetupTimer timer;
    target = backend->OpenCluster();
    const uint32_t nodes = target->cluster().num_nodes();
    Rng rng(cfg.seed, 0);
    for (size_t i = 0; i < preload; ++i) {
      const auto batch = MakeBatch(&rng, kRowsPerLoad, -1);
      const auto coordinator = static_cast<uint32_t>(i % nodes) + 1;
      if (tally.Note(target->Load(coordinator, batch))) {
        AddCounts(&expected, CountRegions(batch), 1);
      }
    }
    timer.Stop(&o);
  }
  const uint32_t nodes = target->cluster().num_nodes();
  std::vector<std::vector<Record>> data;
  std::vector<RegionCounts> counts;
  Rng rng(cfg.seed, 1);
  for (size_t b = 0; b < batches; ++b) {
    data.push_back(MakeBatch(&rng, kRowsPerLoad, -1));
    counts.push_back(CountRegions(data.back()));
  }

  backend->StartWindow();
  const double cpu_start = CpuSeconds();
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + Secs(cfg.seconds);
  ClientLog loader;
  std::vector<uint64_t> done(batches, 0);
  std::vector<ClientLog> queriers(kQueryThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (uint64_t i = 0;; ++i) {
      const auto due = Due(start, 20, 0, i);
      if (due >= end) break;
      WaitUntil(due, &loader);
      const auto coordinator = static_cast<uint32_t>(i % nodes) + 1;
      if (!tally.Note(target->Load(coordinator, data[i % batches]))) continue;
      loader.latency_ms.push_back(MillisSince(due));
      ++done[i % batches];
    }
  });
  for (int q = 0; q < kQueryThreads; ++q) {
    threads.emplace_back([&, q] {
      ClientLog& log = queriers[q];
      const auto coordinator = static_cast<uint32_t>(q) + 1;
      uint64_t prev_count = 0;
      for (uint64_t i = 0;; ++i) {
        const auto due = Due(start, 10, 0.25 + 0.5 * q, i);
        if (due >= end) break;
        const auto shape = static_cast<Shape>((i + q) % kNumShapes);
        const auto query = MakeQuery(shape, kDayLo, kDayHi, i % kChannels);
        WaitUntil(due, &log);
        auto r = target->Query(coordinator, query);
        if (!tally.Note(r.status())) continue;
        log.latency_ms.push_back(MillisSince(due));
        if (shape != Shape::kUngrouped) continue;
        const uint64_t count = UngroupedCount(*r);
        if (count % kRowsPerLoad != 0) {
          log.errors.push_back("cluster: COUNT " + std::to_string(count) +
                            " is not a multiple of 500");
        }
        if (count < prev_count) {
          log.errors.push_back("cluster: COUNT fell from " +
                            std::to_string(prev_count) + " to " +
                            std::to_string(count));
        }
        prev_count = count;
      }
    });
  }
  for (auto& t : threads) t.join();
  o.window_s = SecondsBetween(start, Clock::now());
  const double window_cpu_s = CpuSeconds() - cpu_start;
  for (size_t b = 0; b < batches; ++b) AddCounts(&expected, counts[b], done[b]);
  o.loads = loader.latency_ms.size();
  o.rows_loaded = o.loads * kRowsPerLoad;
  Merge(&o, &loader, report, /*is_load=*/true);
  for (auto& log : queriers) {
    o.queries += log.latency_ms.size();
    Merge(&o, &log, report, /*is_load=*/false);
  }

  auto totals = target->Query(1, MakeQuery(Shape::kByRegion, 0, 0, 0));
  if (tally.Note(totals.status())) {
    const std::string why = CheckRegionCounts(
        *totals, 1, *target->cluster().FindSchema(kCube), expected);
    if (!why.empty()) report->Fail("cluster final: " + why);
  } else {
    report->Fail("cluster: final query failed");
  }
  double data_bytes = 0;
  double history_bytes = 0;
  for (uint32_t n = 1; n <= nodes; ++n) {
    auto& node = target->cluster().node(n);
    data_bytes += static_cast<double>(node.DataMemoryUsage());
    history_bytes += static_cast<double>(node.HistoryMemoryUsage());
  }
  const double rows = static_cast<double>(Sum(expected));
  if (rows > 0) {
    o.bytes_per_row = (data_bytes + history_bytes) / rows;
    o.history_bytes_per_row = history_bytes / rows;
  }
  target.reset();
  WindowRates(&o, window_cpu_s);
  Finalize(o, tally, report);
}

std::vector<cubrick::DimensionDef> Dimensions() {
  return {{"region", kRegions, 8, true},
          {"product", kProducts, 32, false},
          {"channel", kChannels, 8, false},
          {"day", kDays, 4, false}};
}

std::vector<cubrick::MetricDef> Metrics() {
  std::vector<cubrick::MetricDef> metrics;
  for (size_t m = 0; m < kIntMetrics; ++m) {
    metrics.push_back({"m" + std::to_string(m), cubrick::DataType::kInt64});
  }
  for (size_t m = 0; m < kDoubleMetrics; ++m) {
    metrics.push_back({"d" + std::to_string(m), cubrick::DataType::kDouble});
  }
  return metrics;
}

}  // namespace

Status CreateCube(cubrick::Database* db) {
  return db->CreateCube(kCube, Dimensions(), Metrics());
}

Status CreateCube(cubrick::cluster::Cluster* cluster) {
  return cluster->CreateCube(kCube, Dimensions(), Metrics());
}

Report RunWorkload(const RunConfig& config, Backend* backend) {
  Report report;
  report.workload = config.workload;
  if (config.workload == "ingest") {
    RunIngest(config, backend, &report);
  } else if (config.workload == "scan") {
    RunScan(config, backend, &report);
  } else if (config.workload == "mixed") {
    RunMixed(config, backend, &report);
  } else if (config.workload == "cluster") {
    RunCluster(config, backend, &report);
  } else {
    report.Fail("unknown workload '" + config.workload + "'");
    return report;
  }
  backend->Finish(&report);
  return report;
}

}  // namespace ledger
