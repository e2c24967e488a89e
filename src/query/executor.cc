#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "aosi/checker_hook.h"
#include "aosi/vis_cache.h"
#include "aosi/visibility.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cubrick {

namespace {

/// Scan instrumentation (docs/OBSERVABILITY.md, "query.*"), resolved once.
/// The per-brick instruments are written only by ~ScanTally; the row
/// loops never touch them.
struct ScanInstruments {
  obs::Counter* bricks_scanned;
  obs::Counter* bricks_pruned;
  obs::Counter* rows_considered;
  obs::Counter* rows_scanned;
  obs::Histogram* bitmap_density_permille;
  obs::Histogram* visibility_us;
  obs::Histogram* filter_us;
  obs::Histogram* agg_us;
  obs::Histogram* worker_scan_us;
  obs::Histogram* parallel_merge_us;
  obs::Counter* vis_cache_hits;
  obs::Counter* vis_cache_misses;
  obs::Counter* vis_cache_evictions;
  obs::Counter* vis_whole_bricks;
  obs::Counter* kernel_words_scanned;
  obs::Counter* kernel_words_skipped;
  obs::Counter* kernel_words_dense;
  obs::Histogram* kernel_dense_words_permille;
  obs::Counter* kernel_simd_words;
  obs::Counter* kernel_simd_fallback;
};

const ScanInstruments& Instruments() {
  static const ScanInstruments m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return ScanInstruments{
        reg.GetCounter("query.bricks_scanned"),
        reg.GetCounter("query.bricks_pruned"),
        reg.GetCounter("query.rows_considered"),
        reg.GetCounter("query.rows_scanned"),
        reg.GetHistogram("query.bitmap_density_permille"),
        reg.GetHistogram("query.visibility_us"),
        reg.GetHistogram("query.filter_us"),
        reg.GetHistogram("query.agg_us"),
        reg.GetHistogram("query.worker_scan_us"),
        reg.GetHistogram("query.parallel_merge_us"),
        reg.GetCounter("query.vis_cache_hits"),
        reg.GetCounter("query.vis_cache_misses"),
        reg.GetCounter("query.vis_cache_evictions"),
        reg.GetCounter("query.vis_whole_bricks"),
        reg.GetCounter("query.kernel_words_scanned"),
        reg.GetCounter("query.kernel_words_skipped"),
        reg.GetCounter("query.kernel_words_dense"),
        reg.GetHistogram("query.kernel_dense_words_permille"),
        reg.GetCounter("query.kernel_simd_words"),
        reg.GetCounter("query.kernel_simd_fallback"),
    };
  }();
  return m;
}

/// One scan worker's plain tally of the per-brick instruments, added into
/// the registry once, when the tally dies (so every scan path adds its
/// bricks exactly once). The five per-brick histograms keep one sample per
/// brick.
struct ScanTally {
  uint64_t bricks_scanned = 0;
  uint64_t bricks_pruned = 0;
  uint64_t rows_considered = 0;
  uint64_t rows_scanned = 0;
  uint64_t vis_cache_hits = 0;
  uint64_t vis_cache_misses = 0;
  uint64_t vis_cache_evictions = 0;
  uint64_t vis_whole_bricks = 0;
  uint64_t kernel_words_scanned = 0;
  uint64_t kernel_words_skipped = 0;
  uint64_t kernel_words_dense = 0;
  uint64_t kernel_simd_words = 0;
  uint64_t kernel_simd_fallback = 0;
  obs::HistogramTally bitmap_density_permille;
  obs::HistogramTally visibility_us;
  obs::HistogramTally filter_us;
  obs::HistogramTally agg_us;
  obs::HistogramTally kernel_dense_words_permille;

  ScanTally() = default;
  ScanTally(const ScanTally&) = delete;
  ScanTally& operator=(const ScanTally&) = delete;
  ~ScanTally() {
    const ScanInstruments& ins = Instruments();
    const auto add = [](obs::Counter* counter, uint64_t n) {
      if (n != 0) counter->Add(n);
    };
    add(ins.bricks_scanned, bricks_scanned);
    add(ins.bricks_pruned, bricks_pruned);
    add(ins.rows_considered, rows_considered);
    add(ins.rows_scanned, rows_scanned);
    add(ins.vis_cache_hits, vis_cache_hits);
    add(ins.vis_cache_misses, vis_cache_misses);
    add(ins.vis_cache_evictions, vis_cache_evictions);
    add(ins.vis_whole_bricks, vis_whole_bricks);
    add(ins.kernel_words_scanned, kernel_words_scanned);
    add(ins.kernel_words_skipped, kernel_words_skipped);
    add(ins.kernel_words_dense, kernel_words_dense);
    add(ins.kernel_simd_words, kernel_simd_words);
    add(ins.kernel_simd_fallback, kernel_simd_fallback);
    bitmap_density_permille.FlushInto(ins.bitmap_density_permille);
    visibility_us.FlushInto(ins.visibility_us);
    filter_us.FlushInto(ins.filter_us);
    agg_us.FlushInto(ins.agg_us);
    kernel_dense_words_permille.FlushInto(ins.kernel_dense_words_permille);
  }
};

/// Times one brick's consecutive phases in microseconds, as an ObsSpan
/// per phase would, but with one clock read between two phases. Reads no
/// clock while metrics are disabled.
class PhaseClock {
 public:
  PhaseClock() : on_(obs::Enabled()), last_(on_ ? obs::NowMicros() : 0) {}

  /// Records the phase that ends now into `us` and starts the next one.
  void Lap(obs::HistogramTally* us) {
    if (!on_) return;
    const int64_t now = obs::NowMicros();
    us->Record(static_cast<uint64_t>(now < last_ ? 0 : now - last_));
    last_ = now;
  }

  /// Starts the next phase now, leaving out the time since the last lap.
  void Restart() {
    if (on_) last_ = obs::NowMicros();
  }

 private:
  bool on_;
  int64_t last_;
};

/// All 64 bits set — the "dense word" sentinel of the scan kernels. The
/// ragged last word of a bitmap never equals this (trailing bits are kept
/// zero), so dense fast paths never read past num_records.
constexpr uint64_t kDenseWord = ~0ULL;

/// One aggregate's metric read path, resolved once per brick. Both fold
/// passes branch on is_count/is_double once per WORD and then read the typed
/// pointer directly, so no row loop carries a type dispatch.
struct MetricAccessor {
  bool is_count = false;
  bool is_double = false;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
};

void ResolveAccessors(const Brick& brick, const Query& query,
                      std::vector<MetricAccessor>* accessors) {
  accessors->clear();
  for (const auto& agg : query.aggs) {
    MetricAccessor acc;
    if (agg.fn == AggSpec::Fn::kCount) {
      acc.is_count = true;
    } else {
      const MetricColumn& col = brick.metric(agg.metric);
      acc.is_double = col.type() == DataType::kDouble;
      acc.ints = col.ints().data();
      acc.doubles = col.doubles().data();
    }
    accessors->push_back(acc);
  }
}

/// [lo, hi] coordinate interval dimension `dim` spans inside `brick`.
void BrickDimBounds(const Brick& brick, size_t dim, uint64_t* lo,
                    uint64_t* hi) {
  const auto& def = brick.schema().dimensions()[dim];
  const uint64_t range_idx = brick.schema().RangeIndexOf(brick.bid(), dim);
  *lo = range_idx * def.range_size;
  const uint64_t end = *lo + def.range_size - 1;
  const uint64_t max_coord = def.cardinality - 1;
  *hi = end < max_coord ? end : max_coord;
}

/// Widest packed group-by key the grouped fold uses as its group ordinal
/// directly: 2^6 = 64 ordinals, so a brick's fold states stay a few KB
/// whatever its rows. It covers every measured group-by (the ledger's
/// region and product keys take 3 and 5 bits); raise it only together with
/// a workload that groups by wider keys.
constexpr uint32_t kDirectKeyBits = 6;

/// One aggregate's grouped fold states, indexed by group ordinal. A COUNT's
/// stay empty: its state follows from the group's count alone.
struct AggColumns {
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;
};

/// Folds the rows at bits bit_of(0) to bit_of(n - 1) of one bitmap word
/// into `col` at their group ordinals ord[bit], each with exactly the
/// operations of AggState::Accumulate (but the count, which the group
/// shares), in row order. `values` points at the word's first row.
template <typename T, typename BitOf>
void FoldColumn(const T* values, const uint64_t* ord, size_t n, BitOf bit_of,
                AggColumns* col) {
  double* sum = col->sum.data();
  double* min = col->min.data();
  double* max = col->max.data();
  for (size_t k = 0; k < n; ++k) {
    const size_t b = bit_of(k);
    const size_t o = ord[b];
    const double v = static_cast<double>(values[b]);
    sum[o] += v;
    min[o] = v < min[o] ? v : min[o];
    max[o] = v > max[o] ? v : max[o];
  }
}

/// What one scan worker keeps from brick to brick: the tally of the
/// per-brick instruments and the folds' scratch buffers. A brick scan
/// writes no shared instrument, and once the buffers have grown to the
/// query's shape it allocates nothing.
struct ScanContext {
  explicit ScanContext(const Query& query)
      : states(query.aggs.size()),
        field_bits(query.group_by.size()),
        group_lo(query.group_by.size()),
        offsets(query.group_by.size() * 64),
        key(query.group_by.size()),
        keys(query.group_by.size(), 0),
        columns(query.aggs.size()) {}

  ScanTally tally;
  Bitmap whole;     // all ones: the mask of every brick seen whole
  Bitmap filtered;  // the filter pass's private copy of the mask
  std::vector<MetricAccessor> accessors;
  // One per aggregate: the ungrouped fold's states, and a group's as it
  // merges.
  std::vector<AggState> states;
  // The grouped fold's, one entry per group-by dimension unless noted.
  std::vector<uint32_t> field_bits;
  std::vector<uint64_t> group_lo;
  std::vector<uint64_t> offsets;  // 64 decoded offsets per dimension
  std::vector<uint64_t> key;      // a row's offsets, a group's coordinates
  GroupTable keys;                // ordinals of keys past kDirectKeyBits
  std::vector<uint64_t> counts;   // one per group ordinal
  std::vector<AggColumns> columns;  // one per aggregate
};

}  // namespace

bool BrickIntersectsFilters(const Brick& brick, const Query& query) {
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (!filter.Intersects(lo, hi)) return false;
  }
  return true;
}

bool BrickCoveredByFilters(const Brick& brick, const Query& query) {
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (!filter.Covers(lo, hi)) return false;
  }
  return true;
}

void ScanPlanStats::PublishTo(obs::MetricsRegistry& reg) const {
  // EXPLAIN is interactive, not a hot path; no instrument caching.
  reg.GetCounter("query.explain.bricks_total")->Add(bricks_total);
  reg.GetCounter("query.explain.bricks_pruned")->Add(bricks_pruned);
  reg.GetCounter("query.explain.bricks_scanned")->Add(bricks_scanned);
  reg.GetCounter("query.explain.filters_skipped_covered")
      ->Add(filters_skipped_covered);
  reg.GetCounter("query.explain.rows_considered")->Add(rows_considered);
}

void ExplainBrick(const Brick& brick, const Query& query,
                  ScanPlanStats* stats) {
  ++stats->bricks_total;
  if (brick.num_records() == 0 || !BrickIntersectsFilters(brick, query)) {
    ++stats->bricks_pruned;
    return;
  }
  ++stats->bricks_scanned;
  stats->rows_considered += brick.num_records();
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (filter.Covers(lo, hi)) {
      ++stats->filters_skipped_covered;
    }
  }
}

namespace {

/// VisibilityForScan, tallying the outcome into `tally`. A brick the
/// snapshot sees whole, and every brick of an RU scan, gets an all-ones
/// mask: `*whole` resized when it is a worker's reused mask, a fresh one
/// when `whole` is null.
VisibilityRef VisibilityTallied(const Brick& brick,
                                const aosi::Snapshot& snapshot, ScanMode mode,
                                bool use_cache, ScanTally* tally,
                                Bitmap* whole) {
  const aosi::EpochVector& history = brick.history();
  if (mode == ScanMode::kReadUncommitted ||
      aosi::SeesWhole(history, snapshot)) {
    ++tally->vis_whole_bricks;
    const uint64_t n = history.num_records();
    if (whole == nullptr) return VisibilityRef(Bitmap(n, true));
    if (whole->size() != n) whole->Assign(n, true);
    return VisibilityRef(whole);
  }
  if (!use_cache) {
    return VisibilityRef(aosi::BuildVisibilityBitmap(history, snapshot));
  }
  aosi::VisibilityCache& cache = brick.vis_cache();
  const aosi::VisKey key = aosi::VisibilityCache::MakeKey(history, snapshot);
  if (const Bitmap* hit = cache.Lookup(key)) {
    ++tally->vis_cache_hits;
    return VisibilityRef(hit);
  }
  ++tally->vis_cache_misses;
  Bitmap built = aosi::BuildVisibilityBitmap(history, snapshot);
  const auto outcome = cache.Publish(key, &built);
  if (outcome.evicted) ++tally->vis_cache_evictions;
  return VisibilityRef(outcome.published);
}

/// ScanBrick with the worker's context and group table: the brick's
/// groups merge into `out`, instruments go to ctx->tally and every buffer
/// comes from ctx.
void ScanBrickWith(const Brick& brick, const aosi::Snapshot& snapshot,
                   ScanMode mode, const Query& query, GroupTable* out,
                   bool use_cache, ScanContext* ctx) {
  ScanTally& tally = ctx->tally;
  if (brick.num_records() == 0 || !BrickIntersectsFilters(brick, query)) {
    ++tally.bricks_pruned;
    return;
  }
  ++tally.bricks_scanned;
  tally.rows_considered += brick.num_records();

  // Concurrency-control pass: the worker's all-ones mask for a brick seen
  // whole, else one bitmap per brick, memoized in the brick's
  // VisibilityCache when enabled.
  PhaseClock clock;
  VisibilityRef visible =
      VisibilityTallied(brick, snapshot, mode, use_cache, &tally, &ctx->whole);
  clock.Lap(&tally.visibility_us);
  const Bitmap* mask = &visible.bitmap();

  // Online-checker observation point (docs/CHECKING.md): report what this
  // SI scan's visibility mask admitted per epoch run, BEFORE the filter
  // pass narrows it and before the None() fast path skips empty bricks.
  // Cost when no hook is installed: one relaxed load.
  if (mode == ScanMode::kSnapshotIsolation) {
    if (aosi::CheckerHook* hook = aosi::GetCheckerHook();
        hook != nullptr && hook->ShouldSample(snapshot.epoch)) {
      // Bounded on purpose: the checker keeps at most kMaxObservedRuns
      // runs per sample, so decoding and popcounting a long history past
      // that bound would make sampled scans O(history) instead of O(1).
      bool truncated = false;
      const auto decoded =
          brick.history().DecodePrefix(aosi::kMaxObservedRuns, &truncated);
      std::vector<aosi::ObservedRun> observed;
      observed.reserve(decoded.size());
      for (const auto& run : decoded) {
        aosi::ObservedRun o;
        o.epoch = run.epoch;
        o.begin = run.begin;
        o.end = run.end;
        o.is_delete = run.is_delete;
        o.visible_rows =
            run.is_delete ? 0 : mask->CountSetInRange(run.begin, run.end);
        observed.push_back(o);
      }
      aosi::ScanObservation obs;
      obs.snapshot_epoch = snapshot.epoch;
      obs.deps = &snapshot.deps;
      obs.bid = brick.bid();
      obs.history_version = brick.history().version();
      obs.runs = observed.data();
      obs.num_runs = observed.size();
      obs.runs_truncated = truncated;
      obs.visible_total = mask->CountSet();
      hook->OnScanObservation(obs);
      clock.Restart();
    }
  }
  if (mask->None()) return;

  // Filter pass: clear bits that fail a dimension predicate. Filters whose
  // clause already covers the brick's whole range are skipped (common with
  // range predicates aligned to granular partitioning). The pass is
  // copy-on-write: the visibility bitmap may be shared cache state, so the
  // first filter needing row work takes a private copy; fully-covered
  // queries never copy at all. Word-wise kernel: zero words are skipped,
  // dense words bulk-decode 64 coordinates and run the backend's
  // compare-to-bitmask kernel (common/simd.h), sparse words enumerate set
  // bits with ctz (integer-exact, so no cross-backend concern).
  const simd::Kernels& kern = simd::ActiveKernels();
  const bool simd_active = kern.backend != simd::Backend::kScalar;
  uint64_t words_simd = 0;
  uint64_t words_fallback = 0;
  Bitmap& filtered = ctx->filtered;
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (filter.Covers(lo, hi)) continue;
    if (mask != &filtered) {
      filtered = *mask;
      mask = &filtered;
    }
    const size_t num_words = filtered.num_words();
    uint64_t coords[64];
    for (size_t w = 0; w < num_words; ++w) {
      const uint64_t word = filtered.Word(w);
      if (word == 0) continue;
      const size_t base = w * 64;
      uint64_t out = word;
      if (word == kDenseWord) {
        // Dense words never overlap the ragged tail (SetWord masks trailing
        // bits), so decoding 64 consecutive rows is always in bounds.
        brick.DecodeDimCoords(base, 64, filter.dim, coords);
        switch (filter.op) {
          case FilterClause::Op::kEq:
            out = kern.filter_eq(coords, filter.values[0]);
            break;
          case FilterClause::Op::kRange:
            out = kern.filter_range(coords, filter.range_lo, filter.range_hi);
            break;
          case FilterClause::Op::kIn:
            out = kern.filter_in(coords, filter.values.data(),
                                 filter.values.size());
            break;
        }
        ++(simd_active ? words_simd : words_fallback);
      } else {
        uint64_t bits = word;
        while (bits != 0) {
          const size_t b = static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          if (!filter.Matches(brick.DimCoord(base + b, filter.dim))) {
            out &= ~(1ULL << b);
          }
        }
        ++words_fallback;
      }
      if (out != word) filtered.SetWord(w, out);
    }
  }
  clock.Lap(&tally.filter_us);

  // Aggregation pass, word-wise over the final mask, with the
  // is_count/is_double dispatch once per word (not once per row) on both
  // folds. Ungrouped folds run through the per-word typed SIMD kernels:
  // dense words fold a direct column slice, sparse words ctz-compress the
  // visible rows' values into a gather buffer (pure data movement, identical
  // on every backend) and fold that. The fold order is the pinned contract
  // in common/simd.h, so result bits are identical whichever backend runs —
  // proved by tests/simd_kernel_test.cc. Grouped folds are scalar and
  // backend-independent by construction.
  std::vector<MetricAccessor>& accessors = ctx->accessors;
  ResolveAccessors(brick, query, &accessors);
  const size_t num_words = mask->num_words();
  uint64_t rows_aggregated = 0;
  uint64_t words_skipped = 0;
  uint64_t words_dense = 0;
  if (query.group_by.empty()) {
    // Ungrouped fast path: fold the whole brick into local states (no map
    // walk anywhere in the loop), merge once at the end.
    bool need_values = false;
    for (const auto& acc : accessors) {
      if (!acc.is_count) need_values = true;
    }
    std::vector<AggState>& locals = ctx->states;
    locals.assign(query.aggs.size(), AggState());
    size_t rows[64];
    int64_t ibuf[64];
    double dbuf[64];
    for (size_t w = 0; w < num_words; ++w) {
      const uint64_t word = mask->Word(w);
      if (word == 0) {
        ++words_skipped;
        continue;
      }
      const size_t base = w * 64;
      const auto word_rows =
          static_cast<uint64_t>(__builtin_popcountll(word));
      rows_aggregated += word_rows;
      const bool dense = word == kDenseWord;
      if (dense) ++words_dense;
      size_t num_rows = 0;
      if (need_values && !dense) {
        // Compress the visible row indexes once; every accessor gathers
        // from the same list.
        uint64_t bits = word;
        while (bits != 0) {
          const size_t b = static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          rows[num_rows++] = base + b;
        }
      }
      for (size_t a = 0; a < accessors.size(); ++a) {
        const MetricAccessor& acc = accessors[a];
        AggState& st = locals[a];
        if (acc.is_count) {
          // COUNT needs no row values: one popcount per word.
          st.AccumulateRepeated(1.0, word_rows);
        } else if (acc.is_double) {
          const double* v;
          if (dense) {
            v = acc.doubles + base;
          } else {
            for (size_t i = 0; i < num_rows; ++i) dbuf[i] = acc.doubles[rows[i]];
            v = dbuf;
          }
          double s, mn, mx;
          kern.fold_double(v, word_rows, &s, &mn, &mx);
          st.sum += s;
          st.count += word_rows;
          if (mn < st.min) st.min = mn;
          if (mx > st.max) st.max = mx;
        } else {
          const int64_t* v;
          if (dense) {
            v = acc.ints + base;
          } else {
            for (size_t i = 0; i < num_rows; ++i) ibuf[i] = acc.ints[rows[i]];
            v = ibuf;
          }
          uint64_t s;
          int64_t mn, mx;
          kern.fold_int64(v, word_rows, &s, &mn, &mx);
          // The exact wrapping word sum converts to double exactly once.
          st.sum += static_cast<double>(static_cast<int64_t>(s));
          st.count += word_rows;
          const double mnd = static_cast<double>(mn);
          const double mxd = static_cast<double>(mx);
          if (mnd < st.min) st.min = mnd;
          if (mxd > st.max) st.max = mxd;
        }
      }
      if (need_values) ++(simd_active ? words_simd : words_fallback);
    }
    // Under the empty key: an ungrouped query's key is 0 words wide.
    if (rows_aggregated > 0) out->MergeGroup(ctx->key.data(), locals.data());
  } else {
    // Grouped ordinal fold: every visible row gets a brick-local group
    // ordinal, from its group-by offsets decoded in bulk per word as the
    // filter pass does: the offsets packed into key_bits bits (first
    // group-by dimension highest) when key_bits is at most kDirectKeyBits,
    // else the key's first-seen ordinal in ctx->keys. One loop folds every
    // word into struct-of-arrays states indexed by ordinal: one count per
    // group, shared by every aggregate, and a sum, min and max per non-COUNT
    // aggregate, typed once per word and updated as AggState::Accumulate
    // does, each group's rows in row order. A dense word folds its 64 rows
    // by their bit; a sparse one lists its visible bits first. After the
    // brick, each group with rows becomes one AggState per aggregate (a
    // COUNT's sum is its count, its min and max 1: what that many
    // Accumulate(1.0) calls leave in a zeroed state) and merges into `out`
    // under its coordinates. No vector kernel runs here, so every word
    // counts as kernel_simd_fallback.
    const size_t width = query.group_by.size();
    const size_t num_aggs = accessors.size();
    uint32_t key_bits = 0;
    std::vector<uint32_t>& field_bits = ctx->field_bits;
    std::vector<uint64_t>& group_lo = ctx->group_lo;
    for (size_t g = 0; g < width; ++g) {
      field_bits[g] = brick.schema().bess_bits(query.group_by[g]);
      key_bits += field_bits[g];
      uint64_t hi = 0;
      BrickDimBounds(brick, query.group_by[g], &group_lo[g], &hi);
    }
    const bool direct = key_bits <= kDirectKeyBits;
    GroupTable& keys = ctx->keys;
    std::vector<uint64_t>& counts = ctx->counts;
    std::vector<AggColumns>& columns = ctx->columns;
    keys.Clear();
    counts.clear();
    for (AggColumns& col : columns) {
      col.sum.clear();
      col.min.clear();
      col.max.clear();
    }
    // Makes room for ordinals below `groups`, each in a zeroed state.
    const auto grow = [&](size_t groups) {
      if (counts.size() >= groups) return;
      const AggState zero;
      counts.resize(groups, zero.count);
      for (size_t a = 0; a < num_aggs; ++a) {
        if (accessors[a].is_count) continue;
        columns[a].sum.resize(groups, zero.sum);
        columns[a].min.resize(groups, zero.min);
        columns[a].max.resize(groups, zero.max);
      }
    };
    if (direct) grow(size_t{1} << key_bits);
    std::vector<uint64_t>& offsets = ctx->offsets;
    std::vector<uint64_t>& key = ctx->key;
    uint64_t ord[64];  // the group ordinal of the row at each visible bit
    size_t bits[64];   // a sparse word's visible bits
    for (size_t w = 0; w < num_words; ++w) {
      const uint64_t word = mask->Word(w);
      if (word == 0) {
        ++words_skipped;
        continue;
      }
      ++words_fallback;
      const bool dense = word == kDenseWord;
      if (dense) ++words_dense;
      const size_t base = w * 64;
      // Decode only from the word's first to its last visible row, which
      // never passes num_records (trailing bits are kept zero).
      const auto first = static_cast<size_t>(__builtin_ctzll(word));
      const size_t span =
          64 - static_cast<size_t>(__builtin_clzll(word)) - first;
      if (direct) {
        brick.bess().DecodeDim(base + first, span, query.group_by[0],
                               &ord[first]);
        for (size_t g = 1; g < width; ++g) {
          brick.bess().DecodeDim(base + first, span, query.group_by[g],
                                 &offsets[first]);
          for (size_t i = first; i < first + span; ++i) {
            ord[i] = (ord[i] << field_bits[g]) | offsets[i];
          }
        }
      } else {
        for (size_t g = 0; g < width; ++g) {
          brick.bess().DecodeDim(base + first, span, query.group_by[g],
                                 &offsets[g * 64 + first]);
        }
        for (uint64_t rest = word; rest != 0; rest &= rest - 1) {
          const auto b = static_cast<size_t>(__builtin_ctzll(rest));
          for (size_t g = 0; g < width; ++g) key[g] = offsets[g * 64 + b];
          ord[b] = keys.Find(key.data());
        }
        grow(keys.size());
      }
      size_t n = 0;
      if (dense) {
        n = 64;
      } else {
        for (uint64_t rest = word; rest != 0; rest &= rest - 1) {
          bits[n++] = static_cast<size_t>(__builtin_ctzll(rest));
        }
      }
      rows_aggregated += n;
      const auto fold = [&](auto bit_of) {
        for (size_t k = 0; k < n; ++k) ++counts[ord[bit_of(k)]];
        for (size_t a = 0; a < num_aggs; ++a) {
          const MetricAccessor& acc = accessors[a];
          if (acc.is_count) continue;
          if (acc.is_double) {
            FoldColumn(acc.doubles + base, ord, n, bit_of, &columns[a]);
          } else {
            FoldColumn(acc.ints + base, ord, n, bit_of, &columns[a]);
          }
        }
      };
      if (dense) {
        fold([](size_t k) { return k; });
      } else {
        fold([&bits](size_t k) { return bits[k]; });
      }
    }
    std::vector<AggState>& states = ctx->states;
    for (size_t o = 0; o < counts.size(); ++o) {
      const uint64_t count = counts[o];
      if (count == 0) continue;  // a direct ordinal no visible row packs to
      if (direct) {
        uint64_t rest = o;
        for (size_t g = width; g-- > 0;) {
          const uint64_t field_mask = (uint64_t{1} << field_bits[g]) - 1;
          key[g] = group_lo[g] + (rest & field_mask);
          rest >>= field_bits[g];
        }
      } else {
        const uint64_t* k = keys.key(o);
        for (size_t g = 0; g < width; ++g) key[g] = group_lo[g] + k[g];
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        const AggColumns& col = columns[a];
        states[a] = accessors[a].is_count
                        ? AggState{static_cast<double>(count), count, 1.0, 1.0}
                        : AggState{col.sum[o], count, col.min[o], col.max[o]};
      }
      out->MergeGroup(key.data(), states.data());
    }
  }
  clock.Lap(&tally.agg_us);
  tally.kernel_words_scanned += num_words;
  tally.kernel_words_skipped += words_skipped;
  tally.kernel_words_dense += words_dense;
  tally.kernel_simd_words += words_simd;
  tally.kernel_simd_fallback += words_fallback;
  if (num_words > 0) {
    tally.kernel_dense_words_permille.Record(words_dense * 1000 / num_words);
  }
  tally.rows_scanned += rows_aggregated;
  // Post-CC+filter visibility density of this brick, in rows per thousand:
  // how much of the brick the snapshot (and filters) let through. A
  // histogram (not a gauge): concurrent morsel workers each record their
  // own brick, and the distribution is what the density is for.
  tally.bitmap_density_permille.Record(rows_aggregated * 1000 /
                                       brick.num_records());
}

}  // namespace

VisibilityRef VisibilityForScan(const Brick& brick,
                                const aosi::Snapshot& snapshot,
                                ScanMode mode) {
  ScanTally tally;
  return VisibilityTallied(brick, snapshot, mode, /*use_cache=*/true, &tally,
                           /*whole=*/nullptr);
}

void ScanBrick(const Brick& brick, const aosi::Snapshot& snapshot,
               ScanMode mode, const Query& query, QueryResult* result) {
  ScanContext ctx(query);
  GroupTable groups(query.group_by.size(), query.aggs.size());
  ScanBrickWith(brick, snapshot, mode, query, &groups, /*use_cache=*/true,
                &ctx);
  result->Merge(groups.ToResult());
}

GroupTable ScanBricks(const std::vector<const Brick*>& candidates,
                      const aosi::Snapshot& snapshot, ScanMode mode,
                      const Query& query, size_t workers, bool use_cache) {
  const ScanInstruments& ins = Instruments();
  // The calling thread is always worker 0; its context also tallies the
  // bricks pruned here. Each worker's tally reaches the registry when its
  // context dies.
  ScanContext ctx0(query);
  // Prune first, with ScanBrick's own test, so no worker is spent on a
  // brick without row work.
  std::vector<const Brick*> bricks;
  bricks.reserve(candidates.size());
  for (const Brick* brick : candidates) {
    if (brick->num_records() == 0 || !BrickIntersectsFilters(*brick, query)) {
      ++ctx0.tally.bricks_pruned;
    } else {
      bricks.push_back(brick);
    }
  }
  // Worker 0's table; worker w > 0 merges into partials[w - 1].
  GroupTable groups(query.group_by.size(), query.aggs.size());
  workers = std::clamp<size_t>(workers, 1, std::max<size_t>(bricks.size(), 1));
  if (workers == 1) {
    for (const Brick* brick : bricks) {
      ScanBrickWith(*brick, snapshot, mode, query, &groups, use_cache, &ctx0);
    }
    return groups;
  }

  std::vector<GroupTable> partials(workers - 1, groups);
  std::atomic<size_t> next{0};
  auto scan_worker = [&](size_t w, ScanContext* ctx) {
    obs::ObsSpan span(ins.worker_scan_us);
    GroupTable* out = w == 0 ? &groups : &partials[w - 1];
    while (true) {
      // The brick data itself was published to the pool threads by the
      // task-handoff mutexes in ThreadPool::Submit/PopTask.
      // relaxed: the ticket only partitions disjoint bricks; no data rides on it
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= bricks.size()) break;
      ScanBrickWith(*bricks[i], snapshot, mode, query, out, use_cache, ctx);
    }
  };
  TaskGroup group(&ThreadPool::Global());
  for (size_t w = 1; w < workers; ++w) {
    group.Run([&scan_worker, &query, w] {
      ScanContext ctx(query);
      scan_worker(w, &ctx);
    });
  }
  scan_worker(0, &ctx0);
  group.Wait();

  obs::ObsSpan merge_span(ins.parallel_merge_us);
  for (const GroupTable& partial : partials) groups.MergeFrom(partial);
  return groups;
}

}  // namespace cubrick
