#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "aosi/checker_hook.h"
#include "aosi/vis_cache.h"
#include "aosi/visibility.h"
#include "common/ebr.h"
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

/// Widest packed group-by key the grouped fold indexes directly: 2^6 = 64
/// slots, whose occupancy fits one uint64_t. It covers every measured
/// group-by (the ledger's region and product keys take 3 and 5 bits); raise
/// it only together with a workload that groups by wider keys.
constexpr uint32_t kDirectKeyBits = 6;

/// Brick-local group table of the grouped fold for keys wider than
/// kDirectKeyBits (see ScanBrick): open addressing with linear
/// probing over flat arrays, keyed by a row's group-by offsets within the
/// brick's ranges (one uint64 per group-by dimension, so keys of any width
/// fit). Reserve keeps the load factor at most 1/2 and grows the table by
/// rehash only as rows arrive, never past room for `max_groups` keys (the
/// most the brick's offset widths allow), so its size follows the groups
/// the brick actually holds, whatever the key width. An offset is always
/// below its dimension's range_size, hence never ~0: that value in a slot's
/// first key word marks the slot empty. One table serves all the bricks a
/// scan worker folds: Reset empties it and keeps its arrays' storage.
class GroupSlots {
 public:
  GroupSlots(size_t key_width, size_t num_aggs)
      : width_(key_width), num_aggs_(num_aggs) {}

  /// Empties the table for a brick whose offsets allow at most
  /// `max_groups` keys.
  void Reset(uint64_t max_groups) {
    max_groups_ = max_groups;
    used_ = 0;
    keys_.clear();
    states_.clear();
  }

  /// Makes room for the keys of `rows` more rows; slots returned by Find
  /// stay where they are until the next call.
  void Reserve(uint64_t rows) {
    const uint64_t need = std::min(used_ + rows, max_groups_);
    if (2 * need > capacity()) Rehash(need);
  }

  size_t capacity() const { return keys_.size() / width_; }
  bool occupied(size_t slot) const {
    return keys_[slot * width_] != kEmptyKey;
  }
  const uint64_t* key(size_t slot) const { return &keys_[slot * width_]; }
  /// Slot `s`'s aggregate states start at states()[s * num_aggs].
  AggState* states() { return states_.data(); }

  /// The slot holding `key` (key_width offsets), claimed on first sight.
  size_t Find(const uint64_t* key) {
    uint64_t h = 0;
    for (size_t g = 0; g < width_; ++g) h = (h ^ key[g]) * kHashMul;
    size_t slot = static_cast<size_t>(h >> shift_);
    while (true) {
      uint64_t* k = &keys_[slot * width_];
      size_t g = 0;
      while (g < width_ && k[g] == key[g]) ++g;
      if (g == width_) return slot;
      if (k[0] == kEmptyKey) {
        std::copy_n(key, width_, k);
        ++used_;
        return slot;
      }
      slot = (slot + 1) & mask_;
    }
  }

 private:
  static constexpr uint64_t kEmptyKey = ~0ULL;
  /// 2^64 / golden ratio: Fibonacci hashing, whose top bits spread the
  /// consecutive offsets a brick's narrow ranges produce.
  static constexpr uint64_t kHashMul = 0x9E3779B97F4A7C15ULL;

  /// Rebuilds the table at the smallest power of two >= 2 * need slots in
  /// the spare arrays and re-inserts every occupied slot with its states;
  /// the old arrays become the spares.
  void Rehash(uint64_t need) {
    int log2 = 1;
    while ((uint64_t{1} << log2) < 2 * need) ++log2;
    const size_t slots = size_t{1} << log2;
    spare_keys_.assign(slots * width_, kEmptyKey);
    spare_states_.assign(slots * num_aggs_, AggState());
    keys_.swap(spare_keys_);
    states_.swap(spare_states_);
    shift_ = 64 - log2;
    mask_ = slots - 1;
    used_ = 0;
    for (size_t s = 0; s < spare_keys_.size() / width_; ++s) {
      if (spare_keys_[s * width_] == kEmptyKey) continue;
      const size_t slot = Find(&spare_keys_[s * width_]);
      std::copy_n(&spare_states_[s * num_aggs_], num_aggs_,
                  &states_[slot * num_aggs_]);
    }
  }

  size_t width_;
  size_t num_aggs_;
  uint64_t max_groups_ = 0;
  uint64_t used_ = 0;
  int shift_ = 0;
  size_t mask_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<AggState> states_;
  std::vector<uint64_t> spare_keys_;
  std::vector<AggState> spare_states_;
};

/// What one scan worker keeps from brick to brick: the tally of the
/// per-brick instruments and the fold's scratch buffers. A brick scan
/// writes no shared instrument, and once the buffers have grown to the
/// query's shape it allocates nothing.
struct ScanContext {
  explicit ScanContext(const Query& query)
      : field_bits(query.group_by.size()),
        group_lo(query.group_by.size()),
        offsets(query.group_by.size() * 64),
        key(query.group_by.size()),
        group(query.group_by.size()),
        table(query.group_by.size(), query.aggs.size()) {}

  ScanTally tally;
  Bitmap whole;     // all ones: the mask of every brick seen whole
  Bitmap filtered;  // the filter pass's private copy of the mask
  std::vector<MetricAccessor> accessors;
  std::vector<AggState> locals;  // the ungrouped fold's states
  // The grouped fold's, one entry per group-by dimension unless noted.
  std::vector<uint32_t> field_bits;
  std::vector<uint64_t> group_lo;
  std::vector<uint64_t> offsets;  // 64 decoded offsets per dimension
  std::vector<uint64_t> key;
  QueryResult::GroupKey group;
  std::vector<AggState> direct_states;  // all zeroed between bricks
  GroupSlots table;
};

/// Completes the COUNT states of one grouped slot (`num_aggs` states), which
/// the fold only counted: n calls of Accumulate(1.0) on a zeroed state
/// leave sum = n (exact below 2^53), min = max = 1 and count = n, so the
/// slot merges bit-identically to a row-by-row COUNT.
void FinishCounts(const std::vector<MetricAccessor>& accessors,
                  AggState* states) {
  for (size_t a = 0; a < accessors.size(); ++a) {
    if (!accessors[a].is_count) continue;
    states[a].sum = static_cast<double>(states[a].count);
    states[a].min = 1.0;
    states[a].max = 1.0;
  }
}

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
  // Defensive pin: scan entry points hold their own Guard, but helpers and
  // tests call this directly; nesting is a thread-local counter bump.
  const ebr::Guard guard;
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

/// ScanBrick with the worker's context: instruments go to ctx->tally and
/// every buffer comes from ctx.
void ScanBrickWith(const Brick& brick, const aosi::Snapshot& snapshot,
                   ScanMode mode, const Query& query, QueryResult* result,
                   bool use_cache, ScanContext* ctx) {
  // Reclamation pin for the whole brick scan: the visibility bitmap served
  // from the cache — and any history Rep a concurrent compaction displaces —
  // stays readable until this guard dies.
  const ebr::Guard guard;
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
    std::vector<AggState>& locals = ctx->locals;
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
    if (rows_aggregated > 0) {
      result->MergeGroup(QueryResult::GroupKey(), locals.data());
    }
  } else {
    // Grouped slot fold: each word's visible rows map to brick-local slots
    // keyed by their group-by offsets (decoded in bulk per word, as the
    // filter pass does), then every aggregate folds the word column by
    // column into its slots' states — typed once per word, each group's
    // rows in row order — and each occupied slot merges into `result` once
    // per brick. COUNT only counts its slot's rows; FinishCounts fills in
    // the rest of its state before the slot merges. A key of at most
    // kDirectKeyBits bits indexes a flat 2^key_bits slot array directly by
    // its offsets packed into key_bits bits (first group-by dimension
    // highest), with no hash and no probe, and marks its slot in one
    // occupancy word; a wider key goes through GroupSlots. No vector kernel
    // runs here, so every word counts as kernel_simd_fallback.
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
    uint64_t direct_used = 0;  // bit s: direct slot s holds a group
    std::vector<AggState>& direct_states = ctx->direct_states;
    if (direct && direct_states.size() < (size_t{1} << key_bits) * num_aggs) {
      direct_states.resize((size_t{1} << key_bits) * num_aggs);
    }
    GroupSlots& table = ctx->table;
    if (!direct) {
      table.Reset(key_bits < 64 ? uint64_t{1} << key_bits : ~uint64_t{0});
    }
    std::vector<uint64_t>& offsets = ctx->offsets;
    std::vector<uint64_t>& key = ctx->key;
    uint64_t packed[64];
    size_t rows[64];
    size_t slots[64];  // slot index * num_aggs
    for (size_t w = 0; w < num_words; ++w) {
      const uint64_t word = mask->Word(w);
      if (word == 0) {
        ++words_skipped;
        continue;
      }
      ++words_fallback;
      if (word == kDenseWord) ++words_dense;
      const size_t base = w * 64;
      // Decode only from the word's first to its last visible row, which
      // never passes num_records (trailing bits are kept zero).
      const auto first = static_cast<size_t>(__builtin_ctzll(word));
      const size_t span =
          64 - static_cast<size_t>(__builtin_clzll(word)) - first;
      size_t n = 0;
      if (direct) {
        brick.bess().DecodeDim(base + first, span, query.group_by[0],
                               &packed[first]);
        for (size_t g = 1; g < width; ++g) {
          brick.bess().DecodeDim(base + first, span, query.group_by[g],
                                 &offsets[first]);
          for (size_t i = first; i < first + span; ++i) {
            packed[i] = (packed[i] << field_bits[g]) | offsets[i];
          }
        }
        for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
          const auto b = static_cast<size_t>(__builtin_ctzll(bits));
          direct_used |= uint64_t{1} << packed[b];
          rows[n] = base + b;
          slots[n] = packed[b] * num_aggs;
          ++n;
        }
      } else {
        table.Reserve(static_cast<uint64_t>(__builtin_popcountll(word)));
        for (size_t g = 0; g < width; ++g) {
          brick.bess().DecodeDim(base + first, span, query.group_by[g],
                                 &offsets[g * 64 + first]);
        }
        for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
          const auto b = static_cast<size_t>(__builtin_ctzll(bits));
          for (size_t g = 0; g < width; ++g) key[g] = offsets[g * 64 + b];
          rows[n] = base + b;
          slots[n] = table.Find(key.data()) * num_aggs;
          ++n;
        }
      }
      rows_aggregated += n;
      AggState* states = direct ? direct_states.data() : table.states();
      for (size_t a = 0; a < num_aggs; ++a) {
        const MetricAccessor& acc = accessors[a];
        AggState* col = states + a;
        if (acc.is_count) {
          for (size_t i = 0; i < n; ++i) ++col[slots[i]].count;
        } else if (acc.is_double) {
          for (size_t i = 0; i < n; ++i) {
            col[slots[i]].Accumulate(acc.doubles[rows[i]]);
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            col[slots[i]].Accumulate(static_cast<double>(acc.ints[rows[i]]));
          }
        }
      }
    }
    QueryResult::GroupKey& group = ctx->group;
    if (direct) {
      for (uint64_t used = direct_used; used != 0; used &= used - 1) {
        const auto s = static_cast<size_t>(__builtin_ctzll(used));
        uint64_t rest = s;
        for (size_t g = width; g-- > 0;) {
          const uint64_t field_mask = (uint64_t{1} << field_bits[g]) - 1;
          group[g] = group_lo[g] + (rest & field_mask);
          rest >>= field_bits[g];
        }
        AggState* states = &direct_states[s * num_aggs];
        FinishCounts(accessors, states);
        result->MergeGroup(group, states);
        std::fill_n(states, num_aggs, AggState());
      }
    } else {
      for (size_t s = 0; s < table.capacity(); ++s) {
        if (!table.occupied(s)) continue;
        const uint64_t* k = table.key(s);
        for (size_t g = 0; g < width; ++g) group[g] = group_lo[g] + k[g];
        AggState* states = table.states() + s * num_aggs;
        FinishCounts(accessors, states);
        result->MergeGroup(group, states);
      }
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
                                const aosi::Snapshot& snapshot, ScanMode mode,
                                bool use_cache) {
  ScanTally tally;
  return VisibilityTallied(brick, snapshot, mode, use_cache, &tally,
                           /*whole=*/nullptr);
}

void ScanBrick(const Brick& brick, const aosi::Snapshot& snapshot,
               ScanMode mode, const Query& query, QueryResult* result,
               bool use_cache) {
  ScanContext ctx(query);
  ScanBrickWith(brick, snapshot, mode, query, result, use_cache, &ctx);
}

QueryResult ScanBricks(const std::vector<const Brick*>& candidates,
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
  workers = std::clamp<size_t>(workers, 1, std::max<size_t>(bricks.size(), 1));
  if (workers == 1) {
    QueryResult result(query.aggs.size());
    for (const Brick* brick : bricks) {
      ScanBrickWith(*brick, snapshot, mode, query, &result, use_cache, &ctx0);
    }
    return result;
  }

  std::vector<QueryResult> partials(workers, QueryResult(query.aggs.size()));
  std::atomic<size_t> next{0};
  auto scan_worker = [&](size_t w, ScanContext* ctx) {
    obs::ObsSpan span(ins.worker_scan_us);
    QueryResult* out = &partials[w];
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
  QueryResult result(query.aggs.size());
  for (const QueryResult& partial : partials) {
    result.Merge(partial);
  }
  return result;
}

}  // namespace cubrick
