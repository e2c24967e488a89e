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

/// Per-brick scan instrumentation (docs/OBSERVABILITY.md, "query.*").
/// Resolved once; everything recorded at brick granularity so the row loop
/// itself stays untouched.
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

std::vector<MetricAccessor> ResolveAccessors(const Brick& brick,
                                             const Query& query) {
  std::vector<MetricAccessor> accessors;
  accessors.reserve(query.aggs.size());
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
    accessors.push_back(acc);
  }
  return accessors;
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
/// first key word marks the slot empty.
class GroupSlots {
 public:
  GroupSlots(size_t key_width, size_t num_aggs, uint64_t max_groups)
      : width_(key_width), num_aggs_(num_aggs), max_groups_(max_groups) {}

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

  /// Reallocates at the smallest power of two >= 2 * need slots and
  /// re-inserts every occupied slot with its states.
  void Rehash(uint64_t need) {
    int log2 = 1;
    while ((uint64_t{1} << log2) < 2 * need) ++log2;
    const size_t slots = size_t{1} << log2;
    std::vector<uint64_t> old_keys =
        std::exchange(keys_, std::vector<uint64_t>(slots * width_, kEmptyKey));
    std::vector<AggState> old_states =
        std::exchange(states_, std::vector<AggState>(slots * num_aggs_));
    shift_ = 64 - log2;
    mask_ = slots - 1;
    used_ = 0;
    for (size_t s = 0; s < old_keys.size() / width_; ++s) {
      if (old_keys[s * width_] == kEmptyKey) continue;
      const size_t slot = Find(&old_keys[s * width_]);
      std::copy_n(&old_states[s * num_aggs_], num_aggs_,
                  &states_[slot * num_aggs_]);
    }
  }

  size_t width_;
  size_t num_aggs_;
  uint64_t max_groups_;
  uint64_t used_ = 0;
  int shift_ = 0;
  size_t mask_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<AggState> states_;
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

VisibilityRef VisibilityForScan(const Brick& brick,
                                const aosi::Snapshot& snapshot, ScanMode mode,
                                bool use_cache) {
  // Defensive pin: scan entry points hold their own Guard, but helpers and
  // tests call this directly; nesting is a thread-local counter bump.
  const ebr::Guard guard;
  const bool ru = mode == ScanMode::kReadUncommitted;
  if (!use_cache) {
    return VisibilityRef(
        ru ? aosi::BuildReadUncommittedBitmap(brick.history())
           : aosi::BuildVisibilityBitmap(brick.history(), snapshot));
  }
  const ScanInstruments& ins = Instruments();
  aosi::VisibilityCache& cache = brick.vis_cache();
  const aosi::VisKey key =
      aosi::VisibilityCache::MakeKey(brick.history(), snapshot, ru);
  if (const Bitmap* hit = cache.Lookup(key)) {
    ins.vis_cache_hits->Add();
    return VisibilityRef(hit);
  }
  ins.vis_cache_misses->Add();
  Bitmap built = ru ? aosi::BuildReadUncommittedBitmap(brick.history())
                    : aosi::BuildVisibilityBitmap(brick.history(), snapshot);
  const auto outcome = cache.Publish(key, &built);
  if (outcome.evicted) ins.vis_cache_evictions->Add();
  return VisibilityRef(outcome.published);
}

void ScanBrick(const Brick& brick, const aosi::Snapshot& snapshot,
               ScanMode mode, const Query& query, QueryResult* result,
               bool use_cache) {
  // Reclamation pin for the whole brick scan: the visibility bitmap served
  // from the cache — and any history Rep a concurrent compaction displaces —
  // stays readable until this guard dies.
  const ebr::Guard guard;
  const ScanInstruments& ins = Instruments();
  if (brick.num_records() == 0 || !BrickIntersectsFilters(brick, query)) {
    ins.bricks_pruned->Add();
    return;
  }
  ins.bricks_scanned->Add();
  ins.rows_considered->Add(brick.num_records());

  // Concurrency-control pass: one bitmap per brick, memoized in the
  // brick's VisibilityCache when enabled.
  obs::ObsSpan cc_span(ins.visibility_us);
  VisibilityRef visible = VisibilityForScan(brick, snapshot, mode, use_cache);
  cc_span.Finish();
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
  obs::ObsSpan filter_span(ins.filter_us);
  const simd::Kernels& kern = simd::ActiveKernels();
  const bool simd_active = kern.backend != simd::Backend::kScalar;
  uint64_t words_simd = 0;
  uint64_t words_fallback = 0;
  Bitmap filtered;
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
  filter_span.Finish();

  // Aggregation pass, word-wise over the final mask, with the
  // is_count/is_double dispatch once per word (not once per row) on both
  // folds. Ungrouped folds run through the per-word typed SIMD kernels:
  // dense words fold a direct column slice, sparse words ctz-compress the
  // visible rows' values into a gather buffer (pure data movement, identical
  // on every backend) and fold that. The fold order is the pinned contract
  // in common/simd.h, so result bits are identical whichever backend runs —
  // proved by tests/simd_kernel_test.cc. Grouped folds are scalar and
  // backend-independent by construction.
  obs::ObsSpan agg_span(ins.agg_us);
  const std::vector<MetricAccessor> accessors = ResolveAccessors(brick, query);
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
    std::vector<AggState> locals(query.aggs.size());
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
    // per brick. A key of at most kDirectKeyBits bits indexes a flat
    // 2^key_bits slot array directly by its offsets packed into key_bits
    // bits (first group-by dimension highest), with no hash and no probe,
    // and marks its slot in one occupancy word; a wider key goes through
    // GroupSlots. No vector kernel runs here, so every word counts as
    // kernel_simd_fallback.
    const size_t width = query.group_by.size();
    const size_t num_aggs = accessors.size();
    uint32_t key_bits = 0;
    std::vector<uint32_t> field_bits(width);
    std::vector<uint64_t> group_lo(width);
    for (size_t g = 0; g < width; ++g) {
      field_bits[g] = brick.schema().bess_bits(query.group_by[g]);
      key_bits += field_bits[g];
      uint64_t hi = 0;
      BrickDimBounds(brick, query.group_by[g], &group_lo[g], &hi);
    }
    const bool direct = key_bits <= kDirectKeyBits;
    uint64_t direct_used = 0;  // bit s: direct slot s holds a group
    std::vector<AggState> direct_states(
        direct ? (size_t{1} << key_bits) * num_aggs : 0);
    GroupSlots table(width, num_aggs,
                     key_bits < 64 ? uint64_t{1} << key_bits : ~uint64_t{0});
    std::vector<uint64_t> offsets(width * 64);
    std::vector<uint64_t> key(width);
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
          for (size_t i = 0; i < n; ++i) col[slots[i]].Accumulate(1.0);
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
    QueryResult::GroupKey group(width);
    if (direct) {
      for (uint64_t used = direct_used; used != 0; used &= used - 1) {
        const auto s = static_cast<size_t>(__builtin_ctzll(used));
        uint64_t rest = s;
        for (size_t g = width; g-- > 0;) {
          const uint64_t field_mask = (uint64_t{1} << field_bits[g]) - 1;
          group[g] = group_lo[g] + (rest & field_mask);
          rest >>= field_bits[g];
        }
        result->MergeGroup(group, &direct_states[s * num_aggs]);
      }
    } else {
      for (size_t s = 0; s < table.capacity(); ++s) {
        if (!table.occupied(s)) continue;
        const uint64_t* k = table.key(s);
        for (size_t g = 0; g < width; ++g) group[g] = group_lo[g] + k[g];
        result->MergeGroup(group, table.states() + s * num_aggs);
      }
    }
  }
  agg_span.Finish();
  ins.kernel_words_scanned->Add(num_words);
  ins.kernel_words_skipped->Add(words_skipped);
  ins.kernel_words_dense->Add(words_dense);
  ins.kernel_simd_words->Add(words_simd);
  ins.kernel_simd_fallback->Add(words_fallback);
  if (num_words > 0) {
    ins.kernel_dense_words_permille->Record(words_dense * 1000 / num_words);
  }
  ins.rows_scanned->Add(rows_aggregated);
  // Post-CC+filter visibility density of this brick, in rows per thousand:
  // how much of the brick the snapshot (and filters) let through. A
  // histogram (not a gauge): concurrent morsel workers each record their
  // own brick, and the distribution is what the density is for.
  ins.bitmap_density_permille->Record(rows_aggregated * 1000 /
                                      brick.num_records());
}

QueryResult ScanBricks(const std::vector<const Brick*>& candidates,
                       const aosi::Snapshot& snapshot, ScanMode mode,
                       const Query& query, size_t workers, bool use_cache) {
  const ScanInstruments& ins = Instruments();
  // Prune first, with ScanBrick's own test and counter, so no worker is
  // spent on a brick without row work.
  std::vector<const Brick*> bricks;
  bricks.reserve(candidates.size());
  for (const Brick* brick : candidates) {
    if (brick->num_records() == 0 || !BrickIntersectsFilters(*brick, query)) {
      ins.bricks_pruned->Add();
    } else {
      bricks.push_back(brick);
    }
  }
  workers = std::clamp<size_t>(workers, 1, std::max<size_t>(bricks.size(), 1));
  if (workers == 1) {
    QueryResult result(query.aggs.size());
    for (const Brick* brick : bricks) {
      ScanBrick(*brick, snapshot, mode, query, &result, use_cache);
    }
    return result;
  }

  std::vector<QueryResult> partials(workers, QueryResult(query.aggs.size()));
  std::atomic<size_t> next{0};
  auto scan_worker = [&](size_t w) {
    obs::ObsSpan span(ins.worker_scan_us);
    QueryResult* out = &partials[w];
    while (true) {
      // The brick data itself was published to the pool threads by the
      // task-handoff mutexes in ThreadPool::Submit/PopTask.
      // relaxed: the ticket only partitions disjoint bricks; no data rides on it
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= bricks.size()) break;
      ScanBrick(*bricks[i], snapshot, mode, query, out, use_cache);
    }
  };
  TaskGroup group(&ThreadPool::Global());
  for (size_t w = 1; w < workers; ++w) {
    group.Run([&scan_worker, w] { scan_worker(w); });
  }
  scan_worker(0);  // the calling thread is always worker 0
  group.Wait();

  obs::ObsSpan merge_span(ins.parallel_merge_us);
  QueryResult result(query.aggs.size());
  for (const QueryResult& partial : partials) {
    result.Merge(partial);
  }
  return result;
}

}  // namespace cubrick
