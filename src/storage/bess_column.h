// BESS: bit-encoded sparse structure for dimension coordinates.
//
// Within a brick, all dimension columns are packed together into a single
// bit-packed vector (paper §V-A footnote). Each record stores only its
// offset-within-range per dimension — the range index itself is implied by
// the brick's bid — so a record costs sum(ceil(log2(range_size_d))) bits.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace cubrick {

class BessColumn {
 public:
  /// `bits_per_field[d]` is the width of dimension d's offset. Zero-width
  /// fields (range_size == 1) are legal and store nothing.
  explicit BessColumn(std::vector<uint32_t> bits_per_field);

  /// Appends one record's offsets (one per dimension, each < 2^width).
  void Append(const std::vector<uint64_t>& offsets);

  /// Reads the offset of dimension `dim` for record `row`.
  uint64_t Get(uint64_t row, size_t dim) const;

  /// Bulk-decodes dimension `dim` for rows [row_begin, row_begin + count)
  /// into `out[0..count)`. Equivalent to count calls to Get(), but hoists
  /// the per-row bit-position math into a running stride and reads a field
  /// of at most 57 bits with one unaligned 8-byte load — this feeds the
  /// SIMD filter kernels (common/simd.h), which compare 64 decoded
  /// coordinates at a time, and the grouped fold's keys. Zero-width fields
  /// decode as zeros.
  void DecodeDim(uint64_t row_begin, uint64_t count, size_t dim,
                 uint64_t* out) const;

  uint64_t num_records() const { return num_records_; }
  uint32_t bits_per_record() const { return bits_per_record_; }

  size_t MemoryUsage() const { return words_.capacity() * sizeof(uint64_t); }

  /// The packed records' words (white-box tests check which compactions
  /// leave them in place).
  const uint64_t* data() const { return words_.data(); }

  /// Builds a compacted copy containing only rows where keep(row) is true.
  /// `keep` is any callable (uint64_t row) -> bool.
  template <typename KeepFn>
  BessColumn CompactedCopy(KeepFn&& keep) const {
    BessColumn out = EmptyLike();
    std::vector<uint64_t> offsets(field_bits_.size());
    for (uint64_t row = 0; row < num_records_; ++row) {
      if (!keep(row)) continue;
      for (size_t d = 0; d < field_bits_.size(); ++d) {
        offsets[d] = Get(row, d);
      }
      out.Append(offsets);
    }
    return out;
  }

 private:
  BessColumn EmptyLike() const { return BessColumn(field_bits_); }

  /// Writes `width` bits of `value` at absolute bit position `bit_pos`.
  void WriteBits(uint64_t bit_pos, uint32_t width, uint64_t value);
  uint64_t ReadBits(uint64_t bit_pos, uint32_t width) const;

  std::vector<uint32_t> field_bits_;
  std::vector<uint32_t> field_shift_;  // bit offset within a record
  uint32_t bits_per_record_ = 0;
  uint64_t num_records_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cubrick
