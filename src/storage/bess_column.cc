#include "storage/bess_column.h"

#include <bit>
#include <cstring>

namespace cubrick {

BessColumn::BessColumn(std::vector<uint32_t> bits_per_field)
    : field_bits_(std::move(bits_per_field)) {
  uint32_t shift = 0;
  for (uint32_t bits : field_bits_) {
    CUBRICK_CHECK(bits <= 64);
    field_shift_.push_back(shift);
    shift += bits;
  }
  bits_per_record_ = shift;
}

void BessColumn::Append(const std::vector<uint64_t>& offsets) {
  CUBRICK_CHECK(offsets.size() == field_bits_.size());
  const uint64_t base = num_records_ * bits_per_record_;
  const uint64_t needed_bits = base + bits_per_record_;
  const uint64_t needed_words = (needed_bits + 63) / 64;
  if (words_.size() < needed_words) {
    words_.resize(needed_words, 0);
  }
  for (size_t d = 0; d < offsets.size(); ++d) {
    const uint32_t width = field_bits_[d];
    if (width == 0) {
      CUBRICK_CHECK(offsets[d] == 0);
      continue;
    }
    CUBRICK_CHECK(width == 64 || offsets[d] < (1ULL << width));
    WriteBits(base + field_shift_[d], width, offsets[d]);
  }
  ++num_records_;
}

uint64_t BessColumn::Get(uint64_t row, size_t dim) const {
  CUBRICK_CHECK(row < num_records_ && dim < field_bits_.size());
  const uint32_t width = field_bits_[dim];
  if (width == 0) return 0;
  return ReadBits(row * bits_per_record_ + field_shift_[dim], width);
}

void BessColumn::DecodeDim(uint64_t row_begin, uint64_t count, size_t dim,
                           uint64_t* out) const {
  CUBRICK_CHECK(row_begin + count <= num_records_ && dim < field_bits_.size());
  const uint32_t width = field_bits_[dim];
  if (width == 0) {
    for (uint64_t i = 0; i < count; ++i) out[i] = 0;
    return;
  }
  uint64_t bit_pos = row_begin * bits_per_record_ + field_shift_[dim];
  uint64_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // A field of at most 57 bits lies inside the 8 bytes that start at its
    // first byte, so one unaligned load, a shift by the bit offset within
    // that byte and a mask read it. That takes the 8 bytes to lie inside
    // words_, which holds for every row whose first bit is below
    // `load_end`; the column's last rows take ReadBits instead.
    const uint64_t bytes = words_.size() * sizeof(uint64_t);
    const uint64_t load_end = bytes >= 8 ? (bytes - 7) * 8 : 0;
    if (width <= 57 && bit_pos < load_end) {
      const uint64_t loadable =
          (load_end - bit_pos + bits_per_record_ - 1) / bits_per_record_;
      const uint64_t n = loadable < count ? loadable : count;
      const auto* base = reinterpret_cast<const unsigned char*>(words_.data());
      const uint64_t mask = (uint64_t{1} << width) - 1;
      for (; i < n; ++i, bit_pos += bits_per_record_) {
        uint64_t v;
        std::memcpy(&v, base + (bit_pos >> 3), sizeof(v));
        out[i] = (v >> (bit_pos & 7)) & mask;
      }
    }
  }
  for (; i < count; ++i, bit_pos += bits_per_record_) {
    out[i] = ReadBits(bit_pos, width);
  }
}

void BessColumn::WriteBits(uint64_t bit_pos, uint32_t width, uint64_t value) {
  const uint64_t word = bit_pos >> 6;
  const uint32_t offset = static_cast<uint32_t>(bit_pos & 63);
  words_[word] |= value << offset;
  if (offset + width > 64) {
    words_[word + 1] |= value >> (64 - offset);
  }
}

uint64_t BessColumn::ReadBits(uint64_t bit_pos, uint32_t width) const {
  const uint64_t word = bit_pos >> 6;
  const uint32_t offset = static_cast<uint32_t>(bit_pos & 63);
  uint64_t value = words_[word] >> offset;
  if (offset + width > 64) {
    value |= words_[word + 1] << (64 - offset);
  }
  if (width < 64) {
    value &= (1ULL << width) - 1;
  }
  return value;
}

}  // namespace cubrick
