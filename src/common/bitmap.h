// A dense bitmap used for scan visibility and filtering.
//
// Column-wise scans in Cubrick carry one bit per row dictating whether the
// row should be considered or skipped (paper §III-C3). The AOSI visibility
// pass produces one of these per brick; filter evaluation then ANDs more
// bits away. Bits cleared by concurrency control may never be re-set by
// later stages.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cubrick {

/// Fixed-size, word-packed bitmap with range operations.
class Bitmap {
 public:
  Bitmap() = default;

  /// Creates a bitmap of `size` bits, all initialized to `initial`.
  explicit Bitmap(size_t size, bool initial = false);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Makes this a bitmap of `size` bits, all set to `value`, reusing the
  /// word array's storage when it is large enough.
  void Assign(size_t size, bool value);

  /// Reads bit `i`. Precondition: i < size().
  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Sets bit `i` to 1. Precondition: i < size().
  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }

  /// Clears bit `i`. Precondition: i < size().
  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Sets all bits in [begin, end) to 1. Preconditions: begin <= end <= size.
  void SetRange(size_t begin, size_t end);

  /// Clears all bits in [begin, end).
  void ClearRange(size_t begin, size_t end);

  /// Number of set bits.
  size_t CountSet() const;

  /// Number of set bits in [begin, end).
  size_t CountSetInRange(size_t begin, size_t end) const;

  /// True when no bit is set.
  bool None() const;
  /// True when every bit is set.
  bool All() const;

  /// Index of the first set bit at or after `from`, or size() if none.
  size_t FindNextSet(size_t from) const;

  // --- Word-granular access for vectorized scan kernels -------------------
  //
  // Bits [w*64, w*64+64) live in word w; bits at or past size() are always
  // zero, so kernels may skip zero words and popcount set ones without
  // worrying about the ragged tail.

  /// Number of 64-bit words backing the bitmap.
  size_t num_words() const { return words_.size(); }

  /// Word `w`. Precondition: w < num_words().
  uint64_t Word(size_t w) const { return words_[w]; }

  /// Overwrites word `w`; bits past size() are masked off. Precondition:
  /// w < num_words().
  void SetWord(size_t w, uint64_t value) {
    words_[w] = value;
    if (w + 1 == words_.size()) ClearTrailingBits();
  }

  /// Invokes `fn(index)` for every set bit, in increasing order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Renders as a left-to-right '0'/'1' string (bit 0 first), as used in the
  /// paper's Table III.
  std::string ToString() const;

  /// Parses a '0'/'1' string produced by ToString().
  static Bitmap FromString(const std::string& bits);

  bool operator==(const Bitmap& other) const;

  /// Bytes of heap memory used by the word array.
  size_t MemoryUsage() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  /// Zeroes any bits in the last word beyond size_ (keeps CountSet exact).
  void ClearTrailingBits();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cubrick
