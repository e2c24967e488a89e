#include "common/bitmap.h"

#include "common/status.h"

namespace cubrick {

namespace {
constexpr uint64_t kAllOnes = ~0ULL;

size_t WordsFor(size_t bits) { return (bits + 63) / 64; }
}  // namespace

Bitmap::Bitmap(size_t size, bool initial) { Assign(size, initial); }

void Bitmap::Assign(size_t size, bool value) {
  size_ = size;
  words_.assign(WordsFor(size), value ? kAllOnes : 0ULL);
  if (value) ClearTrailingBits();
}

void Bitmap::SetRange(size_t begin, size_t end) {
  CUBRICK_CHECK(begin <= end && end <= size_);
  if (begin == end) return;
  const size_t first_word = begin >> 6;
  const size_t last_word = (end - 1) >> 6;
  const uint64_t first_mask = kAllOnes << (begin & 63);
  const uint64_t last_mask = kAllOnes >> (63 - ((end - 1) & 63));
  if (first_word == last_word) {
    words_[first_word] |= first_mask & last_mask;
    return;
  }
  words_[first_word] |= first_mask;
  for (size_t w = first_word + 1; w < last_word; ++w) {
    words_[w] = kAllOnes;
  }
  words_[last_word] |= last_mask;
}

void Bitmap::ClearRange(size_t begin, size_t end) {
  CUBRICK_CHECK(begin <= end && end <= size_);
  if (begin == end) return;
  const size_t first_word = begin >> 6;
  const size_t last_word = (end - 1) >> 6;
  const uint64_t first_mask = kAllOnes << (begin & 63);
  const uint64_t last_mask = kAllOnes >> (63 - ((end - 1) & 63));
  if (first_word == last_word) {
    words_[first_word] &= ~(first_mask & last_mask);
    return;
  }
  words_[first_word] &= ~first_mask;
  for (size_t w = first_word + 1; w < last_word; ++w) {
    words_[w] = 0;
  }
  words_[last_word] &= ~last_mask;
}

size_t Bitmap::CountSet() const {
  size_t count = 0;
  for (uint64_t w : words_) {
    count += static_cast<size_t>(__builtin_popcountll(w));
  }
  return count;
}

size_t Bitmap::CountSetInRange(size_t begin, size_t end) const {
  CUBRICK_CHECK(begin <= end && end <= size_);
  size_t count = 0;
  // Simple per-word walk; ranges in scans are large so mask edges only.
  size_t i = begin;
  while (i < end) {
    const size_t word_idx = i >> 6;
    const size_t word_begin = word_idx << 6;
    const size_t word_end = word_begin + 64;
    const size_t lo = i - word_begin;
    const size_t hi = (end < word_end ? end : word_end) - word_begin;
    uint64_t mask = kAllOnes;
    mask <<= lo;
    if (hi < 64) {
      mask &= kAllOnes >> (64 - hi);
    }
    count += static_cast<size_t>(__builtin_popcountll(words_[word_idx] & mask));
    i = word_end < end ? word_end : end;
  }
  return count;
}

bool Bitmap::None() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool Bitmap::All() const { return CountSet() == size_; }

size_t Bitmap::FindNextSet(size_t from) const {
  if (from >= size_) return size_;
  size_t word_idx = from >> 6;
  uint64_t word = words_[word_idx] & (kAllOnes << (from & 63));
  while (true) {
    if (word != 0) {
      const size_t bit =
          word_idx * 64 + static_cast<size_t>(__builtin_ctzll(word));
      return bit < size_ ? bit : size_;
    }
    ++word_idx;
    if (word_idx >= words_.size()) return size_;
    word = words_[word_idx];
  }
}

std::string Bitmap::ToString() const {
  std::string out(size_, '0');
  for (size_t i = 0; i < size_; ++i) {
    if (Get(i)) out[i] = '1';
  }
  return out;
}

Bitmap Bitmap::FromString(const std::string& bits) {
  Bitmap bm(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    CUBRICK_CHECK(bits[i] == '0' || bits[i] == '1');
    if (bits[i] == '1') bm.Set(i);
  }
  return bm;
}

bool Bitmap::operator==(const Bitmap& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

void Bitmap::ClearTrailingBits() {
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= kAllOnes >> (64 - tail);
  }
}

}  // namespace cubrick
