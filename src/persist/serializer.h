// Minimal binary serialization for flush segments and manifests.
//
// Fixed little-endian 64-bit framing, no varints: flush throughput is
// dominated by the raw column payloads, and a trivially auditable format
// beats a compact one for a durability layer.

#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"

namespace cubrick::persist {

class BinaryWriter {
 public:
  /// Opens `path` for truncating binary write.
  explicit BinaryWriter(const std::string& path)
      : out_(path, std::ios::binary | std::ios::trunc) {}

  bool ok() const { return out_.good(); }

  void WriteU64(uint64_t v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void WriteU8(uint8_t v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    out_.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(T)));
  }

  /// Flushes buffered bytes to the OS. (A real deployment would fsync; the
  /// simulation treats stream flush as the durability point.)
  Status Finish() {
    out_.flush();
    out_.close();
    return out_.good() ? Status::OK()
                       : Status::IOError("flush segment write failed");
  }

 private:
  std::ofstream out_;
};

class BinaryReader {
 public:
  /// Opens `path`. The reader knows the file's size, so a length prefix
  /// that claims more bytes than the file has left is an IOError, never
  /// an allocation of that size.
  explicit BinaryReader(const std::string& path)
      : in_(path, std::ios::binary) {
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    remaining_ = ec ? 0 : static_cast<uint64_t>(size);
  }

  bool ok() const { return in_.good(); }

  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    if (!Read(&v, sizeof(v))) return Status::IOError("truncated segment (u64)");
    return v;
  }
  Result<uint8_t> ReadU8() {
    uint8_t v = 0;
    if (!Read(&v, sizeof(v))) return Status::IOError("truncated segment (u8)");
    return v;
  }
  Result<std::string> ReadString() {
    auto len = ReadU64();
    if (!len.ok()) return len.status();
    if (*len > remaining_) return PastEnd("string", *len);
    std::string s(*len, '\0');
    if (!Read(s.data(), *len)) {
      return Status::IOError("truncated segment (string)");
    }
    return s;
  }
  template <typename T>
  Result<std::vector<T>> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    auto len = ReadU64();
    if (!len.ok()) return len.status();
    if (*len > remaining_ / sizeof(T)) return PastEnd("vector", *len);
    std::vector<T> v(*len);
    if (!Read(v.data(), *len * sizeof(T))) {
      return Status::IOError("truncated segment (vector)");
    }
    return v;
  }

 private:
  /// Reads `n` bytes into `out`; false when the file has fewer left.
  bool Read(void* out, uint64_t n) {
    if (n > remaining_) return false;
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
    if (!in_.good()) return false;
    remaining_ -= n;
    return true;
  }

  Status PastEnd(const char* what, uint64_t len) const {
    return Status::IOError(std::string(what) + " length " +
                           std::to_string(len) + " exceeds the " +
                           std::to_string(remaining_) + " bytes left");
  }

  std::ifstream in_;
  uint64_t remaining_ = 0;
};

}  // namespace cubrick::persist
