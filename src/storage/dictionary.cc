#include "storage/dictionary.h"

#include "common/mutex.h"

namespace cubrick {

uint64_t StringDictionary::EncodeOrAdd(const std::string& value) {
  MutexLock lock(mutex_);
  auto it = to_id_.find(value);
  if (it != to_id_.end()) return it->second;
  const uint64_t id = to_string_.size();
  to_string_.push_back(value);
  to_id_.emplace(value, id);
  // Lazy invalidation: the next AcquireSnapshot() rebuilds. Keeping the
  // single-insert path O(1) matters because recovery replays dictionaries
  // entry by entry through here.
  snapshot_.reset();
  return id;
}

Result<uint64_t> StringDictionary::Encode(const std::string& value) const {
  MutexLock lock(mutex_);
  auto it = to_id_.find(value);
  if (it == to_id_.end()) {
    return Status::NotFound("string not in dictionary: " + value);
  }
  return it->second;
}

Result<std::string> StringDictionary::Decode(uint64_t id) const {
  MutexLock lock(mutex_);
  if (id >= to_string_.size()) {
    return Status::OutOfRange("dictionary id out of range: " +
                              std::to_string(id));
  }
  return to_string_[id];
}

std::shared_ptr<const StringDictionary::DictSnapshot>
StringDictionary::AcquireSnapshot() const {
  MutexLock lock(mutex_);
  if (snapshot_ == nullptr) snapshot_ = BuildSnapshotLocked();
  return snapshot_;
}

std::shared_ptr<const StringDictionary::DictSnapshot>
StringDictionary::BuildSnapshotLocked() const {
  auto fresh = std::make_shared<DictSnapshot>();
  fresh->to_id = to_id_;
  return fresh;
}

size_t StringDictionary::InsertSortedBatch(
    const std::vector<std::string>& sorted_misses) {
  if (sorted_misses.empty()) return 0;
  MutexLock lock(mutex_);
  size_t inserted = 0;
  for (const std::string& value : sorted_misses) {
    if (to_id_.count(value) > 0) continue;
    const uint64_t id = to_string_.size();
    to_string_.push_back(value);
    to_id_.emplace(value, id);
    ++inserted;
  }
  if (inserted > 0) {
    // Eager rebuild: the encode phase that follows a batch insert
    // re-acquires immediately, so building the snapshot here (once, under
    // the same lock hold) beats every worker queueing to rebuild it.
    snapshot_ = BuildSnapshotLocked();
  }
  return inserted;
}

size_t StringDictionary::size() const {
  MutexLock lock(mutex_);
  return to_string_.size();
}

size_t StringDictionary::MemoryUsage() const {
  MutexLock lock(mutex_);
  size_t bytes = 0;
  for (const auto& s : to_string_) {
    // Counted twice: once in the vector, once as a map key.
    bytes += 2 * (s.capacity() + sizeof(std::string));
    bytes += sizeof(uint64_t) + sizeof(void*);  // map payload + bucket link
  }
  bytes += to_string_.capacity() * sizeof(std::string);
  return bytes;
}

}  // namespace cubrick
