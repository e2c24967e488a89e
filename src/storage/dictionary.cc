#include "storage/dictionary.h"

#include "common/mutex.h"

namespace cubrick {

uint64_t StringDictionary::AddLocked(std::string_view value) {
  const uint64_t id = strings_.size();
  strings_.emplace_back(value);
  to_id_.emplace(strings_.back(), id);
  return id;
}

uint64_t StringDictionary::EncodeOrAdd(const std::string& value) {
  MutexLock lock(mutex_);
  auto it = to_id_.find(value);
  if (it != to_id_.end()) return it->second;
  return AddLocked(value);
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
  if (id >= strings_.size()) {
    return Status::OutOfRange("dictionary id out of range: " +
                              std::to_string(id));
  }
  return strings_[id];
}

std::vector<uint64_t> StringDictionary::Lookup(
    const std::vector<std::string_view>& values) const {
  std::vector<uint64_t> ids(values.size());
  MutexLock lock(mutex_);
  for (size_t k = 0; k < values.size(); ++k) {
    auto it = to_id_.find(values[k]);
    ids[k] = it == to_id_.end() ? kMissing : it->second;
  }
  return ids;
}

std::vector<uint64_t> StringDictionary::InsertSorted(
    const std::vector<std::string_view>& sorted, size_t* added) {
  std::vector<uint64_t> ids(sorted.size());
  *added = 0;
  MutexLock lock(mutex_);
  for (size_t k = 0; k < sorted.size(); ++k) {
    auto it = to_id_.find(sorted[k]);
    if (it != to_id_.end()) {
      ids[k] = it->second;
    } else {
      ids[k] = AddLocked(sorted[k]);
      ++*added;
    }
  }
  return ids;
}

size_t StringDictionary::size() const {
  MutexLock lock(mutex_);
  return strings_.size();
}

}  // namespace cubrick
