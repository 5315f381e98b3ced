#include "relational/string_pool.h"

#include <functional>

namespace qf {

StringPool& StringPool::Instance() {
  static StringPool* pool = new StringPool;  // leaked by design
  return *pool;
}

const std::string* StringPool::Intern(std::string_view s) {
  // Shard by content hash; the per-shard map reuses the same hash via its
  // own std::hash<string_view>, so equal strings always pick (and find
  // themselves in) the same shard.
  const std::size_t hash = std::hash<std::string_view>{}(s);
  Shard& shard = shards_[hash & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.ids.find(s);
  if (it != shard.ids.end()) return it->second;
  shard.strings.push_back(Entry{std::string(s), hash});
  const std::string* canonical = &shard.strings.back().str;
  // The key view points at the deque-owned string, which never moves.
  shard.ids.emplace(std::string_view(*canonical), canonical);
  return canonical;
}

std::size_t StringPool::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.strings.size();
  }
  return total;
}

}  // namespace qf
