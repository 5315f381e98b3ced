// Global string interning for Value. Every distinct string stored in a
// relation is kept once in a process-wide pool; Values carry a pointer to
// the pooled string. This makes Value trivially copyable (tuple copies are
// flat loops) and equality a pointer compare — the operations hash joins
// and set-semantics deduplication live on. Each pooled string keeps its
// content hash beside it, so hashing reads one word and never depends on
// the string's address: hash-table layouts, probe counts and spill
// partitions are the same in every process. Ordering dereferences the
// pooled bytes, preserving lexicographic semantics for the paper's
// "$1 < $2" subgoals.
//
// The pool is sharded by string hash: each shard has its own mutex, so
// concurrent bulk loaders (TSV import, workload generators on the thread
// pool) contend only when two threads intern strings landing in the same
// shard, not on one global lock.
#ifndef QF_RELATIONAL_STRING_POOL_H_
#define QF_RELATIONAL_STRING_POOL_H_

#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

namespace qf {

class StringPool {
 public:
  static constexpr std::size_t kShards = 16;  // power of two

  // The process-wide pool. Never destroyed (intentionally leaked, so
  // interned pointers stay valid through static destruction).
  static StringPool& Instance();

  // Returns the canonical pooled instance of `s`, interning it on first
  // sight. The returned pointer is stable for the process lifetime; two
  // equal strings always intern to the same pointer. Thread-safe.
  const std::string* Intern(std::string_view s);

  // The content hash of a string Intern returned: std::hash of its bytes,
  // computed once at interning.
  static std::size_t HashOf(const std::string* interned) {
    return reinterpret_cast<const Entry*>(interned)->hash;
  }

  // Total interned strings across all shards.
  std::size_t size() const;

 private:
  // Intern returns &str, which shares its address with the entry.
  struct Entry {
    std::string str;
    std::size_t hash;
  };
  static_assert(std::is_standard_layout_v<Entry>);

  struct Shard {
    mutable std::mutex mutex;
    // deque: stable addresses under growth.
    std::deque<Entry> strings;
    std::unordered_map<std::string_view, const std::string*> ids;
  };

  StringPool() = default;

  Shard shards_[kShards];
};

}  // namespace qf

#endif  // QF_RELATIONAL_STRING_POOL_H_
