// Tuple: an ordered list of Values, plus the hashing/equality functors the
// relational operators use for hash joins and deduplication.
#ifndef QF_RELATIONAL_TUPLE_H_
#define QF_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "relational/value.h"

namespace qf {

using Tuple = std::vector<Value>;

// Hashes a whole tuple (order-sensitive).
struct TupleHash {
  std::size_t operator()(const Tuple& t) const { return Of(t); }
  // The same hash over a borrowed row, so rows held flat (arity-strided
  // value arrays, scratch rows) hash exactly like their Tuple copies.
  static std::size_t Of(std::span<const Value> row) {
    std::size_t seed = row.size();
    for (const Value& v : row) seed = HashCombineValue(seed, v);
    return seed;
  }
  static std::size_t HashCombineValue(std::size_t seed, const Value& v);
};

// Renders "(v1, v2, ...)" for diagnostics and example output.
std::string TupleToString(const Tuple& t);

// Returns the projection of `t` onto `indices` (in that order).
Tuple ProjectTuple(const Tuple& t, const std::vector<std::size_t>& indices);

// A borrowed view of the key columns of a tuple: which columns form the
// key, plus whether they are the identity projection (columns 0..n-1 of
// an n-ary tuple). The flat-hash kernels hash and compare key columns
// through this view, in place on the stored rows — no key Tuple is ever
// materialized — and the identity case skips even the index indirection.
struct KeyCols {
  const std::size_t* idx = nullptr;
  std::size_t n = 0;
  bool identity = false;  // key == whole row, in order

  // `arity` is the tuple width the keys will be drawn from.
  KeyCols(const std::vector<std::size_t>& cols, std::size_t arity)
      : idx(cols.data()), n(cols.size()), identity(cols.size() == arity) {
    if (identity) {
      for (std::size_t i = 0; i < n; ++i) {
        if (cols[i] != i) {
          identity = false;
          break;
        }
      }
    }
  }

  // Hash of the key columns of `t`; matches TupleHash of the projected
  // key tuple exactly (same seed = column count, same combine order), so
  // flat tables and the legacy unordered_* paths agree on hashes.
  std::size_t Hash(const Tuple& t) const {
    std::size_t seed = n;
    if (identity) {
      for (const Value& v : t) seed = TupleHash::HashCombineValue(seed, v);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        seed = TupleHash::HashCombineValue(seed, t[idx[i]]);
      }
    }
    return seed;
  }

  // Column-wise equality of the key columns of `a` and `b`.
  bool Eq(const Tuple& a, const Tuple& b) const {
    if (identity) return a == b;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(a[idx[i]] == b[idx[i]])) return false;
    }
    return true;
  }

  // Key equality across two relations keyed by different column lists
  // (join probe: a-key columns of `a` vs b-key columns of `b`).
  bool EqAcross(const Tuple& a, const KeyCols& b_cols, const Tuple& b) const {
    for (std::size_t i = 0; i < n; ++i) {
      const Value& va = identity ? a[i] : a[idx[i]];
      const Value& vb = b_cols.identity ? b[i] : b[b_cols.idx[i]];
      if (!(va == vb)) return false;
    }
    return true;
  }

  // Materializes the key tuple (output construction, not probing).
  Tuple Extract(const Tuple& t) const {
    if (identity) return t;
    Tuple key;
    key.reserve(n);
    for (std::size_t i = 0; i < n; ++i) key.push_back(t[idx[i]]);
    return key;
  }
};

}  // namespace qf

#endif  // QF_RELATIONAL_TUPLE_H_
