// Value: a dynamically typed scalar stored in relations. The query-flocks
// data model is untyped Datalog; a value is an integer, a float, or a
// symbol (string). Ordering and equality are total: values of different
// kinds order by kind (int < double < string), values of the same kind
// order naturally. Arithmetic subgoals in queries ($1 < $2) use this
// ordering, which gives lexicographic comparison for symbols exactly as
// the paper's examples need.
//
// Strings are interned in the process-wide StringPool, so Value is
// trivially copyable, string equality is a pointer compare, and string
// hashing reads the content hash cached in the pool — the fast paths of
// hash joins and set-semantics deduplication.
#ifndef QF_RELATIONAL_VALUE_H_
#define QF_RELATIONAL_VALUE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/check.h"
#include "relational/string_pool.h"

namespace qf {

class Value {
 public:
  enum class Kind { kInt = 0, kDouble = 1, kString = 2 };

  // Default-constructs the integer 0, so vectors of Values are cheap to
  // resize before being filled in.
  Value() : rep_(std::int64_t{0}) {}
  explicit Value(std::int64_t v) : rep_(v) {}
  explicit Value(int v) : rep_(static_cast<std::int64_t>(v)) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string_view v) : rep_(StringPool::Instance().Intern(v)) {}
  explicit Value(const std::string& v) : Value(std::string_view(v)) {}
  explicit Value(const char* v) : Value(std::string_view(v)) {}

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }

  // Kind-checked accessors; calling the wrong one aborts in debug builds.
  std::int64_t AsInt() const {
    QF_DCHECK(is_int());
    return *std::get_if<std::int64_t>(&rep_);
  }
  double AsDouble() const {
    QF_DCHECK(is_double());
    return *std::get_if<double>(&rep_);
  }
  const std::string& AsString() const {
    QF_DCHECK(is_string());
    return **std::get_if<const std::string*>(&rep_);
  }

  // Numeric interpretation: ints widen to double; strings are not numeric.
  bool IsNumeric() const { return !is_string(); }
  double AsNumber() const {
    QF_DCHECK(IsNumeric());
    return is_int() ? static_cast<double>(AsInt()) : AsDouble();
  }

  // Renders the value for printing: integers as decimal text, doubles with
  // a decimal point kept visible, strings verbatim.
  std::string ToString() const;

  // Interned strings compare by canonical pointer.
  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  // Kind-major total order; doubles use IEEE total ordering so the order
  // is strong even in the presence of exotic floats; strings compare by
  // pooled bytes (lexicographic).
  friend std::strong_ordering operator<=>(const Value& a, const Value& b);

  std::size_t Hash() const;

 private:
  std::variant<std::int64_t, double, const std::string*> rep_;
};

static_assert(std::is_trivially_copyable_v<Value>);

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace qf

#endif  // QF_RELATIONAL_VALUE_H_
