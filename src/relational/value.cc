#include "relational/value.h"

#include <cstdio>
#include <functional>

#include "common/hash.h"

namespace qf {

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kInt:
      return std::to_string(AsInt());
    case Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      // Keep the double-ness visible (and TSV round-trippable): "1" -> "1.0".
      std::string s = buf;
      if (s.find_first_of(".einEIN") == std::string::npos) s += ".0";
      return s;
    }
    case Kind::kString:
      return AsString();
  }
  return "";
}

std::strong_ordering operator<=>(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) <=> static_cast<int>(b.kind());
  }
  switch (a.kind()) {
    case Value::Kind::kInt:
      return a.AsInt() <=> b.AsInt();
    case Value::Kind::kDouble:
      return std::strong_order(a.AsDouble(), b.AsDouble());
    case Value::Kind::kString:
      return a.AsString().compare(b.AsString()) <=> 0;
  }
  return std::strong_ordering::equal;
}

std::size_t Value::Hash() const {
  std::size_t seed = static_cast<std::size_t>(kind());
  switch (kind()) {
    case Kind::kInt:
      return HashValueInto(seed, AsInt());
    case Kind::kDouble: {
      // Hash the numeric value consistently with equality (0.0 == -0.0).
      double d = AsDouble();
      if (d == 0.0) d = 0.0;
      return HashValueInto(seed, d);
    }
    case Kind::kString:
      // The content hash cached in the pool: consistent with pointer
      // equality (one pooled string per content) and the same in every
      // process.
      return HashCombine(seed, StringPool::HashOf(&AsString()));
  }
  return seed;
}

}  // namespace qf
