// Unit tests for Value: kinds, ordering, hashing, printing.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "relational/value.h"

namespace qf {
namespace {

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value(std::int64_t{5}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("beer").is_string());
}

TEST(ValueTest, EqualitySameKind) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_NE(Value(3), Value(4));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
}

TEST(ValueTest, KindsNeverEqual) {
  EXPECT_NE(Value(3), Value(3.0));
  EXPECT_NE(Value(3), Value("3"));
}

TEST(ValueTest, OrderingWithinKind) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2.5));
  EXPECT_LT(Value("apple"), Value("banana"));
}

TEST(ValueTest, LexicographicStrings) {
  // The paper's "$1 < $2" uses lexicographic order for items/words.
  EXPECT_LT(Value("beer"), Value("diapers"));
  EXPECT_LT(Value("Beer"), Value("beer"));  // ASCII order
}

TEST(ValueTest, KindMajorOrdering) {
  EXPECT_LT(Value(100), Value(0.5));      // int < double
  EXPECT_LT(Value(3.14), Value("aaaa"));  // double < string
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(7).Hash(), Value(7).Hash());
  EXPECT_EQ(Value("xyz").Hash(), Value("xyz").Hash());
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
}

TEST(ValueTest, StringHashIsTheHashOfItsBytes) {
  // Not of the pooled address: hash-table layouts, and so EXPLAIN ANALYZE
  // probe counts and spill partitions, must not differ between processes.
  const std::string bytes = "value_test.content_hash";
  EXPECT_EQ(Value(bytes).Hash(),
            HashCombine(static_cast<std::size_t>(Value::Kind::kString),
                        std::hash<std::string_view>{}(bytes)));
}

TEST(ValueTest, HashSpreads) {
  // Different small ints should not all collide.
  std::set<std::size_t> hashes;
  for (int i = 0; i < 100; ++i) hashes.insert(Value(i).Hash());
  EXPECT_GT(hashes.size(), 95u);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(-1).ToString(), "-1");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ValueTest, AsNumberWidensInt) {
  EXPECT_DOUBLE_EQ(Value(3).AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Value(3.5).AsNumber(), 3.5);
  EXPECT_FALSE(Value("x").IsNumeric());
}

}  // namespace
}  // namespace qf
