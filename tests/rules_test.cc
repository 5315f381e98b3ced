// Tests for association-rule derivation and the §1.1 measures.
#include <gtest/gtest.h>

#include "apriori/rules.h"

namespace qf {
namespace {

BasketData MakeData(std::vector<std::vector<std::string>> baskets) {
  Relation rel("baskets", Schema({"BID", "Item"}));
  for (std::size_t b = 0; b < baskets.size(); ++b) {
    for (const std::string& item : baskets[b]) {
      rel.AddRow({Value(static_cast<std::int64_t>(b)), Value(item)});
    }
  }
  rel.Dedup();
  auto data = BasketsFromRelation(rel, "BID", "Item");
  EXPECT_TRUE(data.ok());
  return *data;
}

// 10 baskets: beer in 4, diapers in 5, both in 4 — beer -> diapers has
// confidence 1.0 and interest 1/(0.5) = 2.0.
BasketData BeerDiapers() {
  std::vector<std::vector<std::string>> baskets;
  for (int i = 0; i < 4; ++i) baskets.push_back({"beer", "diapers"});
  baskets.push_back({"diapers"});
  for (int i = 0; i < 5; ++i) baskets.push_back({"milk"});
  return MakeData(baskets);
}

TEST(RulesTest, ConfidenceAndInterestComputed) {
  BasketData data = BeerDiapers();
  AprioriOptions options;
  options.min_support = 4;
  std::vector<Itemset> frequent = AprioriFrequentItemsets(data, options);
  std::vector<AssociationRule> rules =
      DeriveRules(data, frequent, {.min_confidence = 0.0});
  // From {beer, diapers}: beer -> diapers and diapers -> beer.
  ASSERT_EQ(rules.size(), 2u);
  const AssociationRule* beer_to_diapers = nullptr;
  const AssociationRule* diapers_to_beer = nullptr;
  for (const AssociationRule& r : rules) {
    if (data.item_names[r.rhs] == "diapers") beer_to_diapers = &r;
    if (data.item_names[r.rhs] == "beer") diapers_to_beer = &r;
  }
  ASSERT_NE(beer_to_diapers, nullptr);
  ASSERT_NE(diapers_to_beer, nullptr);
  EXPECT_DOUBLE_EQ(beer_to_diapers->confidence, 1.0);    // 4/4
  EXPECT_DOUBLE_EQ(beer_to_diapers->interest, 2.0);      // 1.0 / (5/10)
  EXPECT_DOUBLE_EQ(diapers_to_beer->confidence, 0.8);    // 4/5
  EXPECT_DOUBLE_EQ(diapers_to_beer->interest, 2.0);      // 0.8 / (4/10)
  EXPECT_EQ(beer_to_diapers->support, 4u);
}

TEST(RulesTest, MinConfidenceFilters) {
  BasketData data = BeerDiapers();
  AprioriOptions options;
  options.min_support = 4;
  std::vector<Itemset> frequent = AprioriFrequentItemsets(data, options);
  std::vector<AssociationRule> rules =
      DeriveRules(data, frequent, {.min_confidence = 0.9});
  ASSERT_EQ(rules.size(), 1u);  // only beer -> diapers (conf 1.0)
  EXPECT_EQ(data.item_names[rules[0].rhs], "diapers");
}

TEST(RulesTest, InterestDeviationFilters) {
  // milk and bread are independent: interest ~= 1, filtered out by a
  // deviation threshold.
  std::vector<std::vector<std::string>> baskets;
  for (int i = 0; i < 4; ++i) baskets.push_back({"milk", "bread"});
  for (int i = 0; i < 4; ++i) baskets.push_back({"milk"});
  for (int i = 0; i < 4; ++i) baskets.push_back({"bread"});
  // P(bread) = 8/12; conf(milk -> bread) = 4/8 = 0.5; interest = 0.75.
  BasketData data = MakeData(baskets);
  AprioriOptions options;
  options.min_support = 4;
  std::vector<Itemset> frequent = AprioriFrequentItemsets(data, options);
  std::vector<AssociationRule> loose =
      DeriveRules(data, frequent, {.min_confidence = 0.0});
  EXPECT_EQ(loose.size(), 2u);
  std::vector<AssociationRule> strict = DeriveRules(
      data, frequent,
      {.min_confidence = 0.0, .min_interest_deviation = 0.3});
  EXPECT_TRUE(strict.empty());
}

TEST(RulesTest, TriplesYieldThreeRulesEach) {
  std::vector<std::vector<std::string>> baskets;
  for (int i = 0; i < 5; ++i) baskets.push_back({"a", "b", "c"});
  BasketData data = MakeData(baskets);
  AprioriOptions options;
  options.min_support = 5;
  std::vector<Itemset> frequent = AprioriFrequentItemsets(data, options);
  std::vector<AssociationRule> rules =
      DeriveRules(data, frequent, {.min_confidence = 0.0});
  // {a,b}, {a,c}, {b,c} give 2 rules each; {a,b,c} gives 3 more.
  EXPECT_EQ(rules.size(), 9u);
  std::size_t two_item_lhs = 0;
  for (const AssociationRule& r : rules) two_item_lhs += r.lhs.size() == 2;
  EXPECT_EQ(two_item_lhs, 3u);
}

TEST(RulesTest, RuleToStringFormat) {
  BasketData data = BeerDiapers();
  AprioriOptions options;
  options.min_support = 4;
  std::vector<Itemset> frequent = AprioriFrequentItemsets(data, options);
  std::vector<AssociationRule> rules =
      DeriveRules(data, frequent, {.min_confidence = 0.9});
  ASSERT_EQ(rules.size(), 1u);
  std::string text = RuleToString(rules[0], data);
  EXPECT_NE(text.find("beer -> diapers"), std::string::npos);
  EXPECT_NE(text.find("support 4"), std::string::npos);
  EXPECT_NE(text.find("confidence 1.00"), std::string::npos);
  EXPECT_NE(text.find("interest 2.00"), std::string::npos);
}

}  // namespace
}  // namespace qf
