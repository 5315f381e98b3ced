// Random databases and flocks shared by the generated differential
// suites (fused_pipeline_test, incremental_eval_test). The same seed
// always yields the same database and flock.
#ifndef QF_TESTS_GENERATED_FLOCKS_H_
#define QF_TESTS_GENERATED_FLOCKS_H_

#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "flocks/flock.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace qf {

inline Relation RandomRelation(std::mt19937& rng, const std::string& name,
                               std::vector<std::string> columns, int rows,
                               int domain) {
  Relation r(name, Schema(std::move(columns)));
  for (int i = 0; i < rows; ++i) {
    Tuple t;
    for (std::size_t c = 0; c < r.arity(); ++c) {
      t.push_back(Value(static_cast<int>(rng() % domain)));
    }
    r.Add(std::move(t));
  }
  r.Dedup();
  return r;
}

inline Database RandomDatabase(std::mt19937& rng) {
  Database db;
  db.PutRelation(RandomRelation(rng, "r", {"A", "B"}, 24, 6));
  db.PutRelation(RandomRelation(rng, "s", {"A", "B"}, 20, 6));
  db.PutRelation(RandomRelation(rng, "u", {"A", "B"}, 16, 6));
  db.PutRelation(RandomRelation(rng, "t", {"A"}, 4, 6));
  return db;
}

// Random safe-looking flock text: 1-3 disjuncts over the same parameter
// set, each with 1-3 positive atoms (constants, repeated variables and
// cross products all arise), an optional comparison and an optional
// negated atom. Unsafe draws are rejected by MakeFlock/Validate.
class FlockGenerator {
 public:
  explicit FlockGenerator(unsigned seed) : rng_(seed) {}

  std::mt19937& rng() { return rng_; }

  Result<QueryFlock> Next() {
    const int n_params = 1 + static_cast<int>(rng_() % 2);
    const int head_arity = 1 + static_cast<int>(rng_() % 2);
    const int n_disjuncts = 1 + static_cast<int>(rng_() % 3);
    std::string text;
    for (int d = 0; d < n_disjuncts; ++d) {
      std::string rule = Disjunct(n_params, head_arity);
      if (rule.empty()) return InvalidArgumentError("no disjunct");
      text += (d > 0 ? "\n" : "") + rule;
    }
    FilterCondition filter;
    switch (rng_() % 4) {
      case 0:
        filter = FilterCondition::MinSupport(1 + rng_() % 3);
        break;
      case 1:
        filter = {FilterAgg::kSum, CompareOp::kGe,
                  static_cast<double>(rng_() % 12), rng_() % head_arity};
        break;
      case 2:
        filter = {FilterAgg::kMin, CompareOp::kLe,
                  static_cast<double>(rng_() % 4), rng_() % head_arity};
        break;
      default:
        filter = {FilterAgg::kMax, CompareOp::kGe,
                  static_cast<double>(rng_() % 6), rng_() % head_arity};
        break;
    }
    Result<QueryFlock> flock = MakeFlock(text, filter);
    if (!flock.ok()) return flock.status();
    if (Status s = flock->Validate(); !s.ok()) return s;
    return flock;
  }

 private:
  std::string DrawTerm(const std::vector<std::string>& pool) {
    if (rng_() % 10 == 0) return std::to_string(rng_() % 6);  // constant
    return pool[rng_() % pool.size()];
  }

  // One rule whose parameters are exactly $1..$n_params, or "" when the
  // draws keep missing them.
  std::string Disjunct(int n_params, int head_arity) {
    static const char* kBinary[] = {"r", "s", "u"};
    std::vector<std::string> pool = {"X", "Y", "Z"};
    for (int p = 1; p <= n_params; ++p) pool.push_back("$" + std::to_string(p));
    for (int attempt = 0; attempt < 50; ++attempt) {
      std::set<std::string> used;
      std::vector<std::string> atoms;
      const int n_pos = 1 + static_cast<int>(rng_() % 3);
      for (int a = 0; a < n_pos; ++a) {
        bool unary = rng_() % 4 == 0;
        std::string x = DrawTerm(pool);
        std::string atom = unary ? "t(" + x + ")"
                                 : std::string(kBinary[rng_() % 3]) + "(" + x +
                                       "," + DrawTerm(pool) + ")";
        for (const std::string& v : pool) {
          if (atom.find("(" + v + ",") != std::string::npos ||
              atom.find("," + v + ")") != std::string::npos ||
              atom.find("(" + v + ")") != std::string::npos) {
            used.insert(v);
          }
        }
        atoms.push_back(atom);
      }
      bool has_params = true;
      for (int p = 1; p <= n_params; ++p) {
        has_params = has_params && used.contains("$" + std::to_string(p));
      }
      std::vector<std::string> vars;
      for (const std::string& v : used) {
        if (v[0] != '$') vars.push_back(v);
      }
      if (!has_params || static_cast<int>(vars.size()) < head_arity) continue;
      std::vector<std::string> bound(used.begin(), used.end());
      if (rng_() % 2 == 0) {
        static const char* kOps[] = {"<", "<=", ">", ">=", "!="};
        std::string lhs = bound[rng_() % bound.size()];
        std::string rhs = rng_() % 3 == 0 ? std::to_string(rng_() % 6)
                                          : bound[rng_() % bound.size()];
        atoms.push_back(lhs + " " + kOps[rng_() % 5] + " " + rhs);
      }
      if (rng_() % 3 == 0) {
        std::string x = bound[rng_() % bound.size()];
        atoms.push_back(rng_() % 2 == 0
                            ? "NOT t(" + x + ")"
                            : "NOT " + std::string(kBinary[rng_() % 3]) + "(" +
                                  x + "," + bound[rng_() % bound.size()] + ")");
      }
      std::string head = "answer(" + vars[0];
      if (head_arity == 2) head += "," + vars[1];
      head += ")";
      std::string rule = head + " :- ";
      for (std::size_t a = 0; a < atoms.size(); ++a) {
        rule += (a > 0 ? " AND " : "") + atoms[a];
      }
      return rule;
    }
    return "";
  }

  std::mt19937 rng_;
};

}  // namespace qf

#endif  // QF_TESTS_GENERATED_FLOCKS_H_
