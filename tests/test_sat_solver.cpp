// CDCL solver tests: propagation, conflicts, assumptions, incrementality,
// the memoized assumption prefix, known-hard UNSAT families, a brute-force
// cross-check property, and a DRAT-certified random-CNF property.
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/drat.hpp"
#include "util/rng.hpp"

namespace simgen::sat {
namespace {

TEST(Solver, EmptyProblemIsSat) {
  Solver solver;
  EXPECT_EQ(solver.solve(), Result::kSat);
}

TEST(Solver, UnitClauses) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  EXPECT_TRUE(solver.add_clause({pos(x)}));
  EXPECT_TRUE(solver.add_clause({neg(y)}));
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_TRUE(solver.model_value(x));
  EXPECT_FALSE(solver.model_value(y));
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  Solver solver;
  const Var x = solver.new_var();
  EXPECT_TRUE(solver.add_clause({pos(x)}));
  EXPECT_FALSE(solver.add_clause({neg(x)}));
  EXPECT_TRUE(solver.in_conflict());
  EXPECT_EQ(solver.solve(), Result::kUnsat);
}

TEST(Solver, ImplicationChain) {
  // x0 and (x_i -> x_{i+1}) for a long chain: all forced true.
  Solver solver;
  std::vector<Var> vars;
  for (int i = 0; i < 200; ++i) vars.push_back(solver.new_var());
  solver.add_clause({pos(vars[0])});
  for (int i = 0; i + 1 < 200; ++i)
    solver.add_clause({neg(vars[i]), pos(vars[i + 1])});
  ASSERT_EQ(solver.solve(), Result::kSat);
  for (const Var v : vars) EXPECT_TRUE(solver.model_value(v));
}

TEST(Solver, TautologyAndDuplicatesHandled) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  EXPECT_TRUE(solver.add_clause({pos(x), neg(x)}));           // tautology
  EXPECT_TRUE(solver.add_clause({pos(y), pos(y), pos(y)}));   // dup -> unit
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_TRUE(solver.model_value(y));
}

TEST(Solver, ModelSatisfiesAllClauses) {
  // Random 3-SAT at a satisfiable density; verify the model directly.
  util::Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    Solver solver;
    std::vector<Var> vars;
    for (int i = 0; i < 30; ++i) vars.push_back(solver.new_var());
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 80; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k)
        clause.push_back(Lit(vars[rng.below(vars.size())], rng.flip()));
      clauses.push_back(clause);
      solver.add_clause(clause);
    }
    if (solver.solve() != Result::kSat) continue;
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (const Lit lit : clause) satisfied |= solver.model_value(lit);
      ASSERT_TRUE(satisfied);
    }
  }
}

// Brute-force cross-check: on small random instances the solver's verdict
// must match exhaustive enumeration exactly.
TEST(Solver, MatchesBruteForceOnSmallInstances) {
  util::Rng rng(321);
  for (int round = 0; round < 60; ++round) {
    const unsigned num_vars = 4 + static_cast<unsigned>(rng.below(7));  // 4..10
    const unsigned num_clauses = num_vars * (3 + static_cast<unsigned>(rng.below(3)));
    std::vector<std::vector<Lit>> clauses;
    Solver solver;
    std::vector<Var> vars;
    for (unsigned i = 0; i < num_vars; ++i) vars.push_back(solver.new_var());
    for (unsigned c = 0; c < num_clauses; ++c) {
      std::vector<Lit> clause;
      const unsigned width = 1 + static_cast<unsigned>(rng.below(3));
      for (unsigned k = 0; k < width; ++k)
        clause.push_back(Lit(vars[rng.below(num_vars)], rng.flip()));
      clauses.push_back(clause);
      solver.add_clause(clause);
    }

    bool brute_sat = false;
    for (std::uint32_t m = 0; m < (1u << num_vars) && !brute_sat; ++m) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit lit : clause)
          any |= (((m >> lit.var()) & 1u) != 0) != lit.negated();
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    const Result verdict = solver.solve();
    ASSERT_EQ(verdict == Result::kSat, brute_sat) << "round " << round;
  }
}

TEST(Solver, PigeonholeIsUnsat) {
  // PHP(n+1, n): n+1 pigeons, n holes — classically hard UNSAT, exercises
  // conflict analysis and learning deeply.
  const int holes = 6;
  const int pigeons = holes + 1;
  Solver solver;
  std::vector<std::vector<Var>> slot(pigeons, std::vector<Var>(holes));
  for (auto& row : slot)
    for (auto& var : row) var = solver.new_var();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(pos(slot[p][h]));
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        solver.add_clause({neg(slot[p1][h]), neg(slot[p2][h])});
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  EXPECT_GT(solver.stats().conflicts.value(), 10u);
}

TEST(Solver, XorChainParity) {
  // Tseitin-encoded xor chain: x1 ^ x2 ^ ... ^ xn = 1 is SAT; adding the
  // complementary parity constraint makes it UNSAT.
  const int n = 12;
  Solver solver;
  std::vector<Var> x;
  for (int i = 0; i < n; ++i) x.push_back(solver.new_var());
  // p_i = x_0 ^ ... ^ x_i.
  std::vector<Var> p{x[0]};
  for (int i = 1; i < n; ++i) {
    const Var pi = solver.new_var();
    const Var a = p.back();
    const Var b = x[i];
    solver.add_clause({neg(pi), pos(a), pos(b)});
    solver.add_clause({neg(pi), neg(a), neg(b)});
    solver.add_clause({pos(pi), pos(a), neg(b)});
    solver.add_clause({pos(pi), neg(a), pos(b)});
    p.push_back(pi);
  }
  solver.add_clause({pos(p.back())});
  ASSERT_EQ(solver.solve(), Result::kSat);
  // Verify the parity of the model.
  bool parity = false;
  for (int i = 0; i < n; ++i) parity ^= solver.model_value(x[i]);
  EXPECT_TRUE(parity);
  // Force the opposite parity: UNSAT.
  solver.add_clause({neg(p.back())});
  EXPECT_EQ(solver.solve(), Result::kUnsat);
}

TEST(Solver, AssumptionsSelectBranches) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause({pos(x), pos(y)});
  ASSERT_EQ(solver.solve({neg(x)}), Result::kSat);
  EXPECT_FALSE(solver.model_value(x));
  EXPECT_TRUE(solver.model_value(y));
  ASSERT_EQ(solver.solve({neg(y)}), Result::kSat);
  EXPECT_TRUE(solver.model_value(x));
  // Contradictory assumptions: UNSAT without poisoning the clause set.
  EXPECT_EQ(solver.solve({neg(x), neg(y)}), Result::kUnsat);
  EXPECT_EQ(solver.solve(), Result::kSat);
  EXPECT_FALSE(solver.in_conflict());
}

TEST(Solver, AssumptionConflictingWithUnit) {
  Solver solver;
  const Var x = solver.new_var();
  solver.add_clause({pos(x)});
  EXPECT_EQ(solver.solve({neg(x)}), Result::kUnsat);
  EXPECT_EQ(solver.solve({pos(x)}), Result::kSat);
}

TEST(Solver, IncrementalAddBetweenSolves) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause({pos(x), pos(y)});
  ASSERT_EQ(solver.solve(), Result::kSat);
  solver.add_clause({neg(x)});
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_TRUE(solver.model_value(y));
  solver.add_clause({neg(y)});
  EXPECT_EQ(solver.solve(), Result::kUnsat);
}

TEST(Solver, ConflictLimitReturnsUnknown) {
  // A pigeonhole instance with a tiny conflict budget must bail out.
  const int holes = 8;
  const int pigeons = holes + 1;
  Solver solver;
  std::vector<std::vector<Var>> slot(pigeons, std::vector<Var>(holes));
  for (auto& row : slot)
    for (auto& var : row) var = solver.new_var();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(pos(slot[p][h]));
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        solver.add_clause({neg(slot[p1][h]), neg(slot[p2][h])});
  solver.set_conflict_limit(10);
  EXPECT_EQ(solver.solve(), Result::kUnknown);
  // Removing the limit lets it finish.
  solver.set_conflict_limit(0);
  EXPECT_EQ(solver.solve(), Result::kUnsat);
}

TEST(Solver, StatsAreCounted) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause({pos(x), pos(y)});
  solver.add_clause({neg(x), pos(y)});
  solver.add_clause({pos(x), neg(y)});
  solver.solve();
  EXPECT_EQ(solver.stats().solve_calls.value(), 1u);
  EXPECT_GT(solver.stats().propagations.value() + solver.stats().decisions.value(), 0u);
}

TEST(Solver, MemoizedAssumptionPrefixSkipsRepropagation) {
  // Regression: a repeated solve under identical assumptions must not
  // redo the assumption-prefix propagation. The chain makes the single
  // assumption force every variable, so a memoized second call has
  // literally nothing to propagate or decide.
  Solver solver;
  std::vector<Var> vars;
  for (int i = 0; i < 200; ++i) vars.push_back(solver.new_var());
  for (int i = 0; i + 1 < 200; ++i)
    solver.add_clause({neg(vars[i]), pos(vars[i + 1])});
  ASSERT_EQ(solver.solve({pos(vars[0])}), Result::kSat);
  const std::uint64_t propagations = solver.stats().propagations.value();
  const std::uint64_t decisions = solver.stats().decisions.value();
  ASSERT_EQ(solver.solve({pos(vars[0])}), Result::kSat);
  EXPECT_EQ(solver.stats().propagations.value(), propagations)
      << "identical repeated solve repropagated the assumption prefix";
  EXPECT_EQ(solver.stats().decisions.value(), decisions);
  ASSERT_EQ(solver.solve({pos(vars[0])}), Result::kSat);
  EXPECT_EQ(solver.stats().propagations.value(), propagations);
}

TEST(Solver, MemoizedPrefixInvalidatedByNewClause) {
  // The memo must not survive database changes: adding a clause that
  // flips the verdict under the same assumptions has to take effect.
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause({neg(x), pos(y)});
  ASSERT_EQ(solver.solve({pos(x)}), Result::kSat);
  EXPECT_TRUE(solver.model_value(y));
  solver.add_clause({neg(x), neg(y)});
  EXPECT_EQ(solver.solve({pos(x)}), Result::kUnsat);
  EXPECT_EQ(solver.solve({neg(x)}), Result::kSat);
}

struct RandomCnf {
  std::size_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Small random CNF in the phase-transition-ish density band, with the
/// occasional unit and duplicate literal so normalization paths run too.
RandomCnf random_cnf(util::Rng& rng) {
  RandomCnf cnf;
  cnf.num_vars = rng.in_range(4, 14);
  const std::size_t num_clauses = rng.in_range(cnf.num_vars, 4 * cnf.num_vars);
  for (std::size_t i = 0; i < num_clauses; ++i) {
    const std::size_t width = rng.chance(0.06) ? 1 : rng.in_range(2, 4);
    std::vector<Lit> clause;
    for (std::size_t j = 0; j < width; ++j) {
      const Var var{static_cast<std::uint32_t>(rng.below(cnf.num_vars))};
      clause.push_back(rng.flip() ? pos(var) : neg(var));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool model_satisfies(const Solver& solver, const RandomCnf& cnf) {
  for (const std::vector<Lit>& clause : cnf.clauses) {
    bool satisfied = false;
    for (const Lit lit : clause)
      if (solver.model_value(lit)) {
        satisfied = true;
        break;
      }
    if (!satisfied) return false;
  }
  return true;
}

TEST(Solver, RandomCnfVerdictsAreCertified) {
  // 10k seeded CNFs: every SAT model is re-checked against every clause,
  // every UNSAT verdict is DRAT-certified, and each satisfiable instance
  // gets a second, incremental query under 1-3 random assumptions.
  std::uint64_t sat = 0, unsat = 0;
  for (std::uint64_t seed = 0; seed < 10'000; ++seed) {
    util::Rng rng(util::splitmix64(seed));
    const RandomCnf cnf = random_cnf(rng);
    Solver solver;
    check::Certifier certifier(solver);
    for (std::size_t i = 0; i < cnf.num_vars; ++i) solver.new_var();
    for (const std::vector<Lit>& clause : cnf.clauses) solver.add_clause(clause);

    const Result verdict = solver.solve();
    ASSERT_NE(verdict, Result::kUnknown) << "seed " << seed;
    (verdict == Result::kSat ? sat : unsat) += 1;
    if (verdict == Result::kSat) {
      EXPECT_TRUE(model_satisfies(solver, cnf)) << "seed " << seed;
    } else {
      EXPECT_TRUE(certifier.certify_unsat({})) << "seed " << seed;
    }

    if (verdict == Result::kSat && !solver.in_conflict()) {
      util::Rng assumption_rng(util::splitmix64(seed) ^ 0xa55);
      std::vector<Lit> assumptions;
      const std::size_t count = assumption_rng.in_range(1, 3);
      for (std::size_t i = 0; i < count; ++i) {
        const Var var{
            static_cast<std::uint32_t>(assumption_rng.below(cnf.num_vars))};
        assumptions.push_back(assumption_rng.flip() ? pos(var) : neg(var));
      }
      const Result verdict2 = solver.solve(assumptions);
      ASSERT_NE(verdict2, Result::kUnknown) << "assumption seed " << seed;
      if (verdict2 == Result::kSat) {
        EXPECT_TRUE(model_satisfies(solver, cnf)) << "assumption seed " << seed;
        for (const Lit lit : assumptions)
          EXPECT_TRUE(solver.model_value(lit)) << "assumption seed " << seed;
      } else {
        EXPECT_TRUE(certifier.certify_unsat(assumptions))
            << "assumption seed " << seed;
      }
    }
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
  // The density band must actually exercise both verdicts.
  EXPECT_GT(sat, 100u);
  EXPECT_GT(unsat, 100u);
}

}  // namespace
}  // namespace simgen::sat
