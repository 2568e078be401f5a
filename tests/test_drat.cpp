/// \file test_drat.cpp
/// \brief DRAT proof logging and the backward checker.
///
/// Covers the full certification loop: the solver logs a proof through
/// sat::ProofTracer, and check::DratChecker / check::Certifier verify the
/// UNSAT verdicts — including that mutated (corrupted) proofs are
/// rejected and that SAT runs produce no refutation. A property test
/// holds the checker, which keeps the unit closure of its trusted clauses
/// between checks, to a reference that rebuilds every check from nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "aig/aig_to_network.hpp"
#include "benchgen/generator.hpp"
#include "check/drat.hpp"
#include "mapping/lut_mapper.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "sweep/cec.hpp"
#include "util/rng.hpp"

namespace simgen {
namespace {

/// Pigeonhole formula PHP(pigeons, holes): pigeon p sits in some hole
/// (one clause per pigeon) and no two pigeons share a hole. UNSAT iff
/// pigeons > holes. Variable (p, h) = p * holes + h.
void add_pigeonhole(sat::Solver& solver, unsigned pigeons, unsigned holes) {
  std::vector<std::vector<sat::Var>> var(pigeons, std::vector<sat::Var>(holes));
  for (unsigned p = 0; p < pigeons; ++p)
    for (unsigned h = 0; h < holes; ++h) var[p][h] = solver.new_var();
  for (unsigned p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (unsigned h = 0; h < holes; ++h) clause.push_back(sat::pos(var[p][h]));
    solver.add_clause(clause);
  }
  for (unsigned h = 0; h < holes; ++h)
    for (unsigned p1 = 0; p1 + 1 < pigeons; ++p1)
      for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
        solver.add_clause({sat::neg(var[p1][h]), sat::neg(var[p2][h])});
}

TEST(Drat, PigeonholeRefutationCertifies) {
  sat::Solver solver;
  sat::ProofRecorder recorder;
  solver.set_proof_tracer(&recorder);
  add_pigeonhole(solver, 5, 4);
  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);
  EXPECT_TRUE(recorder.has_empty_lemma());

  check::DratStats stats;
  EXPECT_TRUE(check::check_recorded_proof(recorder.steps(), {}, &stats));
  EXPECT_GT(stats.lemmas.value(), 0u);
  EXPECT_GT(stats.checked_lemmas.value(), 0u);
  EXPECT_EQ(stats.failed_targets.value(), 0u);
}

TEST(Drat, SatInstanceLeavesNoRefutation) {
  sat::Solver solver;
  sat::ProofRecorder recorder;
  solver.set_proof_tracer(&recorder);
  add_pigeonhole(solver, 4, 4);  // As many holes as pigeons: satisfiable.
  ASSERT_EQ(solver.solve(), sat::Result::kSat);
  EXPECT_FALSE(recorder.has_empty_lemma());
  // The empty clause is not entailed, so certifying a refutation fails.
  EXPECT_FALSE(check::check_recorded_proof(recorder.steps(), {}));
}

TEST(Drat, MutatedProofIsRejected) {
  sat::Solver solver;
  sat::ProofRecorder recorder;
  solver.set_proof_tracer(&recorder);
  add_pigeonhole(solver, 5, 4);
  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);
  ASSERT_TRUE(check::check_recorded_proof(recorder.steps(), {}));

  // Flipping one literal of a derived lemma must break some RUP check:
  // either the lemma itself or a later step depending on the original.
  // (Some flips happen to remain derivable; require that at least one
  // mutation of some nonempty lemma is caught.)
  bool some_mutation_rejected = false;
  const std::vector<sat::ProofStep> pristine = recorder.steps();
  for (std::size_t i = 0; i < pristine.size() && !some_mutation_rejected; ++i) {
    if (pristine[i].kind != sat::ProofStep::Kind::kLemma) continue;
    if (pristine[i].clause.empty()) continue;
    std::vector<sat::ProofStep> mutated = pristine;
    mutated[i].clause[0] = ~mutated[i].clause[0];
    some_mutation_rejected = !check::check_recorded_proof(mutated, {});
  }
  EXPECT_TRUE(some_mutation_rejected);
}

TEST(Drat, DroppedLemmasAreRejected) {
  sat::Solver solver;
  sat::ProofRecorder recorder;
  solver.set_proof_tracer(&recorder);
  add_pigeonhole(solver, 5, 4);
  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);

  // With every derivation stripped, only the axioms remain — PHP has no
  // unit clauses, so the empty clause is not one propagation away and
  // the refutation cannot be certified.
  std::vector<sat::ProofStep> axioms_only;
  for (const sat::ProofStep& step : recorder.steps())
    if (step.kind == sat::ProofStep::Kind::kAxiom) axioms_only.push_back(step);
  ASSERT_LT(axioms_only.size(), recorder.steps().size());
  EXPECT_FALSE(check::check_recorded_proof(axioms_only, {}));

  // Dropping a single load-bearing lemma must also break the check:
  // some later lemma (or the final conflict) is no longer one
  // propagation pass away. Not every lemma is load-bearing, so require
  // at least one drop to be caught.
  bool some_drop_rejected = false;
  const std::vector<sat::ProofStep>& pristine = recorder.steps();
  for (std::size_t i = 0; i < pristine.size() && !some_drop_rejected; ++i) {
    if (pristine[i].kind != sat::ProofStep::Kind::kLemma) continue;
    if (pristine[i].clause.empty()) continue;
    std::vector<sat::ProofStep> truncated;
    for (std::size_t j = 0; j < pristine.size(); ++j)
      if (j != i) truncated.push_back(pristine[j]);
    some_drop_rejected = !check::check_recorded_proof(truncated, {});
  }
  EXPECT_TRUE(some_drop_rejected);
}

TEST(Drat, BogusDeletionMarksProofCorrupt) {
  sat::Solver solver;
  sat::ProofRecorder recorder;
  solver.set_proof_tracer(&recorder);
  add_pigeonhole(solver, 5, 4);
  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);

  // Deleting a clause that was never added is an inconsistent stream.
  std::vector<sat::ProofStep> mutated;
  mutated.push_back({sat::ProofStep::Kind::kDelete, {sat::pos(sat::Var{0}), sat::pos(sat::Var{1})}});
  mutated.insert(mutated.end(), recorder.steps().begin(),
                 recorder.steps().end());
  EXPECT_FALSE(check::check_recorded_proof(mutated, {}));
}

// Regression (fuzz-found, tests/repros/drat_clause_permutation.blif):
// RUP propagation permutes stored clauses in place to maintain the watch
// invariant, so by deletion time a clause's literal order no longer
// matches its normalized (sorted) form. Deletion used an exact vector
// compare and an order-dependent hash, failed to find the permuted
// clause, and marked sound proofs corrupt — which only fired on
// instances big enough to trigger the solver's learnt-clause reduction.
TEST(Drat, DeletionRecognizesPropagationPermutedClauses) {
  check::DratChecker checker;
  const sat::Var a{0}, b{1}, c{2}, d{3};
  const sat::Lit big[] = {sat::pos(a), sat::pos(b), sat::pos(c), sat::pos(d)};
  const sat::Lit not_a[] = {sat::neg(a)};
  const sat::Lit not_b[] = {sat::neg(b)};
  checker.add_axiom(big);
  checker.add_axiom(not_a);
  checker.add_axiom(not_b);

  // Certifying {c, d} runs RUP with ~c, ~d asserted: propagating ~a
  // visits the 4-clause through its watch on `a` and swaps literals to
  // restore the watch invariant, leaving the stored clause permuted.
  const sat::Lit target[] = {sat::pos(c), sat::pos(d)};
  EXPECT_TRUE(checker.certify(target));

  // The deletion names the clause in a (re-)normalized order; it must
  // still be recognized against the permuted stored copy.
  const sat::Lit del[] = {sat::pos(d), sat::pos(c), sat::pos(b), sat::pos(a)};
  checker.delete_clause(del);

  // A corrupt checker refuses every later target; a healthy one still
  // certifies what the remaining units entail.
  EXPECT_TRUE(checker.certify(not_a));
  EXPECT_EQ(checker.stats().failed_targets.value(), 0u);
}

TEST(Drat, AssumptionUnsatCertifiesNegatedAssumptions) {
  // x & (x -> y) & (y -> z); assuming ~z is UNSAT, and the checker can
  // certify the clause (z) — the negated assumption.
  sat::Solver solver;
  check::Certifier certifier(solver);
  const sat::Var x = solver.new_var();
  const sat::Var y = solver.new_var();
  const sat::Var z = solver.new_var();
  solver.add_clause({sat::pos(x)});
  solver.add_clause({sat::neg(x), sat::pos(y)});
  solver.add_clause({sat::neg(y), sat::pos(z)});

  const sat::Lit assumption = sat::neg(z);
  ASSERT_EQ(solver.solve({assumption}), sat::Result::kUnsat);
  EXPECT_TRUE(certifier.certify_unsat({&assumption, 1}));
  EXPECT_EQ(certifier.stats().certified_targets.value(), 1u);
  EXPECT_EQ(certifier.stats().failed_targets.value(), 0u);
}

TEST(Drat, CertifierRejectsUnentailedTarget) {
  // A formula with no constraints between a and b cannot certify (~a).
  sat::Solver solver;
  check::Certifier certifier(solver);
  const sat::Var a = solver.new_var();
  const sat::Var b = solver.new_var();
  solver.add_clause({sat::pos(a), sat::pos(b)});
  const sat::Lit assumption = sat::pos(a);
  EXPECT_FALSE(certifier.certify_unsat({&assumption, 1}));
  EXPECT_EQ(certifier.stats().failed_targets.value(), 1u);
}

TEST(Drat, FailedLemmaIsNeverTrustedLater) {
  // Lemma (x1) does not follow from axiom (x1 | x2). Whether the lemma's
  // own check fails or the target fails first, a later certify() must
  // not rest on the lemma.
  const sat::Lit x1 = sat::pos(sat::Var{0});
  const sat::Lit x2 = sat::pos(sat::Var{1});
  const sat::Lit x3 = sat::pos(sat::Var{2});
  const sat::Lit axiom[] = {x1, x2};
  const sat::Lit lemma[] = {x1};
  const sat::Lit other[] = {x3};
  {
    // The target (x1) holds given the lemma; the lemma does not.
    check::DratChecker checker;
    checker.add_axiom(axiom);
    checker.add_lemma(lemma);
    EXPECT_FALSE(checker.certify(lemma));
    EXPECT_FALSE(checker.certify(lemma));
    EXPECT_EQ(checker.stats().certified_targets.value(), 0u);
  }
  {
    // The target (x3) fails before any lemma is checked.
    check::DratChecker checker;
    checker.add_axiom(axiom);
    checker.add_lemma(lemma);
    EXPECT_FALSE(checker.certify(other));
    EXPECT_FALSE(checker.certify(lemma));
    EXPECT_EQ(checker.stats().certified_targets.value(), 0u);
  }
}

TEST(Drat, IncrementalCertificationAcrossSolveCalls) {
  // The sweeping pattern: many solve(assumptions) calls against one
  // growing formula, each UNSAT certified incrementally. Chain
  // implications x0 -> x1 -> ... -> xn and refute ~xn under x0 at each
  // prefix length.
  sat::Solver solver;
  check::Certifier certifier(solver);
  constexpr unsigned kChain = 20;
  std::vector<sat::Var> vars;
  for (unsigned i = 0; i <= kChain; ++i) vars.push_back(solver.new_var());
  for (unsigned i = 0; i < kChain; ++i) {
    solver.add_clause({sat::neg(vars[i]), sat::pos(vars[i + 1])});
    const sat::Lit assumptions[2] = {sat::pos(vars[0]), sat::neg(vars[i + 1])};
    ASSERT_EQ(solver.solve({assumptions[0], assumptions[1]}),
              sat::Result::kUnsat)
        << "chain length " << i;
    EXPECT_TRUE(certifier.certify_unsat({assumptions, 2}));
  }
  EXPECT_EQ(certifier.stats().certified_targets.value(), kChain);
  EXPECT_EQ(certifier.stats().failed_targets.value(), 0u);
}

TEST(Drat, CertifiedCecProvesEveryUnsatVerdict) {
  // End-to-end: a mapped circuit against its direct AIG translation,
  // with every UNSAT verdict (merges + output proofs) certified.
  benchgen::CircuitSpec spec;
  spec.name = "drat_cec";
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.num_gates = 120;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network mapped = mapping::map_to_luts(graph);
  const net::Network direct = aig::to_network(graph);

  sweep::CecOptions options;
  options.certify = true;
  const sweep::CecResult result =
      sweep::check_equivalence(mapped, direct, options);
  EXPECT_TRUE(result.equivalent);
  EXPECT_EQ(result.certified_outputs, result.outputs_proven);
  EXPECT_EQ(result.sweep_stats.certified_unsat,
            result.sweep_stats.proven_equivalent);
}

TEST(Drat, RecorderWritesDratAndDimacs) {
  sat::Solver solver;
  sat::ProofRecorder recorder;
  solver.set_proof_tracer(&recorder);
  add_pigeonhole(solver, 4, 3);
  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);

  std::ostringstream dimacs;
  recorder.write_dimacs(dimacs);
  EXPECT_NE(dimacs.str().find("p cnf "), std::string::npos);

  std::ostringstream drat;
  recorder.write_drat(drat);
  // The refutation must end in the empty clause: a line holding just "0".
  EXPECT_NE(drat.str().find("0\n"), std::string::npos);
  const std::string text = drat.str();
  const std::size_t last_line = text.rfind('\n', text.size() - 2);
  EXPECT_EQ(text.substr(last_line + 1), "0\n");
}

// ---------------------------------------------------------------------------
// The checker against a from-scratch reference.

/// One event of a checker's input: a proof step, or a certify() call
/// with its target clause.
struct Event {
  enum class Kind : std::uint8_t { kAxiom, kLemma, kDelete, kCertify };
  Kind kind = Kind::kAxiom;
  std::vector<sat::Lit> clause;
};

/// The situations that keeping a root makes delicate, counted by the
/// reference as they occur.
struct Coverage {
  /// Deletions of a trusted clause that shrink the trusted closure.
  std::uint64_t deleted_root_reasons = 0;
  /// Lemma checks that pass only with a clause the backward pass restored.
  std::uint64_t restored_deletions_used = 0;
  /// Pending clauses of two or more literals that are unit under the
  /// trusted closure, counted per RUP check.
  std::uint64_t pending_units = 0;
  /// RUP checks whose trusted clauses refute by propagation alone.
  std::uint64_t root_conflicts = 0;

  Coverage& operator+=(const Coverage& other) {
    deleted_root_reasons += other.deleted_root_reasons;
    restored_deletions_used += other.restored_deletions_used;
    pending_units += other.pending_units;
    root_conflicts += other.root_conflicts;
    return *this;
  }
};

/// The backward checker with no state between RUP checks: every check
/// starts from an empty assignment, re-seeds every active unit and
/// propagates by scanning all active clauses until nothing changes. The
/// stream semantics are check::DratChecker's: a journal of pending steps,
/// a backward pass that checks every lemma against the database it was
/// derived from, whether or not the target passed, and a commit of the
/// pending steps after each certify(). A failed lemma fails every later
/// certify().
class ReferenceChecker {
 public:
  void add_axiom(std::span<const sat::Lit> clause) { add(Event::Kind::kAxiom, clause); }
  void add_lemma(std::span<const sat::Lit> clause) { add(Event::Kind::kLemma, clause); }

  void delete_clause(std::span<const sat::Lit> clause) {
    bool tautology = false;
    const std::vector<sat::Lit> lits = normalize(clause, tautology);
    for (std::size_t id = 0; id < db_.size(); ++id) {
      Clause& stored = db_[id];
      if (!stored.active || stored.lits != lits) continue;
      Assignment before = empty_assignment();
      const bool consistent = propagate(before, /*trusted_only=*/true);
      stored.active = false;
      if (stored.trusted && consistent) {
        Assignment after = empty_assignment();
        propagate(after, /*trusted_only=*/true);
        if (after != before) ++coverage_.deleted_root_reasons;
      }
      journal_.emplace_back(Event::Kind::kDelete, id);
      return;
    }
    corrupt_ = true;
  }

  bool certify(std::span<const sat::Lit> target) {
    if (corrupt_) return false;
    bool tautology = false;
    const std::vector<sat::Lit> target_lits = normalize(target, tautology);
    const bool target_ok = tautology || rup(target_lits);

    std::vector<std::size_t> restored;
    for (std::size_t i = journal_.size(); i-- > 0;) {
      const auto [kind, id] = journal_[i];
      Clause& clause = db_[id];
      if (kind == Event::Kind::kDelete) {
        clause.active = true;
        restored.push_back(id);
        continue;
      }
      clause.active = false;
      if (kind == Event::Kind::kLemma && !clause.tautology && !corrupt_) {
        corrupt_ = !rup(clause.lits);
        if (!corrupt_) count_restored_use(restored, clause.lits);
      }
    }
    for (const auto& [kind, id] : journal_)
      db_[id].active = kind != Event::Kind::kDelete && !db_[id].tautology;
    for (const auto& [kind, id] : journal_)
      if (kind != Event::Kind::kDelete) db_[id].trusted = true;
    journal_.clear();
    return target_ok && !corrupt_;
  }

  [[nodiscard]] std::uint64_t rup_checks() const { return rup_checks_; }
  [[nodiscard]] const Coverage& coverage() const { return coverage_; }

 private:
  struct Clause {
    std::vector<sat::Lit> lits;  ///< Sorted by code, duplicate-free.
    bool tautology = false;
    bool active = false;
    bool trusted = false;
  };
  /// Per variable: 0 unassigned, +1 true, -1 false.
  using Assignment = std::vector<int>;

  static std::vector<sat::Lit> normalize(std::span<const sat::Lit> clause,
                                         bool& tautology) {
    std::vector<sat::Lit> lits(clause.begin(), clause.end());
    std::sort(lits.begin(), lits.end(),
              [](sat::Lit x, sat::Lit y) { return x.code() < y.code(); });
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    tautology = false;
    for (std::size_t i = 1; i < lits.size(); ++i)
      if (lits[i] == ~lits[i - 1]) tautology = true;
    return lits;
  }

  void add(Event::Kind kind, std::span<const sat::Lit> clause) {
    bool tautology = false;
    std::vector<sat::Lit> lits = normalize(clause, tautology);
    grow(lits);
    journal_.emplace_back(kind, db_.size());
    db_.push_back({std::move(lits), tautology, !tautology, false});
  }

  void grow(std::span<const sat::Lit> lits) {
    for (const sat::Lit lit : lits)
      num_vars_ = std::max<std::size_t>(num_vars_, lit.var() + 1);
  }

  [[nodiscard]] Assignment empty_assignment() const { return Assignment(num_vars_, 0); }

  static int value(const Assignment& assignment, sat::Lit lit) {
    const int v = assignment[lit.var()];
    return lit.negated() ? -v : v;
  }
  static void set_true(Assignment& assignment, sat::Lit lit) {
    assignment[lit.var()] = lit.negated() ? -1 : 1;
  }

  /// Unit propagation over the active clauses (the trusted ones only if
  /// \p trusted_only) by full scans to a fixpoint; false on a conflict.
  bool propagate(Assignment& assignment, bool trusted_only) const {
    for (bool changed = true; changed;) {
      changed = false;
      for (const Clause& clause : db_) {
        if (!clause.active || (trusted_only && !clause.trusted)) continue;
        sat::Lit open;
        std::size_t num_open = 0;
        bool satisfied = false;
        for (const sat::Lit lit : clause.lits) {
          const int v = value(assignment, lit);
          satisfied = satisfied || v > 0;
          if (v == 0) {
            open = lit;
            ++num_open;
          }
        }
        if (satisfied || num_open > 1) continue;
        if (num_open == 0) return false;
        set_true(assignment, open);
        changed = true;
      }
    }
    return true;
  }

  /// True iff asserting the negation of \p lits propagates to a conflict.
  [[nodiscard]] bool entails(std::span<const sat::Lit> lits) const {
    Assignment assignment = empty_assignment();
    for (const sat::Lit lit : lits) {
      if (value(assignment, lit) > 0) return true;
      set_true(assignment, ~lit);
    }
    return !propagate(assignment, /*trusted_only=*/false);
  }

  bool rup(std::span<const sat::Lit> lits) {
    ++rup_checks_;
    grow(lits);
    Assignment root = empty_assignment();
    if (!propagate(root, /*trusted_only=*/true)) {
      ++coverage_.root_conflicts;
    } else {
      for (const Clause& clause : db_) {
        if (!clause.active || clause.trusted || clause.lits.size() < 2) continue;
        std::size_t not_false = 0;
        bool open = false;
        for (const sat::Lit lit : clause.lits) {
          const int v = value(root, lit);
          not_false += v >= 0 ? 1 : 0;
          open = open || v == 0;
        }
        if (not_false == 1 && open) ++coverage_.pending_units;
      }
    }
    return entails(lits);
  }

  /// After lemma \p lits passed with the clauses in \p restored brought
  /// back by the backward pass, checks whether it needed them.
  void count_restored_use(std::span<const std::size_t> restored,
                          std::span<const sat::Lit> lits) {
    std::vector<std::size_t> live;
    for (const std::size_t id : restored)
      if (db_[id].active) live.push_back(id);
    if (live.empty()) return;
    for (const std::size_t id : live) db_[id].active = false;
    if (!entails(lits)) ++coverage_.restored_deletions_used;
    for (const std::size_t id : live) db_[id].active = true;
  }

  std::vector<Clause> db_;
  std::vector<std::pair<Event::Kind, std::size_t>> journal_;
  std::size_t num_vars_ = 0;
  bool corrupt_ = false;
  std::uint64_t rup_checks_ = 0;
  Coverage coverage_;
};

/// Feeds one event stream to a check::DratChecker and to the reference,
/// records it, and expects every certify() verdict to agree.
class TwinCheckers final : public sat::ProofTracer {
 public:
  void on_axiom(std::span<const sat::Lit> clause) override {
    record(Event::Kind::kAxiom, clause);
    checker_.add_axiom(clause);
    reference_.add_axiom(clause);
  }
  void on_lemma(std::span<const sat::Lit> clause) override {
    record(Event::Kind::kLemma, clause);
    checker_.add_lemma(clause);
    reference_.add_lemma(clause);
  }
  void on_delete(std::span<const sat::Lit> clause) override {
    record(Event::Kind::kDelete, clause);
    checker_.delete_clause(clause);
    reference_.delete_clause(clause);
  }

  bool certify(std::span<const sat::Lit> target) {
    record(Event::Kind::kCertify, target);
    ++certify_calls_;
    const bool verdict = checker_.certify(target);
    EXPECT_EQ(verdict, reference_.certify(target))
        << "certify() call " << certify_calls_ << " of the stream";
    return verdict;
  }

  // Hand-written streams.
  void axiom(std::initializer_list<sat::Lit> clause) { on_axiom({clause.begin(), clause.size()}); }
  void lemma(std::initializer_list<sat::Lit> clause) { on_lemma({clause.begin(), clause.size()}); }
  void remove(std::initializer_list<sat::Lit> clause) { on_delete({clause.begin(), clause.size()}); }
  bool certify(std::initializer_list<sat::Lit> target) {
    return certify(std::span<const sat::Lit>(target.begin(), target.size()));
  }

  void replay(const std::vector<Event>& events) {
    for (const Event& event : events) {
      switch (event.kind) {
        case Event::Kind::kAxiom: on_axiom(event.clause); break;
        case Event::Kind::kLemma: on_lemma(event.clause); break;
        case Event::Kind::kDelete: on_delete(event.clause); break;
        case Event::Kind::kCertify: (void)certify(event.clause); break;
      }
    }
  }

  /// Checks that both checkers ran the same RUP checks, and returns what
  /// the stream covered.
  Coverage finish() const {
    EXPECT_EQ(checker_.stats().rup_checks.value(), reference_.rup_checks());
    return reference_.coverage();
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

 private:
  void record(Event::Kind kind, std::span<const sat::Lit> clause) {
    events_.push_back({kind, {clause.begin(), clause.end()}});
  }

  check::DratChecker checker_;
  ReferenceChecker reference_;
  std::vector<Event> events_;
  std::uint64_t certify_calls_ = 0;
};

/// A random CNF over 6-16 variables, grown in rounds and solved under
/// random assumptions after each round; both checkers certify every UNSAT
/// answer. Returns the event stream.
std::vector<Event> solve_incrementally(std::uint64_t seed, Coverage& coverage) {
  util::Rng rng(util::splitmix64(seed + 0xd7a7));
  TwinCheckers twin;
  sat::Solver solver;
  solver.set_proof_tracer(&twin);
  std::vector<sat::Var> vars(rng.in_range(6, 16));
  for (sat::Var& var : vars) var = solver.new_var();
  const auto random_lit = [&] {
    return sat::Lit(vars[rng.below(vars.size())], rng.flip());
  };
  const std::uint64_t rounds = rng.in_range(4, 10);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const std::uint64_t clauses = rng.in_range(vars.size() / 4, vars.size() / 2);
    for (std::uint64_t c = 0; c < clauses; ++c) {
      std::vector<sat::Lit> clause(rng.chance(0.05) ? 1 : rng.in_range(2, 3));
      for (sat::Lit& lit : clause) lit = random_lit();
      solver.add_clause(clause);
    }
    for (int query = 0; query < 3; ++query) {
      std::vector<sat::Lit> assumptions(rng.in_range(1, 4));
      for (sat::Lit& lit : assumptions) lit = random_lit();
      if (solver.solve(assumptions) != sat::Result::kUnsat) continue;
      std::vector<sat::Lit> target;
      for (const sat::Lit lit : assumptions) target.push_back(~lit);
      EXPECT_TRUE(twin.certify(target));
    }
  }
  solver.set_proof_tracer(nullptr);
  coverage += twin.finish();
  return twin.events();
}

/// \p events with one mutation: 0 flips a literal of a random nonempty
/// lemma, 1 drops a random lemma, 2 deletes three random added clauses,
/// each at a random later point. Returns the stream unchanged if it has
/// no candidate step.
std::vector<Event> mutate(std::vector<Event> events, int mutation, util::Rng& rng) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    const bool lemma = event.kind == Event::Kind::kLemma;
    if ((mutation == 0 && lemma && !event.clause.empty()) ||
        (mutation == 1 && lemma) ||
        (mutation == 2 && (lemma || event.kind == Event::Kind::kAxiom)))
      candidates.push_back(i);
  }
  if (candidates.empty()) return events;
  const std::size_t at = candidates[rng.below(candidates.size())];
  if (mutation == 0) {
    sat::Lit& lit = events[at].clause[rng.below(events[at].clause.size())];
    lit = ~lit;
  } else if (mutation == 1) {
    events.erase(events.begin() + static_cast<std::ptrdiff_t>(at));
  } else {
    for (int k = 0; k < 3; ++k) {
      const std::size_t added = candidates[rng.below(candidates.size())];
      const std::size_t where = rng.in_range(added + 1, events.size());
      Event deletion{Event::Kind::kDelete, events[added].clause};
      events.insert(events.begin() + static_cast<std::ptrdiff_t>(where),
                    std::move(deletion));
      for (std::size_t& candidate : candidates) candidate += candidate >= where ? 1 : 0;
    }
  }
  return events;
}

TEST(DratReference, AgreesOnSolverStreamsAndTheirMutations) {
  Coverage solved;
  Coverage mutated;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE(::testing::Message() << "instance " << seed);
    const std::vector<Event> events = solve_incrementally(seed, solved);
    util::Rng rng(util::splitmix64(seed ^ 0x3b1d));
    for (int mutation = 0; mutation < 3; ++mutation) {
      SCOPED_TRACE(::testing::Message() << "mutation " << mutation);
      TwinCheckers twin;
      twin.replay(mutate(events, mutation, rng));
      mutated += twin.finish();
    }
  }
  // The solver streams reach a root that pending clauses are unit under;
  // the inserted deletions reach the rest.
  EXPECT_GT(solved.pending_units, 0u);
  EXPECT_GT(mutated.deleted_root_reasons, 0u);
  EXPECT_GT(mutated.restored_deletions_used, 0u);
  EXPECT_GT(mutated.root_conflicts, 0u);
}

TEST(DratReference, HandWrittenStreamsReachEveryRootCase) {
  const sat::Var a{0}, b{1}, c{2}, d{3};
  Coverage coverage;
  {
    // A deleted trusted clause was the reason for root literal b: once it
    // is gone, b is no longer entailed.
    TwinCheckers twin;
    twin.axiom({sat::pos(a)});
    twin.axiom({sat::neg(a), sat::pos(b)});
    EXPECT_TRUE(twin.certify({sat::pos(b)}));
    twin.remove({sat::neg(a), sat::pos(b)});
    EXPECT_FALSE(twin.certify({sat::pos(b)}));
    EXPECT_TRUE(twin.certify({sat::pos(a), sat::pos(c)}));
    coverage += twin.finish();
  }
  {
    // Lemma (~a | c) is derived from two trusted clauses, one of which is
    // deleted before the next certify(): the backward pass restores it,
    // so the lemma still passes, and afterwards it stays deleted.
    TwinCheckers twin;
    twin.axiom({sat::neg(a), sat::pos(b)});
    twin.axiom({sat::neg(b), sat::pos(c)});
    EXPECT_TRUE(twin.certify({sat::neg(a), sat::pos(b)}));
    twin.lemma({sat::neg(a), sat::pos(c)});
    twin.remove({sat::neg(b), sat::pos(c)});
    EXPECT_TRUE(twin.certify({sat::neg(a), sat::pos(c)}));
    EXPECT_FALSE(twin.certify({sat::neg(b), sat::pos(c)}));
    coverage += twin.finish();
  }
  {
    // Both at once: lemma (b) rests on the trusted reason (~a | b), which
    // is deleted; restored by the backward pass it is unit under the
    // shrunken root {a}.
    TwinCheckers twin;
    twin.axiom({sat::pos(a)});
    twin.axiom({sat::neg(a), sat::pos(b)});
    EXPECT_TRUE(twin.certify({sat::pos(a)}));
    twin.lemma({sat::pos(b)});
    twin.remove({sat::neg(a), sat::pos(b)});
    EXPECT_TRUE(twin.certify({sat::pos(b)}));
    EXPECT_TRUE(twin.certify({sat::pos(b), sat::pos(d)}));
    coverage += twin.finish();
  }
  {
    // Pending clauses that the root makes unit, one of them needed to
    // refute the target.
    TwinCheckers twin;
    twin.axiom({sat::pos(a)});
    EXPECT_TRUE(twin.certify({sat::pos(a)}));
    twin.axiom({sat::neg(a), sat::pos(b)});
    twin.axiom({sat::neg(a), sat::neg(b), sat::pos(c)});
    EXPECT_TRUE(twin.certify({sat::pos(c)}));
    EXPECT_FALSE(twin.certify({sat::pos(d)}));
    coverage += twin.finish();
  }
  {
    // Trusted clauses that refute by propagation certify everything,
    // until a deletion breaks the refutation.
    TwinCheckers twin;
    twin.axiom({sat::pos(c)});
    twin.axiom({sat::neg(c), sat::pos(d)});
    twin.axiom({sat::neg(d)});
    EXPECT_TRUE(twin.certify({sat::pos(a)}));
    EXPECT_TRUE(twin.certify({sat::pos(b)}));
    twin.remove({sat::neg(d)});
    EXPECT_FALSE(twin.certify({sat::pos(b)}));
    EXPECT_TRUE(twin.certify({sat::pos(d)}));
    coverage += twin.finish();
  }
  EXPECT_GT(coverage.deleted_root_reasons, 0u);
  EXPECT_GT(coverage.restored_deletions_used, 0u);
  EXPECT_GT(coverage.pending_units, 0u);
  EXPECT_GT(coverage.root_conflicts, 0u);
}

}  // namespace
}  // namespace simgen
