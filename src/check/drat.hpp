/// \file drat.hpp
/// \brief Backward DRAT proof checking for the CDCL solver's answers.
///
/// SAT sweeping merges equivalence classes and proves miter outputs on
/// the strength of UNSAT verdicts alone; a single bad learned clause
/// would silently equate two inequivalent circuits. This module makes
/// every UNSAT answer independently checkable: the solver logs its
/// clause derivations through sat::ProofTracer (a DRAT proof), and the
/// DratChecker re-verifies each derived clause by reverse unit
/// propagation (RUP) against the axioms and earlier derivations — a
/// small, simple trusted core that shares no reasoning code with the
/// solver.
///
/// Checking is *backward*, in the drat-trim style: the target clause is
/// verified against the final database first, then the proof is walked
/// in reverse, undoing each step so every lemma is verified against the
/// exact clause database it was derived from. Unlike drat-trim we do not
/// skip unmarked lemmas: certified derivations are committed as trusted
/// axioms for later incremental calls (checkpointing), so each lemma
/// must be verified exactly once — which also keeps the certification
/// cost of a whole sweeping run linear in the total proof size rather
/// than quadratic in the number of SAT calls.
///
/// Like drat-trim, the checker keeps top-level propagation between
/// checks. The *root* is the unit-propagation closure of the trusted
/// clauses (those committed by an earlier certify()), held at the bottom
/// of the trail. A RUP check asserts only the negated clause and the
/// pending clauses that are unit under the root, propagates, and undoes
/// back to the root. Pending clauses never extend the root: each is
/// attached with two watches not false under it, or, with fewer such
/// literals, listed as a *seed* that every check asserts explicitly.
/// certify() extends the root with the clauses it commits; deleting a
/// trusted clause makes the root stale, and it is rebuilt from the
/// trusted units before the next check.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace simgen::check {

/// Counters of the certification work performed. Registry-backed view
/// ("drat.*" metrics, see src/obs/metrics.hpp); copies are detached
/// value snapshots.
struct DratStats {
  DratStats() = default;  ///< Detached (all zeros, unregistered).
  explicit DratStats(obs::register_t);

  obs::Counter axioms;            ///< Caller-added clauses mirrored in.
  obs::Counter lemmas;            ///< Solver-derived clauses mirrored in.
  obs::Counter deletions;         ///< Deletion events mirrored in.
  obs::Counter certified_targets; ///< Successful certify() calls.
  obs::Counter failed_targets;    ///< Failed certify() calls.
  obs::Counter checked_lemmas;    ///< Lemmas RUP-verified.
  obs::Counter skipped_lemmas;    ///< Trivial lemmas (tautologies).
  obs::Counter checkpointed_lemmas; ///< Lemmas committed as trusted axioms.
  obs::Counter rup_checks;        ///< Individual RUP derivations run.
  obs::Counter propagations;      ///< Literals propagated: root upkeep and checks.
};

/// Clause database + RUP engine + backward proof checker.
///
/// Feed the solver's event stream through add_axiom / add_lemma /
/// delete_clause (the Certifier below does this automatically), then
/// call certify(target) after each UNSAT verdict with the clause the
/// verdict claims — the negated assumptions, or empty for an outright
/// refutation.
class DratChecker {
 public:
  DratChecker();

  void add_axiom(std::span<const sat::Lit> clause);
  void add_lemma(std::span<const sat::Lit> clause);
  void delete_clause(std::span<const sat::Lit> clause);

  /// Verifies that \p target is entailed by the axioms: checks the
  /// target clause is RUP over the current database, then backward-checks
  /// every pending lemma, whether or not the target passed. The pending
  /// derivations then become trusted, and later certify() calls only
  /// examine newer lemmas. Returns false if any RUP check fails or the
  /// event stream was inconsistent (e.g. a deletion of an unknown clause
  /// — a corrupted proof). A failed lemma, like an inconsistent stream,
  /// fails every later call too; a target that fails alone leaves the
  /// checker usable, since every lemma it commits was checked.
  [[nodiscard]] bool certify(std::span<const sat::Lit> target);

  [[nodiscard]] const DratStats& stats() const noexcept { return stats_; }

  /// Number of not-yet-certified derivation steps.
  [[nodiscard]] std::size_t pending_steps() const noexcept {
    return journal_.size();
  }

 private:
  using ClauseId = std::uint32_t;
  static constexpr ClauseId kNoClause = ~ClauseId{0};

  struct Clause {
    std::vector<sat::Lit> lits;  ///< Duplicate-free; watches at [0] and [1].
    bool active = false;
    bool tautology = false;   ///< Never activated; trivially redundant.
    bool trusted = false;     ///< Committed by certify(); feeds the root.
  };

  struct JournalEntry {
    enum class Kind : std::uint8_t { kAxiom, kLemma, kDelete };
    Kind kind;
    ClauseId clause;
  };

  /// Truth value of a literal under the scratch assignment.
  enum class LValue : std::int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  [[nodiscard]] static std::vector<sat::Lit> normalize(
      std::span<const sat::Lit> clause, bool& tautology);
  [[nodiscard]] static std::uint64_t hash_lits(std::span<const sat::Lit> lits);
  /// Permutation-insensitive equality of a stored clause against a
  /// normalized (sorted, duplicate-free) literal list.
  [[nodiscard]] static bool same_clause(std::span<const sat::Lit> stored,
                                        std::span<const sat::Lit> sorted_lits);

  ClauseId store(std::span<const sat::Lit> clause);
  void activate(ClauseId id);
  void deactivate(ClauseId id);
  /// Moves up to two literals that are not false under the root to the
  /// watch positions and watches them; a clause left with fewer is a
  /// seed, its one such literal (if any) at lits[0].
  void attach(ClauseId id);
  void detach(ClauseId id);
  void ensure_var(sat::Var var);

  [[nodiscard]] LValue lit_value(sat::Lit lit) const;
  /// Asserts \p lit true; false on conflict with the current assignment.
  bool assign(sat::Lit lit);
  /// Asserts every active seed's lits[0]; true iff one is false, which
  /// (all its other literals being false under the root) is a conflict.
  bool assign_seeds();
  /// Unit-propagates to fixpoint; true iff a conflict was reached.
  bool propagate_to_conflict();
  /// RUP check of \p lits against the active clauses: assert the
  /// negation over the root, propagate, demand a conflict. The
  /// assignment is undone to the root before returning.
  [[nodiscard]] bool rup(std::span<const sat::Lit> lits);
  void undo_to_root();
  /// Rebuilds the root from the active trusted units with the pending
  /// clauses detached, then attaches them against the new root.
  void recompute_root();
  /// Makes the pending additions trusted and extends the root over them.
  void commit();

  std::vector<Clause> db_;
  std::unordered_multimap<std::uint64_t, ClauseId> index_;  ///< Active only.
  std::vector<std::vector<ClauseId>> watches_;  ///< By literal code.
  /// Trusted unit clauses, each listed once; deleted ones are skipped,
  /// and dropped at the next commit.
  std::vector<ClauseId> units_;
  /// Pending clauses attached as seeds; inactive entries are skipped.
  std::vector<ClauseId> seeds_;
  std::size_t empty_active_ = 0;
  bool corrupt_ = false;  ///< A bad deletion or a failed lemma was seen.

  std::vector<JournalEntry> journal_;  ///< Pending, already applied to db_.

  // The assignment: the root at trail_[0, root_size_), then the literals
  // of the RUP check in progress.
  std::vector<LValue> values_;  // per var
  std::vector<sat::Lit> trail_;
  std::size_t propagate_head_ = 0;
  std::size_t root_size_ = 0;
  bool root_conflict_ = false;  ///< The trusted clauses refute by propagation.
  bool root_stale_ = false;     ///< A trusted clause was deleted since.

  DratStats stats_{obs::kRegister};
};

/// Hooks a Solver up to a DratChecker and certifies its UNSAT answers.
///
/// Construct it before loading clauses; after every Result::kUnsat from
/// Solver::solve(assumptions), call certify_unsat(assumptions). The
/// destructor detaches from the solver.
class Certifier final : public sat::ProofTracer {
 public:
  explicit Certifier(sat::Solver& solver) : solver_(&solver) {
    solver.set_proof_tracer(this);
  }
  ~Certifier() override {
    if (solver_ && solver_->proof_tracer() == this)
      solver_->set_proof_tracer(nullptr);
  }
  Certifier(const Certifier&) = delete;
  Certifier& operator=(const Certifier&) = delete;

  void on_axiom(std::span<const sat::Lit> clause) override {
    checker_.add_axiom(clause);
  }
  void on_lemma(std::span<const sat::Lit> clause) override {
    checker_.add_lemma(clause);
  }
  void on_delete(std::span<const sat::Lit> clause) override {
    checker_.delete_clause(clause);
  }

  /// Certifies the solver's last UNSAT answer under \p assumptions by
  /// checking the clause (~a1 | ... | ~an) — the empty clause when no
  /// assumptions were used — against the logged proof.
  [[nodiscard]] bool certify_unsat(std::span<const sat::Lit> assumptions);

  [[nodiscard]] const DratStats& stats() const noexcept {
    return checker_.stats();
  }

 private:
  sat::Solver* solver_;
  DratChecker checker_;
};

/// Replays a recorded proof transcript (see sat::ProofRecorder) and
/// certifies \p target against it — the standalone, non-incremental entry
/// point used by tests and external-proof checking. An empty \p target
/// certifies an outright refutation.
[[nodiscard]] bool check_recorded_proof(std::span<const sat::ProofStep> steps,
                                        std::span<const sat::Lit> target,
                                        DratStats* stats = nullptr);

}  // namespace simgen::check
