/// \file solver.hpp
/// \brief CDCL SAT solver (MiniSat-lineage architecture).
///
/// The verification tool of the sweeping flow (paper Figure 2). Features:
/// two-watched-literal propagation with blocking literals over a packed
/// clause arena (32-bit clause refs), implicit binary clauses kept in a
/// binary implication graph (per-literal binary watch lists; propagation
/// over them never touches clause memory), first-UIP conflict analysis
/// with clause minimization, VSIDS branching with phase saving, Luby
/// restarts, activity-based learned-clause deletion, and incremental
/// solving under assumptions — the mode SAT sweeping uses to test one
/// candidate pair of nodes per call while keeping all previously loaded
/// cone clauses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "sat/arena.hpp"
#include "sat/types.hpp"

namespace simgen::sat {

class ProofTracer;  // see sat/proof.hpp

/// Runtime counters, exposed for the paper's SAT-calls / SAT-time tables.
///
/// A registry-backed view: the Solver's instance (constructed with
/// obs::kRegister) owns obs counters named "sat.*", so the same values
/// are readable per-instance through stats() and globally through the
/// telemetry registry (obs::capture_snapshot / --metrics-out). Copies are
/// detached value snapshots.
struct SolverStats {
  SolverStats() = default;  ///< Detached (all zeros, unregistered).
  explicit SolverStats(obs::register_t);

  obs::Counter solve_calls;
  obs::Counter conflicts;
  obs::Counter decisions;
  obs::Counter propagations;
  obs::Counter restarts;
  obs::Counter learned_clauses;
  obs::Counter deleted_clauses;
  /// Learnt-clause DB reductions (reduce_learnt_db invocations).
  obs::Counter db_reductions;
};

/// Incremental CDCL solver.
class Solver {
 public:
  Solver();

  /// Creates a fresh variable and returns it.
  Var new_var();
  [[nodiscard]] std::size_t num_vars() const noexcept { return assigns_.size(); }

  /// Adds a clause (permanently). Returns false if the solver is already
  /// in an unsatisfiable state at level 0 (the clause set is then UNSAT
  /// regardless of assumptions).
  bool add_clause(std::span<const Lit> literals);
  bool add_clause(std::initializer_list<Lit> literals) {
    return add_clause(std::span<const Lit>(literals.begin(), literals.size()));
  }

  /// Solves under \p assumptions. kUnknown is returned only if a conflict
  /// limit is set and exhausted.
  Result solve(std::span<const Lit> assumptions = {});
  Result solve(std::initializer_list<Lit> assumptions) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Model access after kSat. Valid until the next solve/add_clause.
  ///
  /// The model is read straight off the solver state instead of being
  /// materialized per call: phase saving records each variable's final
  /// value as it leaves the trail, so `assigns_` (still-assigned) plus
  /// `phase_` (backtracked or never decided) together ARE the satisfying
  /// assignment.
  [[nodiscard]] bool model_value(Var var) const {
    return assigns_[var] == LBool::kUndef ? phase_[var]
                                          : assigns_[var] == LBool::kTrue;
  }
  [[nodiscard]] bool model_value(Lit lit) const {
    return model_value(lit.var()) != lit.negated();
  }

  /// True if the clause set is UNSAT independent of assumptions.
  [[nodiscard]] bool in_conflict() const noexcept { return !ok_; }

  /// 0 disables the limit (default).
  void set_conflict_limit(std::uint64_t limit) noexcept { conflict_limit_ = limit; }

  /// Attaches a DRAT proof observer (nullptr detaches). The tracer sees
  /// every added clause, every derived clause, and every deletion from
  /// this point on; attach it before the first add_clause to obtain a
  /// checkable proof. The solver does not own the tracer.
  void set_proof_tracer(ProofTracer* tracer) noexcept { proof_ = tracer; }
  [[nodiscard]] ProofTracer* proof_tracer() const noexcept { return proof_; }

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }

#ifndef SIMGEN_NO_TELEMETRY
  /// Tags subsequent solves with the identity of the cone being solved —
  /// the same (a, b, output-proof) key the surrounding kSatCall event
  /// carries — so the solver-emitted introspection milestones
  /// (kSolverRestart / kSolverReduce / kSolverBudget) and the per-solve
  /// kSolverSolveStats rollup can be joined to their call post-mortem.
  /// Milestones are emitted, and the LBD of each learnt clause (literal
  /// block distance: distinct decision levels in it) is computed for the
  /// rollup, only while a context is set and a journal is recording. The
  /// whole introspection surface (these methods, the emit helpers, the
  /// LBD computation) exists only in telemetry builds; CI nm-checks that
  /// NO_TELEMETRY binaries contain no symbol with "introspection" in its
  /// name.
  void set_introspection_context(std::uint64_t a, std::uint64_t b,
                                 bool output_proof) noexcept;
  void clear_introspection_context() noexcept;
#endif

 private:
  static constexpr ClauseRef kNoReason = kInvalidClauseRef;

  /// Long-clause watcher (clauses of size >= 3).
  struct Watcher {
    ClauseRef clause = kNoReason;
    Lit blocker;  ///< Satisfied blocker shortcut.
  };

  /// Binary implication graph edge: when the list's key literal becomes
  /// true, \p other is implied. \p ref backs the edge with its arena
  /// clause for conflict analysis and proof deletion; propagation itself
  /// never dereferences it.
  struct BinWatcher {
    Lit other;
    ClauseRef ref = kNoReason;
  };

  enum class LBool : std::int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  [[nodiscard]] LBool value(Lit lit) const noexcept {
    const LBool v = assigns_[lit.var()];
    if (v == LBool::kUndef) return LBool::kUndef;
    return (v == LBool::kTrue) != lit.negated() ? LBool::kTrue : LBool::kFalse;
  }

  [[nodiscard]] unsigned decision_level() const noexcept {
    return static_cast<unsigned>(trail_lim_.size());
  }

  /// Allocates + registers + attaches a clause of size >= 2. The caller
  /// has already normalized the literals and emitted any proof lemma.
  ClauseRef install_clause(std::span<const Lit> literals, bool learnt);
  void attach_clause(ClauseRef ref);
  void detach_clause(ClauseRef ref);
  /// Proof on_delete + detach + arena free. The caller drops the ref from
  /// problem_clauses_/learnt_clauses_ (or leaves it for compaction).
  void delete_clause(ClauseRef ref);
  void compact_clause_lists();
  void garbage_collect();
  void garbage_collect_if_needed();

  void enqueue(Lit lit, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt_out, unsigned& backtrack_level);
  [[nodiscard]] bool literal_redundant(Lit lit, std::uint32_t abstract_levels);
  void backtrack(unsigned level);
  Lit pick_branch_literal();
  void reduce_learnt_db();
  Result search();

  // VSIDS heap operations.
  void bump_var(Var var);
  void decay_var_activity() { var_activity_increment_ /= kVarDecay; }
  void bump_clause(ClauseRef ref);
  void decay_clause_activity() { clause_activity_increment_ /= kClauseDecay; }
  void heap_insert(Var var);
  Var heap_pop();
  void heap_sift_up(std::size_t index);
  void heap_sift_down(std::size_t index);
  [[nodiscard]] bool heap_contains(Var var) const {
    return heap_position_[var] != kNotInHeap;
  }

  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseDecay = 0.999;
  static constexpr std::uint32_t kNotInHeap = ~std::uint32_t{0};

  // Clause storage: packed arena + ref lists.
  ClauseArena arena_;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnt_clauses_;

  // Assignment state.
  std::vector<LBool> assigns_;       // per var
  std::vector<bool> phase_;          // per var: saved polarity
  std::vector<unsigned> level_;      // per var
  std::vector<ClauseRef> reason_;    // per var
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t propagate_head_ = 0;

  // Watches, indexed by literal code: clauses watching ~lit... see .cpp.
  // Binary clauses live only in bin_watches_ (plus their arena backing).
  std::vector<std::vector<Watcher>> watches_;
  std::vector<std::vector<BinWatcher>> bin_watches_;

  // Branching.
  std::vector<double> activity_;
  std::vector<Var> heap_;
  std::vector<std::uint32_t> heap_position_;
  double var_activity_increment_ = 1.0;
  double clause_activity_increment_ = 1.0;

  // Conflict analysis scratch.
  std::vector<bool> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<Lit> lits_scratch_;  // proof emission / clause copies

  // Proof logging (optional, not owned).
  ProofTracer* proof_ = nullptr;

  // Search control.
  bool ok_ = true;
  std::uint64_t conflict_limit_ = 0;
  std::uint64_t conflicts_this_solve_ = 0;
  std::size_t max_learnt_ = 0;
  std::vector<Lit> assumptions_;

#ifndef SIMGEN_NO_TELEMETRY
  // Solver introspection (journal milestones + LBD), telemetry-only.
  [[nodiscard]] unsigned compute_introspection_lbd(
      std::span<const Lit> learnt);
  void emit_introspection_restart(std::uint64_t ordinal);
  void emit_introspection_reduce(std::uint64_t deleted, std::uint64_t before,
                                 std::uint64_t after);
  void emit_introspection_budget();
  void emit_introspection_solve_stats();

  std::uint64_t probe_a_ = 0;
  std::uint64_t probe_b_ = 0;
  std::uint64_t restarts_this_solve_ = 0;
  std::uint64_t lbd_count_this_solve_ = 0;
  std::uint64_t lbd_sum_this_solve_ = 0;
  std::uint64_t lbd_max_this_solve_ = 0;
  std::uint16_t probe_flags_ = 0;
  bool probe_active_ = false;
  // Level -> stamp scratch for the LBD count (distinct levels in a
  // learnt clause) without clearing between conflicts.
  std::vector<std::uint32_t> lbd_mark_;
  std::uint32_t lbd_stamp_ = 0;
#endif

  SolverStats stats_{obs::kRegister};
};

}  // namespace simgen::sat
