/// \file sweeper.hpp
/// \brief SAT sweeping: prove or refute candidate node equivalences.
///
/// The verification half of the paper's Figure 2 flow. The sweeper walks
/// the simulation-equivalence classes, picks (representative, candidate)
/// pairs, and asks the SAT solver for an input on which they differ:
///  * UNSAT — the pair is proven equivalent; the candidate is merged into
///    the representative, and an equality clause strengthens future
///    proofs, fraig-style;
///  * SAT — the model is a counterexample the random generator could not
///    produce; it is simulated back through the network, together with
///    63 1-distance neighbours (cf. Mishchenko et al.), to split this and
///    other classes.
/// SAT calls and SAT time are counted exactly as reported in the paper's
/// Table 2 / Figures 5-6.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "check/drat.hpp"
#include "network/network.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"
#include "sim/eqclass.hpp"
#include "sim/simulator.hpp"

namespace simgen::sweep {

struct SweepOptions {
  std::uint64_t seed = 1;
  /// Per-call conflict budget; 0 = unlimited. Pairs hitting the budget are
  /// dropped from their class and counted as unresolved.
  std::uint64_t conflict_limit = 0;
  /// Conflict budget for the CEC output proofs, separate from
  /// conflict_limit: output proofs are must-decide, so 0 (unlimited) is
  /// the correct default even when candidate pairs run under a tight
  /// budget. An output proof that still hits this budget makes the CEC
  /// verdict "undecided" (see CecResult), never a crash.
  std::uint64_t output_proof_conflict_limit = 0;
  /// Log a DRAT proof of every solver derivation and independently
  /// certify each UNSAT verdict with the in-repo backward checker before
  /// trusting it (see src/check/drat.hpp). An uncertifiable verdict
  /// throws std::logic_error instead of silently merging a class.
  bool certify = false;
  /// Seconds between heartbeat progress lines (classes live, nodes
  /// resolved, SAT calls, ETA) during run(). Printed at info level and
  /// journaled as kHeartbeat events; 0 disables.
  double progress_interval = 0.0;
  /// Guided-simulation strategy arm (core::Strategy numeric value) that
  /// produced the classes being swept. Purely observational: recorded as
  /// the sub-code of every kConeFingerprint journal event so the SAT
  /// hardness report can bucket solve cost by arm.
  std::uint8_t strategy_code = 0;
};

struct SweepResult {
  std::uint64_t sat_calls = 0;
  std::uint64_t proven_equivalent = 0;   ///< UNSAT outcomes.
  std::uint64_t disproven = 0;           ///< SAT outcomes (counterexamples).
  std::uint64_t unresolved = 0;          ///< Conflict-limited outcomes.
  std::uint64_t certified_unsat = 0;     ///< UNSAT verdicts DRAT-certified.
  /// Always 0: the solver has no inprocessing layer. Kept because
  /// perfbench/perfbench.cpp still reports it as the sat.inprocess_runs
  /// metric; the field goes when that metric does.
  std::uint64_t inprocess_runs = 0;
  double sat_seconds = 0.0;              ///< Time inside Solver::solve only.
  std::uint64_t resimulations = 0;
  std::vector<std::pair<net::NodeId, net::NodeId>> proven_pairs;
};

/// Incremental SAT sweeping over one network. The solver and encoder
/// persist across calls, so cones are encoded once and learned clauses
/// carry over — sweeping a class pair-by-pair stays cheap.
class Sweeper {
 public:
  Sweeper(const net::Network& network, SweepOptions options);

  /// Sweeps until every class is gone: all candidate pairs proven
  /// equivalent, split by counterexamples, or dropped as unresolved.
  /// \p simulator is used for counterexample resimulation.
  SweepResult run(sim::EquivClasses& classes, sim::Simulator& simulator);

  /// Proves or refutes a single pair. Returns the raw solver verdict and,
  /// for SAT, leaves the counterexample accessible via last_model_vector().
  sat::Result check_pair(net::NodeId a, net::NodeId b);

  /// One SAT call, as solve_call() returns it.
  struct SatCall {
    sat::Result verdict = sat::Result::kUnknown;
    /// The literal the call solved under: the pair's fresh miter
    /// variable t, or the output's own variable.
    sat::Lit assumption;
    double seconds = 0.0;  ///< Time inside Solver::solve.
  };

  /// Encodes and solves one SAT call and journals it. For a candidate
  /// pair (\p b != kNullNode) it encodes both cones plus a fresh miter
  /// variable t <-> (a xor b) and solves under t; for a CEC output proof
  /// (\p b == kNullNode) it encodes the miter output \p a and solves
  /// under it. This is the one place a SAT call is journaled: its cone
  /// fingerprint (kConeFingerprint), the solver's introspection events
  /// and kSatCall with the call's solver-cost deltas, all keyed by
  /// (a, b or 0, output proof). It counts nothing: check_pair and the
  /// CEC output-proof loop total their own calls.
  SatCall solve_call(net::NodeId a, net::NodeId b);

  /// PI vector of the last SAT verdict. PIs outside the solved cone
  /// (unencoded) are filled with random bits drawn from a stream keyed
  /// only by (options.seed, salt) — never from shared sweeper state — so
  /// the same solve yields byte-identical witnesses regardless of what
  /// was solved before it. Callers pass a distinct salt per logical
  /// witness (the CEC output path uses the PO id).
  [[nodiscard]] std::vector<bool> last_model_vector(std::uint64_t salt = 0);

  [[nodiscard]] sat::Solver& solver() noexcept { return solver_; }
  [[nodiscard]] sat::CnfEncoder& encoder() noexcept { return encoder_; }
  [[nodiscard]] const SweepResult& totals() const noexcept { return totals_; }

  /// The attached proof certifier; nullptr unless options.certify is set.
  [[nodiscard]] const check::Certifier* certifier() const noexcept {
    return certifier_.get();
  }

  /// Certifies one UNSAT verdict given under \p assumptions; throws
  /// std::logic_error if the logged proof does not check out. No-op
  /// without an attached certifier. Used internally after every UNSAT
  /// pair and by the CEC driver for the output proofs. \p journal_a /
  /// \p journal_b / \p output_proof only annotate the kCertified journal
  /// event (the target pair, or the PO index for output proofs).
  void certify_unsat(std::span<const sat::Lit> assumptions,
                     std::uint64_t journal_a = 0, std::uint64_t journal_b = 0,
                     bool output_proof = false);

 private:
  /// Seed of the deterministic witness stream for one SAT outcome: a pure
  /// function of (options.seed, a, b). An earlier sweeper drew witness
  /// fill bits from the shared member Rng, which made every witness
  /// depend on how many draws *earlier* pairs had consumed — disprove an
  /// unrelated pair first and the next witness changed bytes. Keying the
  /// stream per call removes that history dependence (regression:
  /// SweeperTest.WitnessIsHistoryIndependent).
  [[nodiscard]] std::uint64_t witness_seed(std::uint64_t a,
                                           std::uint64_t b) const noexcept;

  void resimulate_counterexample(std::span<const sim::PatternWord> pi_words,
                                 sim::EquivClasses& classes,
                                 sim::Simulator& simulator);

  /// Totals accumulated since \p before, as returned by run().
  [[nodiscard]] SweepResult delta_since(const SweepResult& before) const;

  const net::Network& network_;
  SweepOptions options_;
  sat::Solver solver_;
  // The certifier mirrors every clause the solver sees, so it must be
  // attached before the encoder (or anything else) can add clauses.
  std::unique_ptr<check::Certifier> certifier_;
  sat::CnfEncoder encoder_;
  SweepResult totals_;  ///< Accumulated across run() and check_pair() calls.
};

}  // namespace simgen::sweep
