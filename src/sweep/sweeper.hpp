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

/// Structural fingerprint of the combined transitive-fanin cone of up to
/// two roots — the shape handed to the SAT solver for one call, captured
/// so the hardness report can correlate solve cost with cone structure.
struct ConeFingerprint {
  std::uint64_t support = 0;  ///< Distinct PIs in the cone.
  std::uint64_t nodes = 0;    ///< Distinct internal (LUT) nodes, roots included.
  std::uint64_t depth = 0;    ///< Max logic level over the roots.
};

/// Walks the combined fanin cone of \p a (and \p b unless kNullNode).
[[nodiscard]] ConeFingerprint fingerprint_cone(const net::Network& network,
                                               net::NodeId a,
                                               net::NodeId b = net::kNullNode);

/// Journals one kConeFingerprint event for the SAT call keyed by
/// (\p journal_a, \p journal_b, \p output_proof) — the same key the
/// adjacent kSatCall event carries, so the inspector joins them without
/// relying on event adjacency. The cone is fingerprinted from the roots
/// \p root_a / \p root_b (for candidate pairs these equal the journal
/// key; for output proofs the key is the PO ordinal while the root is
/// the miter PO node). No-op when no journal is recording.
void emit_cone_fingerprint(const net::Network& network, net::NodeId root_a,
                           net::NodeId root_b, std::uint64_t journal_a,
                           std::uint64_t journal_b, std::uint8_t strategy_code,
                           bool output_proof);

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
