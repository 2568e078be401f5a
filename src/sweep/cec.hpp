/// \file cec.hpp
/// \brief Combinational equivalence checking of two networks.
///
/// The end-to-end application of the whole stack: two circuits with
/// matching interfaces are joined into a miter (shared PIs, one XOR node
/// per PO pair), simulation splits the internal equivalence classes,
/// SimGen-guided vectors split the stubborn ones, SAT sweeping proves the
/// survivors, and finally each miter output is proven unsatisfiable (or a
/// counterexample is produced and verified by simulation).
#pragma once

#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "simgen/guided_sim.hpp"
#include "sweep/sweeper.hpp"

namespace simgen::sweep {

/// Miter of two networks plus node maps back to the operands.
struct Miter {
  net::Network network;
  std::vector<net::NodeId> map_a;  ///< a's node id -> miter node id.
  std::vector<net::NodeId> map_b;  ///< b's node id -> miter node id.
};

/// Builds the miter. Requires equal PI and PO counts (correspondence by
/// index); throws std::invalid_argument otherwise.
[[nodiscard]] Miter make_miter(const net::Network& a, const net::Network& b);

struct CecOptions {
  std::uint64_t seed = 1;
  std::size_t random_rounds = 8;          ///< Random-simulation prepass.
  /// Run SimGen before sweeping, for the paper's 20 iterations.
  bool use_guided_simulation = true;
  core::Strategy guided_strategy = core::Strategy::kAiDcMffc;
  bool sweep_internal_nodes = true;       ///< Prove internal equivalences first.
  /// DRAT-certify every UNSAT verdict — internal merges and the final
  /// output proofs — with the in-repo backward checker. Forwarded into
  /// sweep.certify; an uncertifiable verdict throws std::logic_error.
  bool certify = false;
  SweepOptions sweep;
};

struct CecResult {
  bool equivalent = false;
  /// True when the checker could not decide: some output proof hit the
  /// conflict budget (SweepOptions::output_proof_conflict_limit) and no
  /// counterexample was found either. equivalent is false but means
  /// "unknown", not "not equivalent" — counterexample is empty.
  bool undecided = false;
  /// Output proofs that hit the conflict budget. Nonzero only when
  /// undecided: if a later output yields a counterexample, the run is
  /// decided NOT EQUIVALENT and this count is reset to 0.
  std::size_t unresolved_outputs = 0;
  /// On non-equivalence: a PI assignment on which some PO pair differs
  /// (verified by simulation before being returned).
  std::vector<bool> counterexample;
  std::size_t outputs_proven = 0;
  /// Output proofs DRAT-certified (== outputs_proven when certifying).
  std::uint64_t certified_outputs = 0;
  SweepResult sweep_stats;   ///< Internal-node sweeping statistics.
  std::uint64_t output_sat_calls = 0;
  double output_sat_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Checks functional equivalence of \p a and \p b.
[[nodiscard]] CecResult check_equivalence(const net::Network& a,
                                          const net::Network& b,
                                          const CecOptions& options = {});

}  // namespace simgen::sweep
