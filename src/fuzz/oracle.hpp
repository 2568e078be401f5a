/// \file oracle.hpp
/// \brief Differential oracles: cross-check every engine on circuits with
/// known ground truth.
///
/// The harness owns the ground truth (a mutant is equivalent or carries a
/// verified counterexample witness), so every engine disagreement is a
/// bug by construction — in the engine, in the generator, or in the
/// oracle itself, all of which we want to know about. Three oracle
/// families:
///
///  * pair oracles — run sweep::check_equivalence (any or all strategy
///    arms, DRAT-certified), the BDD engine, and a plain SAT miter on a
///    (base, mutant) pair and demand the expected EQ/NEQ verdict; NEQ
///    counterexamples are re-verified by simulation;
///  * round-trip oracles — write the circuit through every serializer
///    (BLIF, BENCH, AIGER ascii+binary), parse it back, lint the result,
///    and CEC it against the original;
///  * shrink support — re-expressing a pair failure as a single-network
///    predicate ("the named oracle still gives the wrong verdict against
///    a constant-0 reference") so the delta debugger can minimize it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "fuzz/mutate.hpp"
#include "network/network.hpp"
#include "simgen/guided_sim.hpp"

namespace simgen::fuzz {

/// Outcome of one oracle run. Details never contain timings, so logs
/// built from them are byte-stable across runs.
struct OracleResult {
  std::string name;    ///< "cec[AI+DC]", "sat-miter", "bdd", "rt-blif", ...
  bool pass = false;
  std::string detail;  ///< Empty on pass; the mismatch description on fail.
};

struct PairOracleOptions {
  std::uint64_t seed = 1;
  /// Run every strategy arm (expensive) instead of just \p arm.
  bool all_arms = false;
  core::Strategy arm = core::Strategy::kAiDcMffc;
  /// DRAT-certify every UNSAT verdict inside the sweeping oracles.
  bool certify = true;
  /// BDD manager bound; blow-up is reported as a pass with detail
  /// "incomplete", never as a failure.
  std::size_t bdd_node_limit = 1u << 20;
};

/// Simulates \p network on one input vector; returns the PO value bits.
[[nodiscard]] std::vector<bool> simulate_outputs(
    const net::Network& network, const std::vector<bool>& inputs);

/// True iff \p inputs drives some PO pair of \p a / \p b apart.
[[nodiscard]] bool counterexample_valid(const net::Network& a,
                                        const net::Network& b,
                                        const std::vector<bool>& inputs);

/// Runs the pair oracles on (base, mutant): selected sweep arms, plain
/// SAT miter, BDD engine, and witness validation for NEQ mutants.
[[nodiscard]] std::vector<OracleResult> check_pair(
    const net::Network& base, const Mutant& mutant,
    const PairOracleOptions& options);

/// Runs the BLIF and BENCH writer->reader->lint->CEC round trips.
[[nodiscard]] std::vector<OracleResult> check_roundtrips(
    const net::Network& network, std::uint64_t seed);

/// Runs the AIGER ascii and binary round trips on an AIG (compared after
/// direct network translation).
[[nodiscard]] std::vector<OracleResult> check_aiger_roundtrips(
    const aig::Aig& graph, std::uint64_t seed);

/// A network with the same PI/PO interface as \p like whose outputs are
/// all constant 0. CEC of a miter against this reference answers "is the
/// miter constant 0?", which turns any pair disagreement into a
/// single-network property the shrinker can minimize.
[[nodiscard]] net::Network const0_reference(const net::Network& like);

/// Re-runs the oracle named \p oracle_name (an OracleResult::name) on
/// (network vs const0_reference(network)) and compares its verdict with a
/// trusted reference engine (BDD when it completes, otherwise the plain
/// SAT miter — or the reverse when the suspect *is* one of those).
/// Returns true while the disagreement persists — the shrink predicate.
[[nodiscard]] bool oracle_disagrees(const std::string& oracle_name,
                                    const net::Network& network,
                                    std::uint64_t seed);

/// True iff the plain SAT miter proves \p network differs from constant
/// 0 somewhere. The shrink predicate for injected-fault miters: the
/// miter of a faulty pair must stay nonzero through every reduction.
[[nodiscard]] bool miter_nonzero(const net::Network& network,
                                 std::uint64_t seed);

/// Re-runs the round-trip oracle named \p name ("rt-blif"/"rt-bench") on
/// \p network; returns true while it still fails — the shrink predicate
/// for serialization failures.
[[nodiscard]] bool roundtrip_fails(const std::string& name,
                                   const net::Network& network,
                                   std::uint64_t seed);

}  // namespace simgen::fuzz
