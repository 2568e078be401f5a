/// \file campaign.hpp
/// \brief The fuzz campaign driver: generate, mutate, cross-check,
/// shrink, report.
///
/// One campaign iteration:
///   1. generate a base circuit (a benchgen AIG — mapped to 6-LUTs or
///      translated directly — or a raw random K-LUT network);
///   2. round-trip it through every serializer and demand equivalence;
///   3. derive an equivalence-preserving mutant and an injected-fault
///      mutant with a verified witness;
///   4. run the pair oracles (a sweeping arm — cycled per iteration so a
///      short run still covers all of Table 1 — the plain SAT miter, and
///      the BDD engine) and demand the expected verdicts;
///   5. on any mismatch: re-express the failure as a single-network
///      predicate, delta-debug it down, and write self-contained repro
///      artifacts.
///
/// Everything is a pure function of (seed, iteration): per-iteration RNG
/// streams are split from the base seed, verdict-log lines carry no
/// timings, and re-running the same seed reproduces the same circuits,
/// verdicts, and log bytes — the property the determinism tests pin down.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/gen.hpp"
#include "fuzz/oracle.hpp"
#include "simgen/guided_sim.hpp"

namespace simgen::fuzz {

struct CampaignOptions {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 100;
  /// Index of the first iteration to run. Because every iteration is a
  /// pure function of (seed, index), `first_iteration = N, iterations = 1`
  /// re-runs exactly the iteration a failing campaign reported as N.
  std::uint64_t first_iteration = 0;
  /// Stop early after this much wall time (0 = no limit). Only affects
  /// how many iterations run, never their content.
  double max_seconds = 0.0;
  /// Cycle through all strategy arms (iteration i uses arm i mod 6);
  /// otherwise every iteration uses \p arm.
  bool cycle_arms = true;
  core::Strategy arm = core::Strategy::kAiDcMffc;
  /// Run every arm on every pair instead of one per iteration (slow).
  bool all_arms = false;
  bool certify = true;
  bool shrink = true;
  /// Where to write repro artifacts; empty disables writing.
  std::string artifact_dir;
  GenProfile profile;
  /// Live echo of verdict-log lines (nullptr = silent).
  std::FILE* echo = nullptr;
};

struct CampaignResult {
  std::uint64_t iterations = 0;
  std::uint64_t checks = 0;    ///< Individual oracle runs.
  std::uint64_t failures = 0;  ///< Oracle mismatches (0 = clean campaign).
  std::uint64_t eq_pairs = 0;
  std::uint64_t neq_pairs = 0;
  std::uint64_t roundtrips = 0;
  bool time_limited = false;   ///< Stopped by max_seconds.
  /// One line per iteration; deterministic bytes for a given
  /// (seed, iterations, arm configuration).
  std::string verdict_log;
  std::vector<std::string> artifacts;  ///< Repro paths written.
};

/// Runs the campaign. Never throws for engine failures (those become
/// verdict-log failures); throws only for harness-level errors
/// (unwritable artifact directory).
[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& options);

/// Replays a repro circuit (typically loaded from an artifact .blif):
/// runs every engine against the constant-0 reference plus the network
/// round trips, reporting one result per oracle. Failures reproduce the
/// original disagreement.
[[nodiscard]] std::vector<OracleResult> replay_network(
    const net::Network& network, std::uint64_t seed);

}  // namespace simgen::fuzz
