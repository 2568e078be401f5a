/// \file guided_sim.hpp
/// \brief Guided-simulation driver: runs a strategy over equivalence
/// classes for a number of iterations (paper Figure 2, Section 6.1).
///
/// Each iteration walks the current equivalence classes, generates one
/// input vector per class (OUTgold targets for the SimGen arms, a random
/// complementary pair for RevS), packs vectors 64-at-a-time into
/// simulation words (don't-care PIs are filled with random bits at pack
/// time), simulates, and refines the classes. The evaluation arms match
/// Table 1: RevS, SI+RD, AI+RD, AI+DC, AI+DC+MFFC.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/eqclass.hpp"
#include "sim/simulator.hpp"
#include "simgen/generator.hpp"
#include "simgen/reverse_sim.hpp"

namespace simgen::core {

/// The five evaluation arms of the paper.
enum class Strategy : std::uint8_t {
  kRevS,      ///< Reverse simulation baseline (Zhang et al.).
  kSiRd,      ///< Simple implication + random decision.
  kAiRd,      ///< Advanced implication + random decision.
  kAiDc,      ///< Advanced implication + don't-care heuristic.
  kAiDcMffc,  ///< Advanced implication + DC + MFFC heuristics ("SimGen").
  kAiDcScoap, ///< Extension: advanced implication + DC + SCOAP tie-break.
};

[[nodiscard]] std::string_view strategy_name(Strategy strategy);

/// All arms, in the paper's Table 1 order.
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kRevS, Strategy::kSiRd, Strategy::kAiRd, Strategy::kAiDc,
    Strategy::kAiDcMffc, Strategy::kAiDcScoap,
};

/// Generator configuration for a SimGen arm (not valid for kRevS).
[[nodiscard]] GeneratorOptions generator_options_for(Strategy strategy);

struct GuidedSimOptions {
  Strategy strategy = Strategy::kAiDcMffc;
  std::size_t iterations = 20;  ///< Paper Section 6.1: 20 iterations.
  std::uint64_t seed = 1;
  /// Upper bound on OUTgold targets taken from one class per iteration
  /// (an evenly spaced subsample that preserves the 0/1 alternation).
  /// 0 = whole class, the paper's letter; a small cap (16) bounds the
  /// per-iteration cost on degenerate classes with hundreds of members
  /// without changing which classes are splittable.
  std::size_t max_targets_per_class = 0;
  /// Exponential per-class backoff: a class whose attempt produced no
  /// usable vector is retried after 1, then 2, 4, ... iterations (capped
  /// here). Classes dominated by true equivalences conflict on every
  /// OUTgold assignment; skipping their hopeless re-attempts changes no
  /// outcome but removes the dominant runtime waste. 0 disables backoff
  /// (every class is attempted every iteration). Applied identically to
  /// every strategy arm, so comparisons stay fair.
  unsigned max_backoff = 8;
};

struct GuidedSimResult {
  std::vector<std::uint64_t> cost_per_iteration;  ///< Eq. 5 after each iteration.
  double runtime_seconds = 0.0;
  std::uint64_t vectors_generated = 0;
  std::uint64_t vectors_skipped = 0;  ///< Unusable (no opposite-gold pair held).
  std::uint64_t conflicts = 0;        ///< Target-level generation conflicts.
};

/// Runs \p options.iterations rounds of guided simulation, refining
/// \p classes in place.
GuidedSimResult run_guided_simulation(sim::Simulator& simulator,
                                      sim::EquivClasses& classes,
                                      const GuidedSimOptions& options);

}  // namespace simgen::core
