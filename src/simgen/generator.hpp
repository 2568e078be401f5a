/// \file generator.hpp
/// \brief SimGen's input-vector generator (Algorithm 1 of the paper).
///
/// Given OUTgold targets from an equivalence class, the generator searches
/// for a PI assignment compatible with as many targets as possible by
/// interleaving implication (Section 4) and decision (Section 5) along the
/// fanin cone of each target, processed in decreasing-depth order. There
/// is no backtracking: a conflict abandons the current target, restores
/// the pre-target assignment, and moves on — exactly Algorithm 1's
/// lines 11-13.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "network/mffc.hpp"
#include "network/network.hpp"
#include "obs/metrics.hpp"
#include "simgen/decision.hpp"
#include "simgen/implication.hpp"
#include "simgen/outgold.hpp"
#include "simgen/rows.hpp"
#include "simgen/tval.hpp"
#include "util/rng.hpp"

namespace simgen::core {

/// Configuration of one generator arm (the paper's SI+RD, AI+RD, AI+DC,
/// AI+DC+MFFC combinations are presets over these fields).
struct GeneratorOptions {
  ImplicationStrategy implication = ImplicationStrategy::kAdvanced;
  DecisionStrategy decision = DecisionStrategy::kDontCareMffc;
};

/// Cumulative counters across generate() calls. Registry-backed view:
/// the PatternGenerator's instance owns obs counters named "simgen.*"
/// (see src/obs/metrics.hpp); copies are detached value snapshots.
struct GeneratorStats {
  GeneratorStats() = default;  ///< Detached (all zeros, unregistered).
  explicit GeneratorStats(obs::register_t);

  obs::Counter targets_attempted;
  obs::Counter targets_satisfied;
  obs::Counter conflicts;
  obs::Counter implications;
  obs::Counter decisions;
};

/// Result of one generate() call: the (partial) input vector and how many
/// targets of each polarity it honours.
struct VectorResult {
  std::vector<TVal> pi_values;  ///< Per PI index; kUnknown = free (random fill).
  std::size_t satisfied_zero = 0;
  std::size_t satisfied_one = 0;

  /// The paper's usefulness criterion (Section 3): the vector must honour
  /// at least one pair of targets with opposite OUTgold values, otherwise
  /// the simulation is skipped.
  [[nodiscard]] bool usable() const noexcept {
    return satisfied_zero > 0 && satisfied_one > 0;
  }
};

/// Implements Algorithm 1 over a fixed network.
class PatternGenerator {
 public:
  PatternGenerator(const net::Network& network, GeneratorOptions options,
                   std::uint64_t seed);

  /// Runs Algorithm 1 for \p targets (typically make_outgold of one
  /// equivalence class). Targets are re-ordered by decreasing depth
  /// internally.
  VectorResult generate(std::span<const Target> targets);

  [[nodiscard]] const GeneratorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const GeneratorOptions& options() const noexcept { return options_; }
  [[nodiscard]] const net::Network& network() const noexcept { return network_; }

 private:
  /// Processes one target; returns true if its OUTgold value was secured.
  bool process_target(const Target& target);

  /// Marks the fanin cone of \p root in in_cone_stamp_ with the current
  /// stamp (allocation-free replacement for net::fanin_cone_dfs).
  void mark_cone(net::NodeId root);

  const net::Network& network_;
  GeneratorOptions options_;
  RowDatabase rows_;
  net::MffcDepthCache mffc_;
  std::optional<net::ScoapCosts> scoap_;  ///< Only for kDontCareScoap.
  util::Rng rng_;
  NodeValues values_;
  GeneratorStats stats_{obs::kRegister};
  ImplicationEngine implication_;
  DecisionEngine decision_;

  // Per-target scratch, stamped to avoid O(n) clears.
  std::vector<std::uint32_t> in_cone_stamp_;
  std::uint32_t stamp_ = 0;
  std::vector<net::NodeId> constants_;
  std::vector<net::NodeId> cone_stack_;
  /// In-cone LUT trail entries of the current target not yet visited by
  /// the latestUpdated search, in trail order (newest on top).
  std::vector<net::NodeId> candidates_;
};

}  // namespace simgen::core
