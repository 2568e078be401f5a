/// \file simulator.hpp
/// \brief Bit-parallel circuit simulation (64 patterns per call).
///
/// Simulation is the workhorse of the sweeping flow (paper Section 2.3):
/// it evaluates every node on a batch of input vectors so the equivalence
/// classes can be refined without SAT. Nodes are evaluated through the
/// ISOP covers of their functions, which is both faster than minterm
/// enumeration for typical LUTs and shares the row machinery SimGen uses.
///
/// Each node holds one 64-bit value word, and one simulate call runs the
/// compiled evaluation tape (sim_tape.hpp) over 64 patterns. Every
/// simulation of the flow is one such word: a random round, a guided
/// batch of at most 64 vectors, a SAT counterexample (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "network/network.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_tape.hpp"
#include "util/stopwatch.hpp"

namespace simgen::sim {

/// A batch of 64 input vectors: one 64-bit word per PI, bit p of word i is
/// the value of PI i in pattern p.
using PatternWord = std::uint64_t;

/// Evaluates a network on 64 patterns at a time.
///
/// The simulator owns the per-node value words and the compiled
/// evaluation tape; it is constructed once per network and reused across
/// rounds. value()/values()/value_bit() read the last simulated word.
class Simulator {
 public:
  explicit Simulator(const net::Network& network);

  /// Simulates one batch of 64 patterns. \p pi_words must have one word
  /// per PI, in PI order.
  void simulate_word(std::span<const PatternWord> pi_words);

  /// The random pattern word for (seed, pi_index, word_index): a pure
  /// function, so pattern content is independent of PI iteration order
  /// and of whatever any other consumer drew from a shared generator
  /// earlier (the first simulator drew per-PI words from one stateful Rng
  /// in PI order, which silently re-keyed every pattern when a reader
  /// changed — see DESIGN.md §16).
  [[nodiscard]] static PatternWord random_pattern_word(
      std::uint64_t seed, std::uint64_t pi_index,
      std::uint64_t word_index) noexcept;

  /// Simulates random word \p word_index: PI i takes
  /// random_pattern_word(seed, i, word_index).
  void simulate_random_word(std::uint64_t seed, std::uint64_t word_index);

  /// Value word of \p node.
  [[nodiscard]] PatternWord value(net::NodeId node) const {
    return values_[node];
  }

  /// All node values (indexed by NodeId) of the last simulate call; the
  /// next call overwrites them.
  [[nodiscard]] std::span<const PatternWord> values() const noexcept {
    return values_;
  }

  /// Single pattern bit \p pattern (0..63) of \p node.
  [[nodiscard]] bool value_bit(net::NodeId node, unsigned pattern) const {
    return (value(node) >> pattern) & 1u;
  }

  /// Wall seconds spent inside simulate calls since construction — the
  /// sim-phase cost the BENCH_*.json `sim_wall_seconds` field reports.
  [[nodiscard]] double kernel_seconds() const noexcept {
    return kernel_watch_.seconds();
  }

  [[nodiscard]] const net::Network& network() const noexcept {
    return network_;
  }

 private:
  void build_tape();

  const net::Network& network_;
  detail::Tape tape_;
  std::vector<PatternWord> values_;      ///< One word per node.
  std::vector<PatternWord> pi_scratch_;  ///< One random word per PI.
  util::Stopwatch kernel_watch_;
  /// "sim.words" counts simulate calls. A member (not a function-local
  /// static) so the hot path stays a plain add with no static-init guard.
  obs::Counter words_{"sim.words"};
};

}  // namespace simgen::sim
