/// \file sim_tape.hpp
/// \brief Compiled evaluation tape of the Simulator.
///
/// The Simulator flattens the network's topological evaluation order into
/// a *tape*: a flat op array plus flat cube/literal side tables, so
/// Simulator::simulate_word runs with zero pointer chasing into network
/// structures. Internal header: only the Simulator uses it.
#pragma once

#include <cstdint>
#include <vector>

namespace simgen::sim::detail {

/// One ISOP cube of a LUT's ON-cover: the AND of the literals in
/// [lit_begin, lit_end) of Tape::lits. A cube with no literals is the
/// constant-true term (the AND accumulator starts at all-ones and is
/// never narrowed).
struct TapeCube {
  std::uint32_t lit_begin = 0;
  std::uint32_t lit_end = 0;
};

/// One node evaluation. `dst` is the node index (slot in the value
/// array); `src` is the PI index for kPi, the fanin node index for
/// kCopy, and unused otherwise. kLut ORs the cubes in
/// [cube_begin, cube_end) of Tape::cubes.
struct TapeOp {
  enum class Kind : std::uint8_t {
    kConst0,  ///< dst <- 0...0
    kConst1,  ///< dst <- 1...1
    kPi,      ///< dst <- pi_words[src]
    kCopy,    ///< dst <- values[src] (single positive unit cube)
    kLut,     ///< dst <- OR of AND-cubes over fanin words
  };
  Kind kind = Kind::kConst0;
  std::uint32_t dst = 0;
  std::uint32_t src = 0;
  std::uint32_t cube_begin = 0;
  std::uint32_t cube_end = 0;
};

/// Literal encoding: (fanin node index << 1) | complemented.
using TapeLit = std::uint32_t;

[[nodiscard]] constexpr TapeLit make_tape_lit(std::uint32_t node,
                                              bool complemented) noexcept {
  return (node << 1) | static_cast<std::uint32_t>(complemented);
}
[[nodiscard]] constexpr std::uint32_t tape_lit_node(TapeLit lit) noexcept {
  return lit >> 1;
}
[[nodiscard]] constexpr bool tape_lit_complemented(TapeLit lit) noexcept {
  return (lit & 1u) != 0;
}

/// The compiled network: ops in topological order plus cube/literal
/// side tables. Built once per Simulator; immutable afterwards.
struct Tape {
  std::vector<TapeOp> ops;
  std::vector<TapeCube> cubes;
  std::vector<TapeLit> lits;
};

}  // namespace simgen::sim::detail
