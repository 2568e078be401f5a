#include "sim/simulator.hpp"

#include <stdexcept>

#include "tt/isop.hpp"
#include "util/rng.hpp"

namespace simgen::sim {

Simulator::Simulator(const net::Network& network)
    : network_(network),
      values_(network.num_nodes(), 0),
      pi_scratch_(network.num_pis(), 0) {
  build_tape();
}

/// Flattens the network into the evaluation tape: one op per node in
/// topological (creation) order, LUT covers expanded into the flat
/// cube/literal tables with literals pre-resolved to fanin node indices.
/// simulate_word then runs with zero network accesses.
void Simulator::build_tape() {
  tape_.ops.reserve(network_.num_nodes());
  std::uint32_t pi_index = 0;
  network_.for_each_node([&](net::NodeId id) {
    const net::Node& node = network_.node(id);
    detail::TapeOp op;
    op.dst = static_cast<std::uint32_t>(id);
    switch (node.kind) {
      case net::NodeKind::kPi:
        op.kind = detail::TapeOp::Kind::kPi;
        op.src = pi_index++;
        break;
      case net::NodeKind::kConstant:
        op.kind = node.constant_value ? detail::TapeOp::Kind::kConst1
                                      : detail::TapeOp::Kind::kConst0;
        break;
      case net::NodeKind::kPo:
        op.kind = detail::TapeOp::Kind::kCopy;
        op.src = static_cast<std::uint32_t>(node.fanins[0]);
        break;
      case net::NodeKind::kLut: {
        op.kind = detail::TapeOp::Kind::kLut;
        op.cube_begin = static_cast<std::uint32_t>(tape_.cubes.size());
        const tt::Cover cover = tt::isop(node.function);
        for (const tt::Cube& cube : cover.cubes) {
          detail::TapeCube tape_cube;
          tape_cube.lit_begin = static_cast<std::uint32_t>(tape_.lits.size());
          for (unsigned v = 0; v < node.fanins.size(); ++v) {
            if (!cube.has_literal(v)) continue;
            // literal_value(v) selects the fanin word, else its complement.
            tape_.lits.push_back(detail::make_tape_lit(
                static_cast<std::uint32_t>(node.fanins[v]),
                !cube.literal_value(v)));
          }
          tape_cube.lit_end = static_cast<std::uint32_t>(tape_.lits.size());
          tape_.cubes.push_back(tape_cube);
        }
        op.cube_end = static_cast<std::uint32_t>(tape_.cubes.size());
        break;
      }
    }
    tape_.ops.push_back(op);
  });
}

void Simulator::simulate_word(std::span<const PatternWord> pi_words) {
  if (pi_words.size() != network_.num_pis())
    throw std::invalid_argument("Simulator: wrong number of PI words");
  words_.inc();
  kernel_watch_.resume();
  PatternWord* values = values_.data();
  for (const detail::TapeOp& op : tape_.ops) {
    PatternWord word = 0;
    switch (op.kind) {
      case detail::TapeOp::Kind::kConst0:
        break;
      case detail::TapeOp::Kind::kConst1:
        word = ~PatternWord{0};
        break;
      case detail::TapeOp::Kind::kPi:
        word = pi_words[op.src];
        break;
      case detail::TapeOp::Kind::kCopy:
        word = values[op.src];
        break;
      case detail::TapeOp::Kind::kLut:
        // OR of the cover's cubes; a cube with no literals is all-ones.
        for (std::uint32_t c = op.cube_begin; c != op.cube_end; ++c) {
          const detail::TapeCube& cube = tape_.cubes[c];
          PatternWord term = ~PatternWord{0};
          for (std::uint32_t l = cube.lit_begin; l != cube.lit_end; ++l) {
            const detail::TapeLit lit = tape_.lits[l];
            const PatternWord fanin = values[detail::tape_lit_node(lit)];
            term &= detail::tape_lit_complemented(lit) ? ~fanin : fanin;
          }
          word |= term;
        }
        break;
    }
    values[op.dst] = word;
  }
  kernel_watch_.stop();
}

PatternWord Simulator::random_pattern_word(std::uint64_t seed,
                                           std::uint64_t pi_index,
                                           std::uint64_t word_index) noexcept {
  // Three splitmix64 rounds keyed on (seed, pi, word) independently: the
  // stream constant decorrelates the axes so adjacent PIs/words share no
  // affine structure. Pinned by Simulator.RandomPatternWordsArePinned
  // — changing this function re-keys every random pattern in the system
  // (costs/baselines), so treat it as a wire format.
  const std::uint64_t stream =
      util::splitmix64(seed ^ 0x53696d47656e2121ull) ^
      util::splitmix64((pi_index + 1) * 0x9e3779b97f4a7c15ull);
  return util::splitmix64(stream ^
                          util::splitmix64(word_index ^ 0xd1b54a32d192ed03ull));
}

void Simulator::simulate_random_word(std::uint64_t seed,
                                     std::uint64_t word_index) {
  for (std::size_t pi = 0; pi < pi_scratch_.size(); ++pi)
    pi_scratch_[pi] = random_pattern_word(seed, pi, word_index);
  simulate_word(pi_scratch_);
}

}  // namespace simgen::sim
