/// \file rows.hpp
/// \brief Per-node truth-table rows, row matching against ternary values,
/// and the flat network view Algorithm 1's engines read.
///
/// A "row" (paper Figures 3-4) is an ISOP cube of the node's ON-set or
/// OFF-set together with the output value that plane asserts. Row matching
/// is the primitive both implication (Section 4) and decision (Section 5)
/// are built on: a row matches the current assignment iff no assigned
/// fanin or output value contradicts it.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "network/network.hpp"
#include "simgen/tval.hpp"
#include "tt/isop.hpp"

namespace simgen::core {

/// One candidate row of a node: input cube plus asserted output value.
struct Row {
  tt::Cube cube;
  bool output = false;
};

/// Immutable compiled view of a network, built once by the constructor and
/// shared by the implication and decision engines and the generator: the
/// row tables of every LUT, CSR fanins of every node, and CSR fanouts that
/// keep only LUT readers. The engines read this view instead of net::Node,
/// whose vectors, truth table and name put each node's data in a different
/// heap block.
///
/// A LUT's rows are the ISOP cubes of its ON and OFF sets, minus every
/// cube whose literals disagree on two fanin slots that read the same
/// node: no assignment satisfies such a cube, and a decision that chose it
/// would report a target satisfied that the vector does not force.
///
/// All rows sit in one flat array, each LUT's ON-set cubes first, then its
/// OFF-set cubes. Row matching is bit-parallel: a node's rows form a bit
/// set of mask_words(node) 64-bit words (one word for every LUT of at most
/// six inputs, whose ON and OFF covers hold at most 64 cubes together).
/// For every slot of the node — fanin slot i for i < num_fanins, the
/// output at slot num_fanins — and each value 0/1, the database holds the
/// mask of rows that value on that slot contradicts. An unassigned slot
/// contradicts no row.
class RowDatabase {
 public:
  explicit RowDatabase(const net::Network& network);

  /// Fanins of \p node in slot order, as net::Network::fanins.
  [[nodiscard]] std::span<const net::NodeId> fanins(net::NodeId node) const {
    return {fanins_.data() + begin_[node].fanin, fanins_.data() + begin_[node + 1].fanin};
  }
  /// The LUT readers of \p node in net::Network::fanouts order (a reader
  /// through two slots appears twice).
  [[nodiscard]] std::span<const net::NodeId> lut_fanouts(net::NodeId node) const {
    return {lut_fanouts_.data() + begin_[node].fanout,
            lut_fanouts_.data() + begin_[node + 1].fanout};
  }
  /// True iff \p node is a LUT. Every LUT has a row: its ON and OFF covers
  /// hold each assignment of its fanin nodes.
  [[nodiscard]] bool is_lut(net::NodeId node) const {
    return begin_[node + 1].row != begin_[node].row;
  }

  /// All rows (ON-set then OFF-set) of LUT node \p node; empty for other
  /// nodes. Valid as long as the database.
  [[nodiscard]] std::span<const Row> rows(net::NodeId node) const {
    return {rows_.data() + begin_[node].row, rows_.data() + begin_[node + 1].row};
  }

  /// Words in each row mask of \p node: ceil(rows(node).size() / 64).
  [[nodiscard]] std::size_t mask_words(net::NodeId node) const {
    return (begin_[node + 1].row - begin_[node].row + 63) / 64;
  }
  /// The largest mask_words over all nodes (a scratch size for callers).
  [[nodiscard]] std::size_t max_mask_words() const noexcept { return max_mask_words_; }

  /// The 2 * (fanins(node).size() + 1) row masks of \p node, mask_words(node)
  /// words each: the rows that value b on slot s contradicts start at word
  /// (2s + b) * mask_words(node).
  [[nodiscard]] const std::uint64_t* masks(net::NodeId node) const {
    return masks_.data() + begin_[node].mask;
  }

  /// Writes into \p matched the rows of LUT node \p node that no assigned
  /// value around it contradicts, in row order (bit i of word w is row
  /// 64w + i), and returns the node's open fanin slots (bit v set iff
  /// fanin v is unassigned). \p matched holds kWords words, or
  /// mask_words(node) when kWords is 0: the implication kernel
  /// instantiates the one-word case at compile time.
  template <std::size_t kWords>
  std::uint32_t gather(const NodeValues& values, net::NodeId node,
                       std::uint64_t* matched) const {
    const std::size_t words = kWords != 0 ? kWords : mask_words(node);
    const std::span<const net::NodeId> slots = fanins(node);
    const std::uint64_t* node_masks = masks(node);
    // Masks are selected from the value codes without branching (an
    // unknown slot's mask is cleared, not skipped): code & 1 is the value
    // of an assigned slot, code >> 1 is 1 iff the slot is unassigned.
    static_assert(static_cast<unsigned>(TVal::kZero) == 0 &&
                  static_cast<unsigned>(TVal::kOne) == 1 &&
                  static_cast<unsigned>(TVal::kUnknown) == 2);
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    // ON and OFF rows partition the node's rows, so the output's two masks
    // together are every row; a known output kills the plane it
    // contradicts.
    const std::uint64_t* out_masks = node_masks + 2 * slots.size() * words;
    const auto out = static_cast<unsigned>(values.get(node));
    const std::uint64_t out_assigned = out < 2 ? kAll : 0;
    const std::uint64_t* out_killed = out_masks + (out & 1u) * words;
    for (std::size_t w = 0; w < words; ++w)
      matched[w] = (out_masks[w] | out_masks[words + w]) & ~(out_killed[w] & out_assigned);
    std::uint32_t open = 0;
    for (unsigned v = 0; v < slots.size(); ++v) {
      const auto value = static_cast<unsigned>(values.get(slots[v]));
      const std::uint64_t assigned = value < 2 ? kAll : 0;
      open |= (value >> 1) << v;
      const std::uint64_t* killed = node_masks + (2 * v + (value & 1u)) * words;
      for (std::size_t w = 0; w < words; ++w) matched[w] &= ~(killed[w] & assigned);
    }
    return open;
  }

  /// gather's row set alone, into \p matched (mask_words(node) words).
  /// Returns false iff no row matches: the assignment contradicts the
  /// node's function.
  bool match(const NodeValues& values, net::NodeId node,
             std::span<std::uint64_t> matched) const {
    gather<0>(values, node, matched.data());
    std::uint64_t any = 0;
    for (const std::uint64_t word : matched) any |= word;
    return any != 0;
  }

 private:
  /// Where a node's slices of the flat arrays begin; entry num_nodes closes
  /// the last node's slices.
  struct Begin {
    std::uint32_t fanin = 0;
    std::uint32_t fanout = 0;
    std::uint32_t row = 0;
    std::uint32_t mask = 0;
  };
  std::vector<Begin> begin_;  ///< num_nodes + 1 entries.
  std::vector<net::NodeId> fanins_;
  std::vector<net::NodeId> lut_fanouts_;
  std::vector<Row> rows_;
  /// Per LUT node, 2 * (num_fanins + 1) masks of mask_words(node) words:
  /// the mask of slot s and value b starts at word (2s + b) * mask_words.
  std::vector<std::uint64_t> masks_;
  std::size_t max_mask_words_ = 0;
};

/// Number of rows in the row set \p matched.
[[nodiscard]] inline std::size_t count_rows(std::span<const std::uint64_t> matched) {
  std::size_t count = 0;
  for (const std::uint64_t word : matched) count += static_cast<std::size_t>(std::popcount(word));
  return count;
}

/// Reference definition of row matching, one row at a time: true iff
/// \p row is compatible with the current assignment around \p node — the
/// output (if assigned) equals the row's output, and every assigned fanin
/// with a literal in the cube matches the literal. The engines use the
/// compiled masks; tests check them against this.
[[nodiscard]] bool row_matches(const net::Network& network, const NodeValues& values,
                               net::NodeId node, const Row& row);

/// Collects the indices of all matching rows of \p node by row_matches.
[[nodiscard]] std::vector<std::size_t> matching_rows(const net::Network& network,
                                                     const RowDatabase& rows,
                                                     const NodeValues& values,
                                                     net::NodeId node);

}  // namespace simgen::core
