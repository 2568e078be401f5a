/// \file rows.hpp
/// \brief Per-node truth-table rows and row matching against ternary values.
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

/// Immutable row tables of every LUT node of a network, compiled once by
/// the constructor and shared by the implication and decision engines.
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

  /// All rows (ON-set then OFF-set) of LUT node \p node; empty for other
  /// nodes. Valid as long as the database.
  [[nodiscard]] std::span<const Row> rows(net::NodeId node) const {
    return {rows_.data() + row_begin_[node], rows_.data() + row_begin_[node + 1]};
  }

  /// Words in each row mask of \p node: ceil(rows(node).size() / 64).
  [[nodiscard]] std::size_t mask_words(net::NodeId node) const {
    return (row_begin_[node + 1] - row_begin_[node] + 63) / 64;
  }
  /// The largest mask_words over all nodes (a scratch size for callers).
  [[nodiscard]] std::size_t max_mask_words() const noexcept { return max_mask_words_; }

  /// Writes into \p matched (mask_words(node) words) the rows of LUT node
  /// \p node that no assigned value around it contradicts, in row order
  /// (bit i of word w is row 64w + i). Returns false iff no row matches:
  /// the assignment contradicts the node's function.
  bool match(const NodeValues& values, net::NodeId node,
             std::span<std::uint64_t> matched) const {
    const auto fanins = network_.fanins(node);
    const std::size_t words = matched.size();
    const std::uint64_t* masks = masks_.data() + mask_begin_[node];
    // ON and OFF rows partition the node's rows, so the output's two
    // masks together are every row; a known output keeps the plane its
    // complement contradicts. Masks are selected from the value codes
    // without branching (an unknown slot's mask is cleared, not skipped):
    // code & 1 is the value of an assigned slot, code < 2 means assigned.
    static_assert(static_cast<unsigned>(TVal::kZero) == 0 &&
                  static_cast<unsigned>(TVal::kOne) == 1 &&
                  static_cast<unsigned>(TVal::kUnknown) == 2);
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    const auto out = static_cast<unsigned>(values.get(node));
    const std::uint64_t* on_rows = masks + 2 * fanins.size() * words;  // output 0 contradicts
    const std::uint64_t* off_rows = on_rows + words;                    // output 1 contradicts
    const std::uint64_t keep_on = out == 0 ? 0 : kAll;
    const std::uint64_t keep_off = out == 1 ? 0 : kAll;
    for (std::size_t w = 0; w < words; ++w)
      matched[w] = (on_rows[w] & keep_on) | (off_rows[w] & keep_off);
    for (unsigned v = 0; v < fanins.size(); ++v) {
      const auto value = static_cast<unsigned>(values.get(fanins[v]));
      const std::uint64_t assigned = value < 2 ? kAll : 0;
      const std::uint64_t* killed = masks + (2 * v + (value & 1u)) * words;
      for (std::size_t w = 0; w < words; ++w) matched[w] &= ~(killed[w] & assigned);
    }
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words; ++w) any |= matched[w];
    return any != 0;
  }

  /// The value slot \p slot of \p node must take for any row of the
  /// non-empty set \p matched to hold: b when the other value contradicts
  /// every row of \p matched, kUnknown when neither value does.
  [[nodiscard]] TVal forced(net::NodeId node, unsigned slot,
                            std::span<const std::uint64_t> matched) const {
    const std::size_t words = matched.size();
    const std::uint64_t* by_zero = masks_.data() + mask_begin_[node] + 2 * slot * words;
    const std::uint64_t* by_one = by_zero + words;
    std::uint64_t zero_keeps = 0;
    std::uint64_t one_keeps = 0;
    for (std::size_t w = 0; w < words; ++w) {
      zero_keeps |= matched[w] & ~by_zero[w];
      one_keeps |= matched[w] & ~by_one[w];
    }
    if (zero_keeps == 0) return TVal::kOne;
    if (one_keeps == 0) return TVal::kZero;
    return TVal::kUnknown;
  }

  [[nodiscard]] const net::Network& network() const noexcept { return network_; }

 private:
  const net::Network& network_;
  std::vector<Row> rows_;
  std::vector<std::size_t> row_begin_;   ///< num_nodes + 1 offsets into rows_.
  /// Per LUT node, 2 * (num_fanins + 1) masks of mask_words(node) words:
  /// the mask of slot s and value b starts at word (2s + b) * mask_words.
  std::vector<std::uint64_t> masks_;
  std::vector<std::size_t> mask_begin_;  ///< Per node offset into masks_.
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
