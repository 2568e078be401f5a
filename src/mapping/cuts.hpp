/// \file cuts.hpp
/// \brief K-feasible cut enumeration on AIGs (priority cuts).
///
/// A cut of node n is a set of at most K nodes ("leaves") such that every
/// path from a PI to n passes through a leaf; the cone between the leaves
/// and n can then be implemented as one K-input LUT. Cut enumeration with
/// per-node priority lists is the standard engine behind ABC's "if -K 6"
/// mapper, which the paper's methodology applies to every benchmark.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "aig/aig.hpp"

namespace simgen::mapping {

/// Cut size K: every benchmark is mapped to 6-input LUTs, as by the
/// paper's "if -K 6".
inline constexpr unsigned kLutSize = 6;
/// Priority-list length per node (the trivial cut comes on top).
inline constexpr unsigned kCutsPerNode = 8;

/// One cut: sorted leaf set plus the root's function over the leaves.
///
/// The function is one 6-input truth-table word (tt's layout): variable i
/// is leaves[i], and the function does not depend on the variables from
/// `size` up, so the word repeats its low 2^size bits. A Cut owns no heap
/// block; the mapper builds a tt::TruthTable only for the LUTs it emits.
struct Cut {
  std::array<std::uint32_t, kLutSize> leaves{};
  std::uint8_t size = 0;
  std::uint32_t signature = 0;  ///< Hash-OR of leaves for fast domination tests.
  std::uint64_t function = 0;   ///< Root function; variable i = leaves[i].
  unsigned depth = 0;           ///< Arrival level if this cut is chosen.

  [[nodiscard]] std::uint32_t leaf(unsigned index) const { return leaves[index]; }

  /// True iff this cut's leaf set is a subset of \p other's (then `other`
  /// is dominated and can be discarded).
  [[nodiscard]] bool subset_of(const Cut& other) const noexcept;
};
static_assert(std::is_trivially_copyable_v<Cut>);

/// Enumerates priority cuts for every node of \p aig, ordered by depth
/// (shallow first, then small). Index into the result with the AIG node
/// id; PIs carry only their trivial cut.
class CutSet {
 public:
  explicit CutSet(const aig::Aig& graph);

  [[nodiscard]] const std::vector<Cut>& cuts_of(std::uint32_t node) const {
    return cuts_[node];
  }
  /// The depth-optimal cut of AND node \p node: the head of its list.
  [[nodiscard]] const Cut& best_cut(std::uint32_t node) const {
    return cuts_[node].front();
  }

 private:
  void enumerate();

  const aig::Aig& graph_;
  std::vector<std::vector<Cut>> cuts_;
  std::vector<unsigned> arrival_;  ///< Depth of each node's best cut.
};

/// Merges two cuts; returns false if the union exceeds kLutSize leaves.
/// On success fills \p out's leaves/size/signature (not the function).
[[nodiscard]] bool merge_cuts(const Cut& a, const Cut& b, Cut& out);

/// Re-expresses \p function (a Cut::function word over \p from's leaves)
/// over \p to's leaves, a superset; both leaf lists are sorted. Throws
/// std::logic_error if \p to is not a superset. Exposed for tests.
[[nodiscard]] std::uint64_t expand_cut_function(std::uint64_t function,
                                                const Cut& from, const Cut& to);

}  // namespace simgen::mapping
