/// \file tval.hpp
/// \brief Ternary node values and the trail-backed assignment map.
///
/// During input-vector generation every node carries one of {0, 1, X}
/// (X = unassigned / don't-care, per the paper's propagation definition
/// 2.1: "a don't-care is treated as an unassigned value"). NodeValues is
/// the nodeVals map of Algorithm 1; the trail makes the algorithm's
/// initVals save/restore (lines 4 and 12) an O(changes) rollback instead
/// of a full copy.
#pragma once

#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "util/dcheck.hpp"

namespace simgen::core {

enum class TVal : std::uint8_t { kZero = 0, kOne = 1, kUnknown = 2 };

[[nodiscard]] constexpr TVal tval_of(bool bit) noexcept {
  return bit ? TVal::kOne : TVal::kZero;
}
[[nodiscard]] constexpr char tval_char(TVal value) noexcept {
  switch (value) {
    case TVal::kZero: return '0';
    case TVal::kOne: return '1';
    case TVal::kUnknown: return 'X';
  }
  return '?';
}

/// Ternary assignment for every node of a network, with rollback.
class NodeValues {
 public:
  explicit NodeValues(std::size_t num_nodes)
      : values_(num_nodes, TVal::kUnknown) {}

  [[nodiscard]] TVal get(net::NodeId node) const { return values_[node]; }
  [[nodiscard]] bool is_assigned(net::NodeId node) const {
    return values_[node] != TVal::kUnknown;
  }

  /// Assigns \p value to an unassigned node and records it on the trail.
  /// Precondition: the node is unassigned (callers check compatibility
  /// first; assigning over an existing value is the conflict the paper's
  /// compareVals detects and must never reach this point). The generator
  /// relies on it: a node enters the trail at most once per target.
  void assign(net::NodeId node, TVal value) {
    SIMGEN_DCHECK(!is_assigned(node), "NodeValues::assign over an assigned node");
    values_[node] = value;
    trail_.push_back(node);
  }

  /// Current trail position; pass to rollback_to to undo later changes.
  [[nodiscard]] std::size_t mark() const noexcept { return trail_.size(); }

  /// Undoes every assignment made after \p mark (Algorithm 1 line 12:
  /// nodeVals = initVals).
  void rollback_to(std::size_t mark) {
    while (trail_.size() > mark) {
      values_[trail_.back()] = TVal::kUnknown;
      trail_.pop_back();
    }
  }

  /// Nodes assigned since the beginning, most recent last. Used for the
  /// latestUpdated candidate selection of Algorithm 1 (line 15).
  [[nodiscard]] const std::vector<net::NodeId>& trail() const noexcept {
    return trail_;
  }

  [[nodiscard]] std::size_t num_assigned() const noexcept { return trail_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// Clears all assignments and the trail.
  void reset() {
    for (net::NodeId node : trail_) values_[node] = TVal::kUnknown;
    trail_.clear();
  }

 private:
  std::vector<TVal> values_;
  std::vector<net::NodeId> trail_;
};

}  // namespace simgen::core
