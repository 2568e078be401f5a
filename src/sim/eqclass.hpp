/// \file eqclass.hpp
/// \brief Equivalence-class management by signature refinement.
///
/// An equivalence class is a set of nodes whose outputs have agreed on
/// every simulated pattern so far (paper Section 2.3). Classes shrink
/// monotonically: each simulation batch partitions every class by the
/// nodes' 64-bit value words. The class manager also implements the
/// paper's cost metric, Equation 5: cost = sum over classes (|class|-1),
/// the worst-case number of pairwise SAT calls left.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "network/network.hpp"
#include "sim/simulator.hpp"

namespace simgen::sim {

/// Dense index of a live equivalence class within one EquivClasses
/// snapshot. Strong type: a class index is not a node id, and refine /
/// remove_node invalidate it (classes are renumbered as they split or
/// drop), so holding one across a mutation is a bug the explicit
/// re-construction makes visible.
struct ClassIdTag {};
using ClassId = util::StrongId<ClassIdTag>;

/// Partition of candidate nodes into simulation-equivalence classes.
///
/// Singleton classes are dropped eagerly (they contribute nothing to the
/// cost and need no proving). Node order inside a class follows the
/// original candidate order, so class[0] is a stable representative.
class EquivClasses {
 public:
  /// Starts with all \p candidates in one class (nothing distinguished yet).
  explicit EquivClasses(std::vector<net::NodeId> candidates);

  /// Convenience: all internal LUT nodes of \p network as candidates.
  static EquivClasses over_luts(const net::Network& network);

  /// Adopts an explicit partition verbatim (no singleton dropping, no
  /// consistency filtering). For tests and deserialization; feed the
  /// result to check::lint_eqclasses to validate it.
  static EquivClasses from_classes(std::vector<std::vector<net::NodeId>> classes);

  /// Splits every class by the nodes' value words \p node_values
  /// (indexed by NodeId; a Simulator's values() after a simulate call).
  /// Returns the number of classes that split.
  std::size_t refine(std::span<const PatternWord> node_values);

  /// Removes \p node from its class (used after a SAT proof of
  /// equivalence merges it into the representative, or to retire nodes).
  void remove_node(net::NodeId node);

  /// Paper Equation 5: worst-case remaining SAT calls.
  [[nodiscard]] std::uint64_t cost() const noexcept;

  /// Number of live (size >= 2) classes.
  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }

  [[nodiscard]] std::span<const net::NodeId> class_members(ClassId index) const {
    return classes_[index];
  }

  /// Total number of nodes still inside live classes.
  [[nodiscard]] std::size_t num_live_nodes() const noexcept;

  /// True when no class has two or more members: simulation can do no
  /// more and every remaining pair is proven or singleton.
  [[nodiscard]] bool fully_refined() const noexcept { return classes_.empty(); }

 private:
  void drop_singletons();

  std::vector<std::vector<net::NodeId>> classes_;
};

}  // namespace simgen::sim
