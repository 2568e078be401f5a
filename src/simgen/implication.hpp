/// \file implication.hpp
/// \brief Implication engines: simple (Def. 2.2) and advanced (Def. 4.1).
///
/// Implication deduces forced values from the current partial assignment
/// and the nodes' functions, both backward (output to inputs) and forward
/// (inputs to output), independent of node levels — the generalization the
/// paper makes over classic reverse simulation.
///
/// * Simple implication fires only when exactly one row of a node matches
///   the current assignment; it then assigns that row's values.
/// * Advanced implication fires when several rows match but agree on some
///   value: every agreed value is assigned, disagreeing positions stay X.
///   (One matching row is the degenerate agreeing case, so advanced
///   subsumes simple.)
///
/// A node with zero matching rows is the conflict the paper's compareVals
/// detects: the partial assignment contradicts the node's function.
#pragma once

#include <cstdint>

#include "network/network.hpp"
#include "simgen/rows.hpp"
#include "simgen/tval.hpp"

namespace simgen::core {

enum class ImplicationStrategy : std::uint8_t {
  kNone,      ///< Do not imply at all (used by ablations).
  kSimple,    ///< Definition 2.2: single-matching-row implication.
  kAdvanced,  ///< Definition 4.1: agreed-value implication.
};

/// Outcome of an implication fixpoint run.
struct ImplicationOutcome {
  bool conflict = false;
  net::NodeId conflict_node = net::kNullNode;  ///< Node with zero matching rows.
  std::size_t assignments = 0;                  ///< Values newly assigned.
  std::size_t nodes_examined = 0;
};

/// Implication engine with persistent scratch buffers. Algorithm 1 calls
/// implication once per decision, thousands of times per vector batch;
/// reusing the worklist storage keeps that loop allocation-free. Each
/// examined node's matching rows come from the RowDatabase masks.
class ImplicationEngine {
 public:
  ImplicationEngine(const net::Network& network, const RowDatabase& rows)
      : network_(network),
        rows_(rows),
        queued_(network.num_nodes(), false),
        match_(rows.max_mask_words()) {}

  /// Runs implications to fixpoint starting from \p seeds (nodes whose
  /// value or surroundings just changed). Propagation spreads to fanins
  /// and fanouts of every node that receives a value. Conflicts leave
  /// \p values dirty; the caller rolls back via its own mark (Algorithm 1
  /// line 12).
  ImplicationOutcome run(NodeValues& values, std::span<const net::NodeId> seeds,
                         ImplicationStrategy strategy);

 private:
  const net::Network& network_;
  const RowDatabase& rows_;
  std::vector<bool> queued_;
  std::vector<net::NodeId> queue_;
  std::vector<std::uint64_t> match_;  ///< Matching-row mask of the examined node.
};

/// One-shot convenience wrappers (tests, small callers).
ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    std::span<const net::NodeId> seeds,
                                    ImplicationStrategy strategy);
ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    net::NodeId seed, ImplicationStrategy strategy);

}  // namespace simgen::core
