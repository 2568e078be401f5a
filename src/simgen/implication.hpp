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
#include <memory>
#include <span>
#include <vector>

#include "network/network.hpp"
#include "simgen/rows.hpp"
#include "simgen/tval.hpp"

namespace simgen::core {

/// The codes are fixed: parameterized tests print them in their names.
enum class ImplicationStrategy : std::uint8_t {
  kSimple = 1,    ///< Definition 2.2: single-matching-row implication.
  kAdvanced = 2,  ///< Definition 4.1: agreed-value implication.
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
/// examination reads the RowDatabase's flat view: the fanins' values, the
/// matching rows from the row masks, and the LUT fanouts to schedule.
class ImplicationEngine {
 public:
  ImplicationEngine(const net::Network& network, const RowDatabase& rows);

  /// Runs implications to fixpoint starting from \p seeds (nodes whose
  /// value or surroundings just changed). Propagation spreads to fanins
  /// and fanouts of every node that receives a value. Conflicts leave
  /// \p values dirty; the caller rolls back via its own mark (Algorithm 1
  /// line 12).
  ImplicationOutcome run(NodeValues& values, std::span<const net::NodeId> seeds,
                         ImplicationStrategy strategy);

 private:
  const RowDatabase& rows_;
  /// The worklist: a FIFO ring of bit_ceil(num_nodes + 1) entries, so it
  /// holds every node at once and still has a free slot at the tail.
  std::vector<net::NodeId> ring_;
  /// True while a LUT is in the ring, and always for a node that is not a
  /// LUT, so a push never queues one. (bool, unlike a byte type, lets the
  /// compiler keep the ring's indices in registers across the stores.)
  std::unique_ptr<bool[]> queued_;
  std::vector<std::uint64_t> match_;  ///< Multi-word matching rows of the examined node.
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
