#include "simgen/implication.hpp"

namespace simgen::core {

ImplicationOutcome ImplicationEngine::run(NodeValues& values,
                                          std::span<const net::NodeId> seeds,
                                          ImplicationStrategy strategy) {
  ImplicationOutcome outcome;
  if (strategy == ImplicationStrategy::kNone) return outcome;

  queue_.clear();
  std::size_t head = 0;
  const auto push = [&](net::NodeId node) {
    if (queued_[node]) return;
    queued_[node] = true;
    queue_.push_back(node);
  };
  const auto enqueue_affected = [&](net::NodeId node) {
    if (network_.is_lut(node)) push(node);
    for (net::NodeId fanout : network_.fanouts(node))
      if (network_.is_lut(fanout)) push(fanout);
  };
  for (net::NodeId seed : seeds) enqueue_affected(seed);

  // Assigns a value and schedules every node whose row matching could
  // change: the assigned node itself and all of its LUT fanouts.
  const auto assign = [&](net::NodeId node, TVal value) {
    values.assign(node, value);
    ++outcome.assignments;
    enqueue_affected(node);
  };

  // Leaves queued_ flags consistent when returning early on conflict.
  const auto drain_flags = [&] {
    for (std::size_t i = head; i < queue_.size(); ++i) queued_[queue_[i]] = false;
  };

  while (head < queue_.size()) {
    const net::NodeId node = queue_[head++];
    queued_[node] = false;
    ++outcome.nodes_examined;
    const std::span<std::uint64_t> matched(match_.data(), rows_.mask_words(node));
    if (!rows_.match(values, node, matched)) {
      // Zero matching rows: the assignment contradicts this node's
      // function — the conflict Algorithm 1's compareVals reports.
      outcome.conflict = true;
      outcome.conflict_node = node;
      drain_flags();
      return outcome;
    }
    // Definition 2.2: simple implication fires only on a unique match.
    if (strategy == ImplicationStrategy::kSimple && count_rows(matched) != 1) continue;

    // Definition 4.1: assign every value all matching rows agree on — a
    // slot is forced to b when the value !b contradicts every matching
    // row; slots they disagree on stay unknown. (A unique match agrees
    // with itself everywhere, so this is Definition 2.2's step as well.)
    const auto fanins = network_.fanins(node);
    if (!values.is_assigned(node)) {
      // ON and OFF cover every minterm, so every completion of the fanin
      // values lies in some matching row: with the output open, no open
      // fanin can be forced. Only the output may be.
      const TVal out = rows_.forced(node, static_cast<unsigned>(fanins.size()), matched);
      if (out != TVal::kUnknown) assign(node, out);
      continue;
    }
    for (unsigned v = 0; v < fanins.size(); ++v) {
      if (values.is_assigned(fanins[v])) continue;  // also a duplicate fanin
      const TVal value = rows_.forced(node, v, matched);
      if (value != TVal::kUnknown) assign(fanins[v], value);
    }
  }
  return outcome;
}

ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    std::span<const net::NodeId> seeds,
                                    ImplicationStrategy strategy) {
  ImplicationEngine engine(network, rows);
  return engine.run(values, seeds, strategy);
}

ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    net::NodeId seed, ImplicationStrategy strategy) {
  return run_implications(network, rows, values, std::span(&seed, 1), strategy);
}

}  // namespace simgen::core
