#include "simgen/implication.hpp"

#include <bit>

namespace simgen::core {
namespace {

/// What one examination found: a conflict, or the slots forced (bit s;
/// slot num_fanins is the output) and which of them are forced to 1.
struct Examination {
  bool conflict = false;
  std::uint32_t forced = 0;
  std::uint32_t forced_one = 0;
};

/// Examines LUT \p node against \p values. kWords is the node's mask
/// width, known at compile time for the one-word case (every LUT of at
/// most six inputs), or 0 for a width read at run time, with the matching
/// rows kept in \p scratch.
template <std::size_t kWords>
Examination examine(const RowDatabase& rows, const NodeValues& values, net::NodeId node,
                    ImplicationStrategy strategy, std::uint64_t* scratch) {
  Examination result;
  std::uint64_t word[1] = {};
  std::uint64_t* const matched = kWords == 1 ? word : scratch;
  const std::size_t words = kWords != 0 ? kWords : rows.mask_words(node);
  const std::uint32_t open = rows.gather<kWords>(values, node, matched);
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < words; ++w) any |= matched[w];
  // Zero matching rows: the assignment contradicts this node's function —
  // the conflict Algorithm 1's compareVals reports.
  if (any == 0) {
    result.conflict = true;
    return result;
  }
  // Definition 2.2: simple implication fires only on a unique match. In
  // one word (any != 0) the match is unique iff clearing its lowest row
  // leaves none, which needs no population count: without POPCNT in the
  // target that count is a library call.
  if (strategy == ImplicationStrategy::kSimple) {
    if constexpr (kWords == 1) {
      if ((matched[0] & (matched[0] - 1)) != 0) return result;
    } else if (count_rows({matched, words}) != 1) {
      return result;
    }
  }

  // Definition 4.1: every value all matching rows agree on is forced —
  // slot s is forced to b when the value !b contradicts every matching
  // row; slots they disagree on stay unknown. (A unique match agrees with
  // itself everywhere, so this is Definition 2.2's step as well.) ON and
  // OFF cover every minterm, so while the output is open every completion
  // of the fanin values lies in some matching row and no open fanin can be
  // forced: only the output slot is checked. Otherwise the open fanins are.
  const std::uint32_t checked =
      values.is_assigned(node) ? open : std::uint32_t{1} << rows.fanins(node).size();
  const std::uint64_t* masks = rows.masks(node);
  for (std::uint32_t bits = checked; bits != 0; bits &= bits - 1) {
    const auto slot = static_cast<unsigned>(std::countr_zero(bits));
    const std::uint64_t* by_zero = masks + 2 * slot * words;
    const std::uint64_t* by_one = by_zero + words;
    std::uint64_t zero_keeps = 0;
    std::uint64_t one_keeps = 0;
    for (std::size_t w = 0; w < words; ++w) {
      zero_keeps |= matched[w] & ~by_zero[w];
      one_keeps |= matched[w] & ~by_one[w];
    }
    const std::uint32_t bit = std::uint32_t{1} << slot;
    result.forced_one |= zero_keeps == 0 ? bit : 0;
    result.forced |= zero_keeps == 0 || one_keeps == 0 ? bit : 0;
  }
  return result;
}

}  // namespace

ImplicationEngine::ImplicationEngine(const net::Network& network, const RowDatabase& rows)
    : rows_(rows),
      ring_(std::bit_ceil(network.num_nodes() + 1)),
      queued_(std::make_unique<bool[]>(network.num_nodes())),
      match_(rows.max_mask_words()) {
  for (net::NodeId node{0}; node < network.num_nodes(); ++node)
    queued_[node] = !rows.is_lut(node);
}

ImplicationOutcome ImplicationEngine::run(NodeValues& values,
                                          std::span<const net::NodeId> seeds,
                                          ImplicationStrategy strategy) {
  ImplicationOutcome outcome;
  // The ring's state lives in locals so that it stays in registers.
  net::NodeId* const ring = ring_.data();
  bool* const queued = queued_.get();
  const std::size_t ring_mask = ring_.size() - 1;
  std::size_t head = 0;
  std::size_t tail = 0;
  // Queues a node unless it is queued already or is not a LUT, without a
  // branch: the slot at the tail is free, so it is always written.
  const auto push = [&](net::NodeId node) {
    ring[tail & ring_mask] = node;
    tail += static_cast<std::size_t>(!queued[node]);
    queued[node] = true;
  };
  // Schedules every node whose row matching a new value of \p node can
  // change: the node itself and its LUT fanouts.
  const auto enqueue_affected = [&](net::NodeId node) {
    push(node);
    for (const net::NodeId fanout : rows_.lut_fanouts(node)) push(fanout);
  };
  for (const net::NodeId seed : seeds) enqueue_affected(seed);

  std::size_t examined = 0;
  std::size_t assignments = 0;
  while (head != tail) {
    const net::NodeId node = ring[head++ & ring_mask];
    queued[node] = false;
    ++examined;
    const Examination found =
        rows_.mask_words(node) == 1
            ? examine<1>(rows_, values, node, strategy, nullptr)
            : examine<0>(rows_, values, node, strategy, match_.data());
    if (found.conflict) {
      outcome.conflict = true;
      outcome.conflict_node = node;
      // Leave the flags of the nodes still queued clear for the next run.
      while (head != tail) queued[ring[head++ & ring_mask]] = false;
      break;
    }
    // Assign the forced slots in ascending order. The forced set comes
    // from the rows matched before any of these assignments; a fanin
    // assigned meanwhile (a duplicate of an earlier slot) is skipped.
    const std::span<const net::NodeId> fanins = rows_.fanins(node);
    for (std::uint32_t bits = found.forced; bits != 0; bits &= bits - 1) {
      const auto slot = static_cast<unsigned>(std::countr_zero(bits));
      const net::NodeId target = slot == fanins.size() ? node : fanins[slot];
      if (values.is_assigned(target)) continue;
      values.assign(target, tval_of((found.forced_one >> slot) & 1u));
      ++assignments;
      enqueue_affected(target);
    }
  }
  outcome.nodes_examined = examined;
  outcome.assignments = assignments;
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
