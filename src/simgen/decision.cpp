#include "simgen/decision.hpp"

#include <bit>
#include <vector>

namespace simgen::core {

double mffc_rank(const net::Network& network, const net::MffcDepthCache& mffc,
                 net::NodeId node, const Row& row) {
  const auto fanins = network.fanins(node);
  double rank = 0.0;
  for (unsigned v = 0; v < fanins.size(); ++v) {
    // Equation 3: (1 - dc(input)) * depth(input) — only constrained
    // (non-DC) inputs contribute their fanin's MFFC depth.
    if (row.cube.has_literal(v)) rank += mffc.depth(fanins[v]);
  }
  return rank;
}

double row_priority(const net::Network& network, const net::MffcDepthCache* mffc,
                    net::NodeId node, const Row& row, DecisionStrategy strategy) {
  const auto num_vars = static_cast<unsigned>(network.fanins(node).size());
  const double dc_size = row.cube.num_dcs(num_vars);  // Equation 1
  switch (strategy) {
    case DecisionStrategy::kRandom:
      return 1.0;
    case DecisionStrategy::kDontCare:
    case DecisionStrategy::kDontCareScoap:  // SCOAP term added in decide()
      return kAlpha * dc_size;
    case DecisionStrategy::kDontCareMffc:
      return kAlpha * dc_size + kBeta * mffc_rank(network, *mffc, node, row);
  }
  return 1.0;
}

double scoap_row_bonus(const net::Network& network, const net::ScoapCosts& scoap,
                       net::NodeId node, const Row& row) {
  // Cheap-to-justify rows score higher: the bonus is 1/(1 + total
  // controllability demanded by the row's literals), in (0, 1] so it acts
  // as a tie-break under kAlpha >> kGamma-scaled terms.
  const auto fanins = network.fanins(node);
  double total = 0.0;
  for (unsigned v = 0; v < fanins.size(); ++v) {
    if (!row.cube.has_literal(v)) continue;
    total += static_cast<double>(
        std::min(scoap.cost(fanins[v], row.cube.literal_value(v)),
                 net::ScoapCosts::kUncontrollable));
  }
  return 1.0 / (1.0 + total);
}

DecisionOutcome DecisionEngine::decide(NodeValues& values, net::NodeId node,
                                       DecisionStrategy strategy,
                                       const net::MffcDepthCache* mffc,
                                       util::Rng& rng) {
  DecisionOutcome outcome;
  const auto node_rows = rows_.rows(node);
  const std::span<std::uint64_t> matched(match_.data(), rows_.mask_words(node));
  if (!rows_.match(values, node, matched)) return outcome;  // conflict: no row compatible
  // Matching row indices in ascending (row list) order.
  match_scratch_.clear();
  for (std::size_t w = 0; w < matched.size(); ++w) {
    for (std::uint64_t bits = matched[w]; bits != 0; bits &= bits - 1)
      match_scratch_.push_back(
          static_cast<std::uint32_t>(64 * w + static_cast<unsigned>(std::countr_zero(bits))));
  }

  // Roulette-wheel selection over the row priorities. A small epsilon
  // keeps zero-priority rows selectable (and covers the all-zero case,
  // e.g. every matching row has zero DCs), degrading gracefully to
  // uniform choice.
  std::size_t chosen = match_scratch_[0];
  if (match_scratch_.size() > 1) {
    constexpr double kEpsilon = 1e-6;
    double total = 0.0;
    cdf_scratch_.clear();
    for (const std::uint32_t m : match_scratch_) {
      double priority = row_priority(network_, mffc, node, node_rows[m], strategy);
      if (strategy == DecisionStrategy::kDontCareScoap && scoap_ != nullptr)
        priority += kGamma * scoap_row_bonus(network_, *scoap_, node, node_rows[m]);
      total += kEpsilon + priority;
      cdf_scratch_.push_back(total);
    }
    const double draw = rng.uniform01() * total;
    std::size_t index = 0;
    while (index + 1 < match_scratch_.size() && cdf_scratch_[index] <= draw)
      ++index;
    chosen = match_scratch_[index];
  }

  // Commit the chosen row: output value plus every non-DC input.
  const Row& row = node_rows[chosen];
  outcome.made = true;
  outcome.row_index = chosen;
  if (!values.is_assigned(node)) {
    values.assign(node, tval_of(row.output));
    ++outcome.assignments;
  }
  const auto fanins = rows_.fanins(node);
  for (unsigned v = 0; v < fanins.size(); ++v) {
    if (!row.cube.has_literal(v)) continue;
    if (!values.is_assigned(fanins[v])) {
      values.assign(fanins[v], tval_of(row.cube.literal_value(v)));
      ++outcome.assignments;
    }
  }
  return outcome;
}

DecisionOutcome decide(const net::Network& network, const RowDatabase& rows,
                       NodeValues& values, net::NodeId node,
                       DecisionStrategy strategy, const net::MffcDepthCache* mffc,
                       util::Rng& rng) {
  DecisionEngine engine(network, rows);
  return engine.decide(values, node, strategy, mffc, rng);
}

}  // namespace simgen::core
