#include "simgen/rows.hpp"

#include <algorithm>

namespace simgen::core {

RowDatabase::RowDatabase(const net::Network& network)
    : network_(network), row_begin_(network.num_nodes() + 1, 0),
      mask_begin_(network.num_nodes(), 0) {
  for (net::NodeId node{0}; node < network.num_nodes(); ++node) {
    row_begin_[node] = rows_.size();
    mask_begin_[node] = masks_.size();
    if (!network.is_lut(node)) continue;
    const tt::RowSet row_set = tt::compute_rows(network.node(node).function);
    for (const tt::Cube& cube : row_set.on.cubes) rows_.push_back(Row{cube, true});
    for (const tt::Cube& cube : row_set.off.cubes) rows_.push_back(Row{cube, false});

    const std::size_t num_rows = rows_.size() - row_begin_[node];
    const std::size_t words = (num_rows + 63) / 64;
    const std::size_t num_fanins = network.fanins(node).size();
    max_mask_words_ = std::max(max_mask_words_, words);
    masks_.resize(masks_.size() + 2 * (num_fanins + 1) * words, 0);
    std::uint64_t* masks = masks_.data() + mask_begin_[node];
    const auto set_bit = [&](std::size_t slot, bool value, std::size_t row) {
      masks[(2 * slot + (value ? 1 : 0)) * words + row / 64] |= std::uint64_t{1}
                                                                << (row % 64);
    };
    for (std::size_t r = 0; r < num_rows; ++r) {
      const Row& row = rows_[row_begin_[node] + r];
      // The output value opposite to the row's plane contradicts it, and
      // so does the value opposite to each literal on that fanin slot.
      set_bit(num_fanins, !row.output, r);
      for (unsigned v = 0; v < num_fanins; ++v)
        if (row.cube.has_literal(v)) set_bit(v, !row.cube.literal_value(v), r);
    }
  }
  row_begin_[network.num_nodes()] = rows_.size();
}

bool row_matches(const net::Network& network, const NodeValues& values,
                 net::NodeId node, const Row& row) {
  const TVal out = values.get(node);
  if (out != TVal::kUnknown && out != tval_of(row.output)) return false;
  const auto fanins = network.fanins(node);
  for (unsigned v = 0; v < fanins.size(); ++v) {
    if (!row.cube.has_literal(v)) continue;
    const TVal in = values.get(fanins[v]);
    if (in != TVal::kUnknown && in != tval_of(row.cube.literal_value(v)))
      return false;
  }
  return true;
}

std::vector<std::size_t> matching_rows(const net::Network& network,
                                       const RowDatabase& rows,
                                       const NodeValues& values, net::NodeId node) {
  std::vector<std::size_t> result;
  const auto all = rows.rows(node);
  for (std::size_t i = 0; i < all.size(); ++i)
    if (row_matches(network, values, node, all[i])) result.push_back(i);
  return result;
}

}  // namespace simgen::core
