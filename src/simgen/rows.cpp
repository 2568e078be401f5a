#include "simgen/rows.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace simgen::core {

RowDatabase::RowDatabase(const net::Network& network)
    : begin_(network.num_nodes() + 1) {
  // Offsets are 32-bit to keep a node's begin entry in 16 bytes.
  const auto offset = [](std::size_t size) {
    if (size > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("RowDatabase: network too large for 32-bit offsets");
    return static_cast<std::uint32_t>(size);
  };
  for (net::NodeId node{0}; node < network.num_nodes(); ++node) {
    Begin& begin = begin_[node];
    begin.fanin = offset(fanins_.size());
    begin.fanout = offset(lut_fanouts_.size());
    begin.row = offset(rows_.size());
    begin.mask = offset(masks_.size());
    const auto fanins = network.fanins(node);
    fanins_.insert(fanins_.end(), fanins.begin(), fanins.end());
    for (const net::NodeId fanout : network.fanouts(node))
      if (network.is_lut(fanout)) lut_fanouts_.push_back(fanout);
    if (!network.is_lut(node)) continue;
    const std::size_t num_fanins = fanins.size();
    // A cube whose literals disagree on two slots that read the same node
    // (x2 & !x5 where fanins 2 and 5 are one node) holds under no
    // assignment. Such a row must never be chosen: deciding it assigns
    // the shared node once, skips the disagreeing literal, and leaves the
    // output depending on fanins the vector keeps free.
    const auto satisfiable = [&](const tt::Cube& cube) {
      for (unsigned w = 1; w < num_fanins; ++w) {
        if (!cube.has_literal(w)) continue;
        for (unsigned v = 0; v < w; ++v)
          if (fanins[v] == fanins[w] && cube.has_literal(v) &&
              cube.literal_value(v) != cube.literal_value(w))
            return false;
      }
      return true;
    };
    const tt::RowSet row_set = tt::compute_rows(network.node(node).function);
    for (const tt::Cube& cube : row_set.on.cubes)
      if (satisfiable(cube)) rows_.push_back(Row{cube, true});
    for (const tt::Cube& cube : row_set.off.cubes)
      if (satisfiable(cube)) rows_.push_back(Row{cube, false});

    const std::size_t num_rows = rows_.size() - begin.row;
    SIMGEN_DCHECK(num_rows > 0, "a LUT without rows would not read as a LUT");
    const std::size_t words = (num_rows + 63) / 64;
    max_mask_words_ = std::max(max_mask_words_, words);
    masks_.resize(masks_.size() + 2 * (num_fanins + 1) * words, 0);
    std::uint64_t* masks = masks_.data() + begin.mask;
    const auto set_bit = [&](std::size_t slot, bool value, std::size_t row) {
      masks[(2 * slot + (value ? 1 : 0)) * words + row / 64] |= std::uint64_t{1}
                                                                << (row % 64);
    };
    for (std::size_t r = 0; r < num_rows; ++r) {
      const Row& row = rows_[begin.row + r];
      // The output value opposite to the row's plane contradicts it, and
      // so does the value opposite to each literal on that fanin slot.
      set_bit(num_fanins, !row.output, r);
      for (unsigned v = 0; v < num_fanins; ++v)
        if (row.cube.has_literal(v)) set_bit(v, !row.cube.literal_value(v), r);
    }
  }
  begin_[network.num_nodes()] = Begin{offset(fanins_.size()), offset(lut_fanouts_.size()),
                                      offset(rows_.size()), offset(masks_.size())};
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
