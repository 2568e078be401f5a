#include "mapping/lut_mapper.hpp"

#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace simgen::mapping {
namespace {

/// Structural-hashing key for emitted LUTs: identical (fanins, function)
/// pairs share one network node, as any production mapper's netlist
/// database would (two AIG nodes whose best cuts coincide must not become
/// two separate LUTs).
struct LutKey {
  std::vector<net::NodeId> fanins;
  std::uint64_t function_hash = 0;

  bool operator==(const LutKey&) const = default;
};

struct LutKeyHash {
  std::size_t operator()(const LutKey& key) const noexcept {
    std::uint64_t h = key.function_hash;
    for (const net::NodeId fanin : key.fanins)
      h = util::splitmix64(h ^ fanin);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

net::Network map_to_luts(const aig::Aig& graph) {
  const CutSet cuts(graph);

  // Mark the AND nodes whose best cuts form the cover: start from the PO
  // drivers and pull in the best-cut leaves transitively. Track polarity
  // usage separately so a node referenced only through complemented POs
  // does not also emit a dangling positive LUT.
  std::vector<bool> required(graph.num_nodes(), false);
  std::vector<bool> used_positive(graph.num_nodes(), false);
  std::vector<std::uint32_t> stack;
  const auto require = [&](std::uint32_t node, bool positive) {
    if (!graph.is_and(node)) return;
    if (positive) used_positive[node] = true;
    if (required[node]) return;
    required[node] = true;
    stack.push_back(node);
  };
  for (std::size_t i = 0; i < graph.num_pos(); ++i) {
    const aig::Lit po = graph.po_lit(i);
    require(aig::lit_node(po), !aig::lit_complemented(po));
  }
  while (!stack.empty()) {
    const std::uint32_t node = stack.back();
    stack.pop_back();
    const Cut& cut = cuts.best_cut(node);
    // Cut leaves feed the LUT in positive polarity.
    for (unsigned v = 0; v < cut.size; ++v) require(cut.leaf(v), true);
  }

  net::Network network(graph.name());
  std::vector<net::NodeId> mapped(graph.num_nodes(), net::kNullNode);
  for (std::size_t i = 0; i < graph.num_pis(); ++i)
    mapped[aig::lit_node(graph.pi_lit(i))] = network.add_pi(graph.pi_name(i));

  std::unordered_map<LutKey, net::NodeId, LutKeyHash> strash;
  const auto emit_lut = [&](std::vector<net::NodeId> fanins, tt::TruthTable function) {
    LutKey key{fanins, function.hash()};
    const auto it = strash.find(key);
    if (it != strash.end()) return it->second;
    const net::NodeId id = network.add_lut(fanins, std::move(function));
    strash.emplace(std::move(key), id);
    return id;
  };

  // Emit one LUT per positively-used node, in topological (id) order;
  // best-cut leaves always precede their root.
  graph.for_each_and([&](std::uint32_t node) {
    if (!required[node] || !used_positive[node]) return;
    const Cut& cut = cuts.best_cut(node);
    std::vector<net::NodeId> fanins(cut.size);
    for (unsigned v = 0; v < cut.size; ++v) {
      const std::uint32_t leaf = cut.leaf(v);
      if (graph.is_constant(leaf) && mapped[leaf] == net::kNullNode)
        mapped[leaf] = network.add_constant(false);
      fanins[v] = mapped[leaf];
    }
    mapped[node] =
        emit_lut(std::move(fanins), tt::TruthTable::from_word(cut.size, cut.function));
  });

  // POs: complemented literals get a dedicated complement LUT over the
  // same cut leaves (no extra logic level), built once per AIG node.
  std::unordered_map<std::uint32_t, net::NodeId> complemented_cache;
  for (std::size_t i = 0; i < graph.num_pos(); ++i) {
    const aig::Lit po = graph.po_lit(i);
    const std::uint32_t node = aig::lit_node(po);
    net::NodeId driver;
    if (graph.is_constant(node)) {
      driver = network.add_constant(aig::lit_complemented(po));
    } else if (!aig::lit_complemented(po)) {
      driver = mapped[node];
    } else if (graph.is_pi(node)) {
      driver = emit_lut({mapped[node]}, tt::TruthTable::not_gate());
    } else {
      const auto it = complemented_cache.find(node);
      if (it != complemented_cache.end()) {
        driver = it->second;
      } else {
        const Cut& cut = cuts.best_cut(node);
        std::vector<net::NodeId> fanins(cut.size);
        for (unsigned v = 0; v < cut.size; ++v) fanins[v] = mapped[cut.leaf(v)];
        driver = emit_lut(std::move(fanins),
                          tt::TruthTable::from_word(cut.size, ~cut.function));
        complemented_cache.emplace(node, driver);
      }
    }
    network.add_po(driver, graph.po_name(i));
  }

  return network;
}

}  // namespace simgen::mapping
