#include "mapping/cuts.hpp"

#include <algorithm>
#include <stdexcept>

namespace simgen::mapping {
namespace {

std::uint32_t leaf_signature_bit(std::uint32_t leaf) noexcept {
  return 1u << (leaf & 31u);
}

Cut trivial_cut(std::uint32_t node, unsigned arrival) {
  Cut cut;
  cut.leaves[0] = node;
  cut.size = 1;
  cut.signature = leaf_signature_bit(node);
  cut.function = tt::TruthTable::projection(1, 0);
  cut.depth = arrival;
  return cut;
}

}  // namespace

bool Cut::subset_of(const Cut& other) const noexcept {
  if (size > other.size) return false;
  if ((signature & ~other.signature) != 0) return false;
  unsigned j = 0;
  for (unsigned i = 0; i < size; ++i) {
    while (j < other.size && other.leaves[j] < leaves[i]) ++j;
    if (j == other.size || other.leaves[j] != leaves[i]) return false;
  }
  return true;
}

bool merge_cuts(const Cut& a, const Cut& b, Cut& out) {
  // Merge two sorted leaf arrays, bailing out when the union grows past
  // kLutSize.
  unsigned i = 0, j = 0, n = 0;
  while (i < a.size || j < b.size) {
    std::uint32_t next;
    if (j == b.size || (i < a.size && a.leaves[i] < b.leaves[j])) {
      next = a.leaves[i++];
    } else if (i == a.size || b.leaves[j] < a.leaves[i]) {
      next = b.leaves[j++];
    } else {
      next = a.leaves[i];
      ++i;
      ++j;
    }
    if (n == kLutSize) return false;
    out.leaves[n++] = next;
  }
  out.size = static_cast<std::uint8_t>(n);
  out.signature = a.signature | b.signature;
  return true;
}

tt::TruthTable expand_cut_function(const tt::TruthTable& function, const Cut& from,
                                   const Cut& to) {
  // Map each variable of `from` to its position in `to`.
  std::array<unsigned, kLutSize> position{};
  for (unsigned v = 0; v < from.size; ++v) {
    unsigned p = 0;
    while (p < to.size && to.leaves[p] != from.leaves[v]) ++p;
    if (p == to.size)
      throw std::logic_error("expand_cut_function: `to` is not a superset");
    position[v] = p;
  }
  tt::TruthTable result(to.size);
  const auto num_minterms = static_cast<std::uint32_t>(result.num_bits());
  for (std::uint32_t m = 0; m < num_minterms; ++m) {
    std::uint32_t from_minterm = 0;
    for (unsigned v = 0; v < from.size; ++v)
      if ((m >> position[v]) & 1u) from_minterm |= 1u << v;
    if (function.get_bit(from_minterm)) result.set_bit(m, true);
  }
  return result;
}

CutSet::CutSet(const aig::Aig& graph)
    : graph_(graph), cuts_(graph.num_nodes()), arrival_(graph.num_nodes(), 0) {
  enumerate();
}

void CutSet::enumerate() {
  // PIs and the constant node get their trivial cut only.
  for (std::size_t i = 0; i < graph_.num_pis(); ++i) {
    const std::uint32_t node = aig::lit_node(graph_.pi_lit(i));
    cuts_[node].push_back(trivial_cut(node, 0));
  }
  cuts_[0].push_back(trivial_cut(0, 0));  // constant node

  graph_.for_each_and([&](std::uint32_t node) {
    const aig::Lit f0 = graph_.fanin0(node);
    const aig::Lit f1 = graph_.fanin1(node);
    const auto& cuts0 = cuts_[aig::lit_node(f0)];
    const auto& cuts1 = cuts_[aig::lit_node(f1)];

    std::vector<Cut> candidates;
    for (const Cut& c0 : cuts0) {
      for (const Cut& c1 : cuts1) {
        Cut merged;
        if (!merge_cuts(c0, c1, merged)) continue;
        // Root function: AND of the (possibly complemented) fanin
        // functions re-expressed over the merged leaves.
        tt::TruthTable g0 = expand_cut_function(c0.function, c0, merged);
        tt::TruthTable g1 = expand_cut_function(c1.function, c1, merged);
        if (aig::lit_complemented(f0)) g0 = ~g0;
        if (aig::lit_complemented(f1)) g1 = ~g1;
        merged.function = g0 & g1;
        unsigned depth = 0;
        for (unsigned v = 0; v < merged.size; ++v)
          depth = std::max(depth, arrival_[merged.leaves[v]] + 1);
        merged.depth = depth;
        candidates.push_back(std::move(merged));
      }
    }

    // Drop dominated cuts (a cut whose leaves include another cut's).
    std::vector<Cut> kept;
    for (Cut& cut : candidates) {
      bool dominated = false;
      for (const Cut& other : kept) {
        if (other.subset_of(cut)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::erase_if(kept, [&](const Cut& other) { return cut.subset_of(other); });
      kept.push_back(std::move(cut));
    }

    // Priority order: shallow first, then small (timing-driven).
    std::sort(kept.begin(), kept.end(), [](const Cut& a, const Cut& b) {
      if (a.depth != b.depth) return a.depth < b.depth;
      return a.size < b.size;
    });
    if (kept.size() > kCutsPerNode) kept.resize(kCutsPerNode);

    arrival_[node] = kept.empty() ? 0 : kept.front().depth;

    // The trivial cut keeps enumeration complete for fanouts.
    kept.push_back(trivial_cut(node, arrival_[node]));
    cuts_[node] = std::move(kept);
  });
}

}  // namespace simgen::mapping
