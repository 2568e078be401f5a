#include "mapping/cuts.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "tt/truth_table.hpp"

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
  cut.function = tt::kVarMask[0];
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
  // Distinct signature bits are distinct leaves, so a signature union of
  // more than kLutSize bits is a leaf union that large.
  const std::uint32_t signature = a.signature | b.signature;
  if (std::popcount(signature) > static_cast<int>(kLutSize)) return false;
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
  out.signature = signature;
  return true;
}

std::uint64_t expand_cut_function(std::uint64_t function, const Cut& from,
                                  const Cut& to) {
  // Both leaf lists are sorted, so leaf v of `from` sits at a position
  // p >= v of `to`. Moving the variables from the top down, position p is
  // still a don't-care when variable v is swapped into it.
  unsigned p = to.size;
  for (unsigned v = from.size; v-- > 0;) {
    do {
      if (p == v) throw std::logic_error("expand_cut_function: `to` is not a superset");
      --p;
    } while (to.leaves[p] != from.leaves[v]);
    if (p != v) function = tt::swap_vars(function, v, p);
  }
  return function;
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

  // Scratch lists, reused across nodes.
  std::vector<Cut> candidates;
  std::vector<Cut> kept;
  graph_.for_each_and([&](std::uint32_t node) {
    const aig::Lit f0 = graph_.fanin0(node);
    const aig::Lit f1 = graph_.fanin1(node);
    const auto& cuts0 = cuts_[aig::lit_node(f0)];
    const auto& cuts1 = cuts_[aig::lit_node(f1)];
    const std::uint64_t flip0 = aig::lit_complemented(f0) ? ~0ull : 0;
    const std::uint64_t flip1 = aig::lit_complemented(f1) ? ~0ull : 0;

    candidates.clear();
    for (const Cut& c0 : cuts0) {
      for (const Cut& c1 : cuts1) {
        Cut merged;
        if (!merge_cuts(c0, c1, merged)) continue;
        // Root function: AND of the (possibly complemented) fanin
        // functions re-expressed over the merged leaves.
        merged.function = (expand_cut_function(c0.function, c0, merged) ^ flip0) &
                          (expand_cut_function(c1.function, c1, merged) ^ flip1);
        unsigned depth = 0;
        for (unsigned v = 0; v < merged.size; ++v)
          depth = std::max(depth, arrival_[merged.leaves[v]] + 1);
        merged.depth = depth;
        candidates.push_back(merged);
      }
    }

    // Drop dominated cuts (a cut whose leaves include another cut's).
    kept.clear();
    for (const Cut& cut : candidates) {
      bool dominated = false;
      for (const Cut& other : kept) {
        if (other.subset_of(cut)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::erase_if(kept, [&](const Cut& other) { return cut.subset_of(other); });
      kept.push_back(cut);
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
    cuts_[node].assign(kept.begin(), kept.end());
  });
}

}  // namespace simgen::mapping
