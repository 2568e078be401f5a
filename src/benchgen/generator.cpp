#include "benchgen/generator.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace simgen::benchgen {
namespace {

using aig::Aig;
using aig::Lit;

/// Operand pool with recency bias: drawing mostly recent literals builds
/// depth, occasional old draws create reconvergent fanout.
class OperandPool {
 public:
  explicit OperandPool(util::Rng& rng) : rng_(rng) {}

  void push(Lit lit) { pool_.push_back(lit); }

  Lit draw() {
    // 70%: one of the most recent 24 literals; 30%: uniform over all.
    std::size_t index;
    if (pool_.size() > 24 && rng_.chance(0.7)) {
      index = pool_.size() - 1 - rng_.below(24);
    } else {
      index = rng_.below(pool_.size());
    }
    const Lit lit = pool_[index];
    return rng_.flip() ? aig::lit_not(lit) : lit;
  }

  /// A literal that is not (up to complement) \p avoid, when possible.
  Lit draw_other(Lit avoid) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Lit lit = draw();
      if (aig::lit_node(lit) != aig::lit_node(avoid)) return lit;
    }
    return draw();
  }

  [[nodiscard]] std::size_t size() const noexcept { return pool_.size(); }
  [[nodiscard]] Lit at(std::size_t index) const { return pool_[index]; }

 private:
  util::Rng& rng_;
  std::vector<Lit> pool_;
};

/// Per-style opcode distribution (cumulative percentages).
struct OpMix {
  unsigned and_or = 50;   ///< 2-input and/or/nand/nor.
  unsigned xor_like = 15; ///< xor/xnor.
  unsigned mux = 15;      ///< 2:1 mux.
  unsigned maj = 5;       ///< majority-of-3.
  unsigned wide = 15;     ///< wide and/or macro (3..8 operands).
};

OpMix mix_for(CircuitStyle style) {
  switch (style) {
    case CircuitStyle::kControl:
      return OpMix{55, 5, 25, 2, 13};
    case CircuitStyle::kArithmetic:
      return OpMix{30, 40, 10, 15, 5};
    case CircuitStyle::kRandomLogic:
      return OpMix{35, 8, 7, 2, 48};
  }
  return OpMix{};
}

/// Emits one random gate and returns its literal.
Lit random_gate(Aig& graph, OperandPool& pool, util::Rng& rng, const OpMix& mix) {
  const unsigned roll = static_cast<unsigned>(rng.below(100));
  const Lit a = pool.draw();
  if (roll < mix.and_or) {
    const Lit b = pool.draw_other(a);
    const Lit base = graph.and2(a, b);
    return rng.flip() ? aig::lit_not(base) : base;  // and/nand (or via complements)
  }
  if (roll < mix.and_or + mix.xor_like) {
    const Lit b = pool.draw_other(a);
    return graph.xor2(a, b);
  }
  if (roll < mix.and_or + mix.xor_like + mix.mux) {
    const Lit s = pool.draw();
    const Lit t = pool.draw_other(s);
    const Lit e = pool.draw_other(s);
    return graph.mux(s, t, e);
  }
  if (roll < mix.and_or + mix.xor_like + mix.mux + mix.maj) {
    const Lit b = pool.draw_other(a);
    const Lit c = pool.draw_other(a);
    return graph.maj3(a, b, c);
  }
  // Wide and/or macro: biased deep signal, hard for random simulation.
  const unsigned width = 3 + static_cast<unsigned>(rng.below(6));
  Lit acc = a;
  for (unsigned i = 1; i < width; ++i) acc = graph.and2(acc, pool.draw_other(acc));
  return rng.flip() ? aig::lit_not(acc) : acc;  // wide-AND or wide-OR (De Morgan)
}

/// Rebuilds the cone of \p lit with PI \p var fixed to \p value
/// (structural cofactor). Memoized per call; constants fold away inside
/// and2, so the rebuilt cone differs structurally from the original.
Lit build_cofactor(Aig& graph, Lit lit, std::uint32_t var_node, bool value,
                   std::unordered_map<std::uint32_t, Lit>& memo) {
  const std::uint32_t node = aig::lit_node(lit);
  Lit result;
  if (node == var_node) {
    result = value ? aig::kLitTrue : aig::kLitFalse;
  } else if (!graph.is_and(node)) {
    result = aig::make_lit(node, false);
  } else if (const auto it = memo.find(node); it != memo.end()) {
    result = it->second;
  } else {
    const Lit f0 = build_cofactor(graph, graph.fanin0(node), var_node, value, memo);
    const Lit f1 = build_cofactor(graph, graph.fanin1(node), var_node, value, memo);
    result = graph.and2(f0, f1);
    memo.emplace(node, result);
  }
  return aig::lit_complemented(lit) ? aig::lit_not(result) : result;
}

/// PIs in the transitive fanin cone of \p lit.
std::vector<std::uint32_t> cone_pis(const Aig& graph, Lit lit) {
  std::vector<std::uint32_t> pis;
  std::vector<bool> seen(graph.num_nodes(), false);
  std::vector<std::uint32_t> stack{aig::lit_node(lit)};
  seen[stack[0]] = true;
  while (!stack.empty()) {
    const std::uint32_t node = stack.back();
    stack.pop_back();
    if (graph.is_pi(node)) {
      pis.push_back(node);
      continue;
    }
    if (!graph.is_and(node)) continue;
    for (const Lit fanin : {graph.fanin0(node), graph.fanin1(node)}) {
      const std::uint32_t fanin_node = aig::lit_node(fanin);
      if (!seen[fanin_node]) {
        seen[fanin_node] = true;
        stack.push_back(fanin_node);
      }
    }
  }
  return pis;
}

/// Rebuilds \p target as a Shannon expansion over one of its support PIs:
/// mux(x, f|x=1, f|x=0). The result computes the same function through a
/// structurally independent top — the target's own output node is not in
/// the rebuilt cone, exactly like the duplicated logic real synthesis
/// flows leave behind. Falls back to \p target when no support PI exists.
Lit shannon_rebuild(Aig& graph, util::Rng& rng, Lit target) {
  const std::vector<std::uint32_t> support = cone_pis(graph, target);
  if (support.empty()) return target;
  const std::uint32_t var_node = support[rng.below(support.size())];
  std::unordered_map<std::uint32_t, Lit> memo0, memo1;
  const Lit c0 = build_cofactor(graph, target, var_node, false, memo0);
  const Lit c1 = build_cofactor(graph, target, var_node, true, memo1);
  return graph.mux(aig::make_lit(var_node, false), c1, c0);
}

/// Builds a functionally-equal, structurally-different re-expression of
/// \p target. Structural hashing cannot collapse any of these identities,
/// so the pair (target, result) lands in one simulation class and must be
/// proven by the sweeper. Shannon rebuilds dominate the mix: they produce
/// structurally *independent* equivalences (neither node in the other's
/// cone), the common case for real duplicated logic; the parasitic
/// absorption/xor identities are kept as a minority seasoning.
Lit redundant_copy(Aig& graph, OperandPool& pool, util::Rng& rng, Lit target) {
  switch (rng.below(4)) {
    case 0: {  // absorption: f == f & (f | g)
      const Lit g = pool.draw_other(target);
      return graph.and2(target, graph.or2(target, g));
    }
    case 1: {  // xor masking: f == (f ^ g) ^ g
      const Lit g = pool.draw_other(target);
      return graph.xor2(graph.xor2(target, g), g);
    }
    default:  // Shannon expansion (structurally independent)
      return shannon_rebuild(graph, rng, target);
  }
}

/// Builds a node equal to \p target everywhere except on one rare input
/// cube (an AND of 7..9 PI literals). Random simulation almost never
/// separates the pair; justification-based simulation can.
Lit near_miss_copy(Aig& graph, util::Rng& rng, Lit target) {
  const std::size_t num_pis = graph.num_pis();
  // Distinct PIs make the cube's on-probability exactly 2^-width; a
  // repeated PI with mixed polarity would fold the cube to constant 0
  // and the "decoy" would strash back into the target.
  const unsigned width = static_cast<unsigned>(
      std::min<std::size_t>(11 + rng.below(3), num_pis));
  std::vector<std::size_t> indices(num_pis);
  for (std::size_t i = 0; i < num_pis; ++i) indices[i] = i;
  Lit cube = aig::kLitTrue;
  for (unsigned i = 0; i < width; ++i) {
    const std::size_t pick = i + rng.below(num_pis - i);
    std::swap(indices[i], indices[pick]);
    const Lit pi = graph.pi_lit(indices[i]);
    cube = graph.and2(cube, rng.flip() ? aig::lit_not(pi) : pi);
  }
  // Perturb a structurally independent rebuild of the target (so the
  // decoy is not parasitically downstream of it), up or down:
  // f' = rebuild(f) | cube  or  f' = rebuild(f) & !cube.
  const Lit base = shannon_rebuild(graph, rng, target);
  return rng.flip() ? graph.or2(base, cube)
                    : graph.and2(base, aig::lit_not(cube));
}

}  // namespace

Aig generate_circuit(const CircuitSpec& spec) {
  const std::uint64_t seed =
      spec.seed != 0 ? spec.seed : util::splitmix64(util::fnv1a(spec.name));
  util::Rng rng(seed);
  Aig graph(spec.name);

  OperandPool pool(rng);
  for (unsigned i = 0; i < spec.num_pis; ++i)
    pool.push(graph.add_pi("pi" + std::to_string(i)));

  const OpMix mix = mix_for(spec.style);
  std::vector<Lit> redundant_outputs;
  while (graph.num_ands() < spec.num_gates) {
    Lit lit;
    const double roll = rng.uniform01();
    if (graph.num_ands() > 32 && roll < spec.redundancy) {
      // Re-express an existing signal; keep it in circulation so later
      // gates give the equivalent pair real fanout. Targets come from the
      // shallow third of the pool: synthesis redundancy is local, and the
      // resulting equivalence miters stay SAT-tractable (the paper's
      // sweeper proves thousands of such pairs in milliseconds).
      const Lit target = pool.at(rng.below(1 + pool.size() / 3));
      lit = redundant_copy(graph, pool, rng, target);
      redundant_outputs.push_back(lit);
    } else if (graph.num_ands() > 32 &&
               roll < spec.redundancy + spec.near_miss) {
      // Near-miss decoys may sit anywhere in the cone: disproving them is
      // a SAT (not UNSAT) query, which stays cheap at any depth.
      const Lit target = pool.at(rng.below(pool.size()));
      lit = near_miss_copy(graph, rng, target);
      redundant_outputs.push_back(lit);
    } else {
      lit = random_gate(graph, pool, rng, mix);
    }
    pool.push(lit);
  }

  // POs: dangling signals first (nothing generated should be dead), then
  // recent pool draws. Redundant outputs are prioritized so the injected
  // equivalences always stay inside the PO cones.
  std::vector<std::uint32_t> fanout_count(graph.num_nodes(), 0);
  graph.for_each_and([&](std::uint32_t node) {
    ++fanout_count[aig::lit_node(graph.fanin0(node))];
    ++fanout_count[aig::lit_node(graph.fanin1(node))];
  });
  std::vector<Lit> po_candidates;
  std::unordered_map<std::uint32_t, bool> po_taken;  // node -> already a PO
  const auto push_candidate = [&](Lit lit) {
    auto [it, inserted] = po_taken.emplace(aig::lit_node(lit), true);
    if (inserted) po_candidates.push_back(lit);
  };
  for (Lit lit : redundant_outputs)
    if (fanout_count[aig::lit_node(lit)] == 0) push_candidate(lit);
  graph.for_each_and([&](std::uint32_t node) {
    if (fanout_count[node] == 0) push_candidate(aig::make_lit(node, false));
  });
  std::size_t next_candidate = 0;
  for (unsigned i = 0; i < spec.num_pos; ++i) {
    Lit po;
    if (next_candidate < po_candidates.size()) {
      po = po_candidates[next_candidate++];
    } else {
      // Distinct PO drivers keep putontop stacks from folding away: a
      // duplicated PO literal would alias two inputs of the copy above.
      po = pool.draw();
      for (int attempt = 0; attempt < 16 && po_taken.contains(aig::lit_node(po));
           ++attempt)
        po = pool.draw();
      po_taken.emplace(aig::lit_node(po), true);
    }
    graph.add_po(po, "po" + std::to_string(i));
  }
  // Surplus dangling signals beyond num_pos are folded into the last POs
  // pairwise so no generated logic is unreachable from the outputs.
  if (next_candidate < po_candidates.size() && spec.num_pos > 0) {
    // Re-register extra candidates by XOR-compacting them into one extra PO.
    Lit acc = po_candidates[next_candidate++];
    while (next_candidate < po_candidates.size())
      acc = graph.xor2(acc, po_candidates[next_candidate++]);
    graph.add_po(acc, "po_compact");
  }
  graph.check_invariants();
  return graph;
}

net::Network generate_mapped(const CircuitSpec& spec) {
  return mapping::map_to_luts(generate_circuit(spec));
}

}  // namespace simgen::benchgen
