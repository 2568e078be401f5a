// Cut enumeration and LUT mapper tests. The decisive property: the mapped
// network computes exactly the AIG's function (checked by word simulation
// over many random patterns).
#include "mapping/lut_mapper.hpp"

#include <gtest/gtest.h>

#include <set>

#include "benchgen/generator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace simgen::mapping {
namespace {

TEST(Cuts, MergeRespectsSizeBound) {
  Cut a, b, c, out;
  a.leaves = {1, 3, 5};
  a.size = 3;
  b.leaves = {2, 3, 7, 9};
  b.size = 4;
  ASSERT_TRUE(merge_cuts(a, b, out));
  EXPECT_EQ(out.size, kLutSize);  // union {1,2,3,5,7,9}
  EXPECT_EQ(out.leaves[0], 1u);
  EXPECT_EQ(out.leaves[5], 9u);
  c.leaves = {2, 4, 7, 9};
  c.size = 4;
  EXPECT_FALSE(merge_cuts(a, c, out));  // union of 7 leaves
}

TEST(Cuts, SubsetDomination) {
  Cut small, large;
  small.leaves = {1, 3};
  small.size = 2;
  small.signature = (1u << 1) | (1u << 3);
  large.leaves = {1, 2, 3};
  large.size = 3;
  large.signature = (1u << 1) | (1u << 2) | (1u << 3);
  EXPECT_TRUE(small.subset_of(large));
  EXPECT_FALSE(large.subset_of(small));
  EXPECT_TRUE(small.subset_of(small));
}

TEST(Cuts, ExpandCutFunctionRemapsVariables) {
  // Function over leaves {4, 9}: and. Expanded to leaves {2, 4, 9}: must
  // depend on positions 1 and 2, not 0.
  Cut from;
  from.leaves = {4, 9};
  from.size = 2;
  Cut to;
  to.leaves = {2, 4, 9};
  to.size = 3;
  const auto expanded =
      expand_cut_function(tt::TruthTable::and_gate(2), from, to);
  EXPECT_FALSE(expanded.depends_on(0));
  EXPECT_TRUE(expanded.depends_on(1));
  EXPECT_TRUE(expanded.depends_on(2));
  EXPECT_EQ(expanded, tt::TruthTable::projection(3, 1) &
                          tt::TruthTable::projection(3, 2));
}

TEST(Cuts, TrivialCutAlwaysPresent) {
  aig::Aig graph;
  const aig::Lit a = graph.add_pi();
  const aig::Lit b = graph.add_pi();
  const aig::Lit g = graph.and2(a, b);
  graph.add_po(g);
  const CutSet cuts(graph);
  const auto& list = cuts.cuts_of(aig::lit_node(g));
  bool has_trivial = false;
  for (const Cut& cut : list)
    if (cut.size == 1 && cut.leaf(0) == aig::lit_node(g)) has_trivial = true;
  EXPECT_TRUE(has_trivial);
}

TEST(Mapper, TinyCircuitExact) {
  // f = (a & b) ^ c fits one 3-LUT; depth-oriented 6-LUT mapping should
  // produce a single-LUT network of depth 1.
  aig::Aig graph("tiny");
  const aig::Lit a = graph.add_pi();
  const aig::Lit b = graph.add_pi();
  const aig::Lit c = graph.add_pi();
  graph.add_po(graph.xor2(graph.and2(a, b), c));

  const net::Network network = map_to_luts(graph);
  EXPECT_EQ(network.num_luts(), 1u);
  EXPECT_EQ(network.depth(), 1u);
  network.check_invariants();
}

TEST(Mapper, RespectsLutSizeBound) {
  benchgen::CircuitSpec spec;
  spec.name = "mapper_bound";
  spec.num_gates = 600;
  const net::Network network = map_to_luts(benchgen::generate_circuit(spec));
  network.for_each_lut([&](net::NodeId id) {
    EXPECT_LE(network.fanins(id).size(), kLutSize);
  });
}

TEST(Mapper, ComplementedAndConstantPos) {
  aig::Aig graph("po_variants");
  const aig::Lit a = graph.add_pi();
  const aig::Lit b = graph.add_pi();
  const aig::Lit g = graph.and2(a, b);
  graph.add_po(aig::lit_not(g));   // complemented internal
  graph.add_po(aig::lit_not(a));   // complemented PI
  graph.add_po(aig::kLitTrue);     // constant
  graph.add_po(g);                 // plain

  const net::Network network = map_to_luts(graph);
  network.check_invariants();
  sim::Simulator sim(network);
  util::Rng rng(9);
  std::vector<std::uint64_t> words{rng(), rng()};
  const auto aig_out = graph.simulate_words(words);
  sim.simulate_word(words);
  for (std::size_t i = 0; i < network.num_pos(); ++i)
    EXPECT_EQ(sim.value(network.pos()[i]), aig_out[i]) << "PO " << i;
}

// The headline property, across styles and seeds.
class MapperEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(MapperEquivalence, MappedNetworkMatchesAig) {
  benchgen::CircuitSpec spec;
  spec.name = "mapper_equiv_" + std::to_string(GetParam());
  spec.num_gates = 400 + GetParam() * 100;
  spec.style = static_cast<benchgen::CircuitStyle>(GetParam() % 3);
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network network = map_to_luts(graph);
  network.check_invariants();

  sim::Simulator sim(network);
  util::Rng rng(100 + GetParam());
  for (int round = 0; round < 16; ++round) {
    std::vector<std::uint64_t> words(graph.num_pis());
    for (auto& w : words) w = rng();
    const auto aig_out = graph.simulate_words(words);
    sim.simulate_word(words);
    for (std::size_t i = 0; i < network.num_pos(); ++i)
      ASSERT_EQ(sim.value(network.pos()[i]), aig_out[i])
          << "seed " << GetParam() << " PO " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperEquivalence,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace simgen::mapping

namespace simgen::mapping {
namespace {

TEST(Mapper, NoStructurallyDuplicateLuts) {
  // The mapper must strash emitted LUTs: no two internal nodes may share
  // both fanin list and function (a production netlist database property;
  // duplicates would flood the sweeping classes with trivial pairs).
  benchgen::CircuitSpec spec;
  spec.name = "mapper_strash";
  spec.num_gates = 600;
  spec.redundancy = 0.12;
  const net::Network network = benchgen::generate_mapped(spec);
  std::set<std::pair<std::vector<net::NodeId>, std::uint64_t>> seen;
  network.for_each_lut([&](net::NodeId id) {
    const auto fanins = network.fanins(id);
    const auto key = std::make_pair(
        std::vector<net::NodeId>(fanins.begin(), fanins.end()),
        network.node(id).function.hash());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate LUT " << id;
  });
}

TEST(Mapper, ReassociatedExpressionsShareOneLut) {
  // a&(b&c) and (a&b)&c are distinct AIG nodes but the same 3-leaf cut
  // function; the mapped network must emit a single LUT for both.
  aig::Aig graph("reassoc");
  const aig::Lit a = graph.add_pi();
  const aig::Lit b = graph.add_pi();
  const aig::Lit c = graph.add_pi();
  const aig::Lit left = graph.and2(a, graph.and2(b, c));
  const aig::Lit right = graph.and2(graph.and2(a, b), c);
  EXPECT_NE(left, right);  // strash alone cannot merge them
  graph.add_po(left);
  graph.add_po(right);
  EXPECT_EQ(map_to_luts(graph).num_luts(), 1u);
}

}  // namespace
}  // namespace simgen::mapping
