// Cut enumeration and LUT mapper tests. The decisive property: the mapped
// network computes exactly the AIG's function (checked by word simulation
// over many random patterns).
#include "mapping/lut_mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <initializer_list>
#include <set>
#include <stdexcept>
#include <string>

#include "aig/putontop.hpp"
#include "benchgen/generator.hpp"
#include "benchgen/suite.hpp"
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
  const auto expanded = tt::TruthTable::from_word(
      3, expand_cut_function(tt::kVarMask[0] & tt::kVarMask[1], from, to));
  EXPECT_FALSE(expanded.depends_on(0));
  EXPECT_TRUE(expanded.depends_on(1));
  EXPECT_TRUE(expanded.depends_on(2));
  EXPECT_EQ(expanded, tt::TruthTable::projection(3, 1) &
                          tt::TruthTable::projection(3, 2));
}

Cut make_cut(std::initializer_list<std::uint32_t> leaves) {
  Cut cut;
  for (const std::uint32_t leaf : leaves) {
    cut.leaves[cut.size++] = leaf;
    cut.signature |= 1u << (leaf & 31u);
  }
  return cut;
}

// Reference expansion, minterm by minterm: minterm m of the result reads
// `function` at the minterm that m assigns to `from`'s leaves.
tt::TruthTable reference_expand(const tt::TruthTable& function, const Cut& from,
                                const Cut& to) {
  std::array<unsigned, kLutSize> position{};
  for (unsigned v = 0; v < from.size; ++v) {
    unsigned p = 0;
    while (to.leaves[p] != from.leaves[v]) ++p;
    position[v] = p;
  }
  tt::TruthTable result(to.size);
  for (std::uint32_t m = 0; m < result.num_bits(); ++m) {
    std::uint32_t from_minterm = 0;
    for (unsigned v = 0; v < from.size; ++v)
      if ((m >> position[v]) & 1u) from_minterm |= 1u << v;
    if (function.get_bit(from_minterm)) result.set_bit(m, true);
  }
  return result;
}

TEST(Cuts, ExpandCutFunctionMatchesMintermReference) {
  // Every `to` of 1-6 leaves, every subset of it as `from`, and several
  // random functions of `from`'s variables.
  util::Rng rng(29);
  const std::uint32_t pool[kLutSize] = {0, 3, 7, 12, 40, 41};
  unsigned checked = 0;
  for (unsigned to_mask = 1; to_mask < (1u << kLutSize); ++to_mask) {
    Cut to;
    for (unsigned b = 0; b < kLutSize; ++b)
      if ((to_mask >> b) & 1u) to.leaves[to.size++] = pool[b];
    for (unsigned from_mask = 1; from_mask < (1u << to.size); ++from_mask) {
      Cut from;
      for (unsigned b = 0; b < to.size; ++b)
        if ((from_mask >> b) & 1u) from.leaves[from.size++] = to.leaves[b];
      for (int round = 0; round < 8; ++round) {
        const tt::TruthTable function = tt::TruthTable::from_word(from.size, rng());
        // A cut's word repeats its low 2^size bits over the don't-cares.
        const std::uint64_t word = function.extended_to(kLutSize).words()[0];
        ASSERT_EQ(tt::TruthTable::from_word(to.size, expand_cut_function(word, from, to)),
                  reference_expand(function, from, to))
            << "to mask " << to_mask << " from mask " << from_mask;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 8u * 665u);  // sum over k of C(6, k) * (2^k - 1)
}

TEST(Cuts, ExpandCutFunctionRejectsNonSuperset) {
  const Cut from = make_cut({4, 9});
  EXPECT_THROW((void)expand_cut_function(tt::kVarMask[0], from, make_cut({2, 4, 8})),
               std::logic_error);
  EXPECT_THROW((void)expand_cut_function(tt::kVarMask[0], from, make_cut({9})),
               std::logic_error);
  EXPECT_THROW((void)expand_cut_function(tt::kVarMask[0], from, make_cut({1, 2, 3, 4})),
               std::logic_error);
}

TEST(Cuts, MergeUsesSignaturesOnlyToReject) {
  // Leaves 1, 33 and 65 share one signature bit: the union is still
  // merged leaf by leaf.
  Cut out;
  ASSERT_TRUE(merge_cuts(make_cut({1, 33}), make_cut({33, 65}), out));
  EXPECT_EQ(out.size, 3u);
  EXPECT_EQ(out.leaves[0], 1u);
  EXPECT_EQ(out.leaves[1], 33u);
  EXPECT_EQ(out.leaves[2], 65u);
  EXPECT_EQ(out.signature, 1u << 1);
  // Six leaves over two signature bits merge; seven distinct leaves do not.
  ASSERT_TRUE(merge_cuts(make_cut({1, 2, 33}), make_cut({34, 65, 66}), out));
  EXPECT_EQ(out.size, kLutSize);
  EXPECT_FALSE(merge_cuts(make_cut({1, 2, 3, 4}), make_cut({5, 6, 7}), out));
  EXPECT_FALSE(merge_cuts(make_cut({1, 33, 65, 97}), make_cut({2, 34, 66}), out));
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

namespace simgen::mapping {
namespace {

// Pins the mapper's output on every network the bench drivers map: the 42
// suite circuits, and the 9 stacks at table2_putontop's 0.6 gate scale.
// One digest per network folds its name, every node's kind, constant
// value, fanins, fanouts, LUT arity and truth-table words and name, and
// the PI and PO lists. A speed-up of cut enumeration or LUT emission must
// leave every digest unchanged; a change that maps differently on purpose
// re-baselines this table and says so.
struct MappedDigest {
  const char* network;
  std::uint64_t digest;
};

constexpr MappedDigest kMappedDigests[] = {
    {"alu4", 0x1c09c652e2396ce5},
    {"apex1", 0x1559c0d01a79f689},
    {"apex2", 0xf6eeefcb1abad390},
    {"apex3", 0xbccaacfaae3d8272},
    {"apex4", 0x7e67433850bcf248},
    {"apex5", 0xcea2226a4b1bc30f},
    {"cordic", 0xf00d067fdf18211e},
    {"cps", 0xd49dae3e20aa2076},
    {"dalu", 0xf5b0077a7f3194c9},
    {"des", 0x39f97072478ad8bf},
    {"e64", 0x43f1e1ece700907f},
    {"ex1010", 0x748ffec3c17bb87c},
    {"ex5p", 0x3fb9485a201c4216},
    {"i10", 0x85e51bb2472da86d},
    {"k2", 0x43b86e668f224ed3},
    {"misex3", 0x16ea14d0543738d4},
    {"misex3c", 0xe36860da7c6373db},
    {"pdc", 0x4a04120b1d8ea522},
    {"seq", 0xc15c4f9d8975f686},
    {"spla", 0x6107f8c8c95862a9},
    {"table3", 0xf88397a0a328a398},
    {"table5", 0xd6f91d6c759aebbe},
    {"sin", 0x60dbe3b111ce40c1},
    {"square", 0xca2da7df27e4bf26},
    {"arbiter", 0x8bde61600a07c59b},
    {"dec", 0x767c03f8737bbe25},
    {"m_ctrl", 0x77d7758743faaff2},
    {"priority", 0xc2a4bf6f50a4c856},
    {"voter", 0xfaea31a8106b2a26},
    {"log2", 0x45de0b4dcbc61e88},
    {"b14_C", 0x9ee48a67c96b5763},
    {"b14_C2", 0x3975eeb179c3896c},
    {"b15_C", 0x53260e197a89c635},
    {"b15_C2", 0x8b52fba62e84cfc5},
    {"b17_C", 0x2d530463388d88e7},
    {"b17_C2", 0x58ee7bb0a3809e55},
    {"b20_C", 0xdde967b56b2018f6},
    {"b20_C2", 0x9270b1c62e255dc9},
    {"b21_C", 0x64a427ed2647b20e},
    {"b21_C2", 0x9df43dcd7c3cee72},
    {"b22_C", 0x8d4d8e71dc4d1261},
    {"b22_C2", 0x42fc0a34f84d01d9},
    {"alu4x15", 0x9d5b4381b97b158b},
    {"squarex7", 0xb4c29bcef0938473},
    {"arbiterx15", 0xec4f8456b9e4144b},
    {"b15_C2x8", 0x534aef6023bfb3fe},
    {"b17_Cx5", 0x0b3f15fb93b80eb7},
    {"b17_C2x5", 0x531e625bf3ea6839},
    {"b20_C2x8", 0xdb11bbcf98695b95},
    {"b21_C2x8", 0x5d1ea611e4dacb9d},
    {"b22_Cx6", 0x7c6d96a17ba3c522},
};

std::uint64_t network_digest(const net::Network& network) {
  std::uint64_t h = util::fnv1a(network.name());
  const auto add = [&h](std::uint64_t word) { h = util::splitmix64(h ^ word); };
  add(network.num_nodes());
  network.for_each_node([&](net::NodeId id) {
    const net::Node& node = network.node(id);
    add(static_cast<std::uint64_t>(node.kind));
    add(node.constant_value ? 1u : 0u);
    add(node.fanins.size());
    for (const net::NodeId fanin : node.fanins) add(fanin);
    add(node.fanouts.size());
    for (const net::NodeId fanout : node.fanouts) add(fanout);
    if (node.kind == net::NodeKind::kLut) {
      add(node.function.num_vars());
      for (const std::uint64_t word : node.function.words()) add(word);
    }
    add(util::fnv1a(node.name));
  });
  add(network.num_pis());
  for (const net::NodeId pi : network.pis()) add(pi);
  add(network.num_pos());
  for (const net::NodeId po : network.pos()) add(po);
  return h;
}

TEST(Mapper, SuiteAndStackedNetworksAreUnchanged) {
  std::vector<net::Network> networks;
  for (const benchgen::CircuitSpec& spec : benchgen::benchmark_suite())
    networks.push_back(benchgen::generate_mapped(spec));
  // As table2_putontop prepares each stack (bench::prepare_stacked).
  constexpr double kGateScale = 0.6;
  for (const benchgen::StackedSpec& stacked : benchgen::stacked_suite()) {
    benchgen::CircuitSpec scaled = *benchgen::find_benchmark(stacked.base);
    scaled.num_gates = std::max<unsigned>(
        64, static_cast<unsigned>(static_cast<double>(scaled.num_gates) * kGateScale));
    net::Network network =
        map_to_luts(aig::put_on_top(benchgen::generate_circuit(scaled), stacked.copies));
    network.set_name(std::string(stacked.base) + "x" + std::to_string(stacked.copies));
    networks.push_back(std::move(network));
  }

  ASSERT_EQ(networks.size(), std::size(kMappedDigests));
  for (std::size_t i = 0; i < networks.size(); ++i) {
    const std::uint64_t digest = network_digest(networks[i]);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(digest));
    EXPECT_EQ(networks[i].name(), kMappedDigests[i].network);
    EXPECT_EQ(digest, kMappedDigests[i].digest)
        << "{\"" << networks[i].name() << "\", " << hex << "},";
  }
}

}  // namespace
}  // namespace simgen::mapping
