// Simulator tests: gate semantics, the cover-based LUT evaluation against
// direct truth-table evaluation, PO transparency, constants, and every
// node of random LUT networks against a truth-table reference.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>

#include "benchgen/generator.hpp"
#include "fuzz/gen.hpp"
#include "util/rng.hpp"

namespace simgen::sim {
namespace {

TEST(Simulator, BasicGates) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 2> f{a, b};
  const net::NodeId g_and = network.add_lut(f, tt::TruthTable::and_gate(2));
  const net::NodeId g_xor = network.add_lut(f, tt::TruthTable::xor_gate(2));
  const net::NodeId g_nor = network.add_lut(f, tt::TruthTable::nor_gate(2));
  const net::NodeId po = network.add_po(g_xor);

  Simulator sim(network);
  const PatternWord wa = 0xaaaaaaaaaaaaaaaaull;
  const PatternWord wb = 0xccccccccccccccccull;
  sim.simulate_word(std::vector<PatternWord>{wa, wb});
  EXPECT_EQ(sim.value(g_and), wa & wb);
  EXPECT_EQ(sim.value(g_xor), wa ^ wb);
  EXPECT_EQ(sim.value(g_nor), ~(wa | wb));
  EXPECT_EQ(sim.value(po), wa ^ wb);  // PO mirrors its driver
}

TEST(Simulator, Constants) {
  net::Network network;
  network.add_pi();
  const net::NodeId c0 = network.add_constant(false);
  const net::NodeId c1 = network.add_constant(true);
  Simulator sim(network);
  sim.simulate_word(std::vector<PatternWord>{0x1234u});
  EXPECT_EQ(sim.value(c0), PatternWord{0});
  EXPECT_EQ(sim.value(c1), ~PatternWord{0});
}

TEST(Simulator, WrongPiCountThrows) {
  net::Network network;
  network.add_pi();
  network.add_pi();
  Simulator sim(network);
  EXPECT_THROW(sim.simulate_word(std::vector<PatternWord>{0}),
               std::invalid_argument);
}

TEST(Simulator, ValueBitExtraction) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  Simulator sim(network);
  sim.simulate_word(std::vector<PatternWord>{0b1010});
  EXPECT_FALSE(sim.value_bit(a, 0));
  EXPECT_TRUE(sim.value_bit(a, 1));
  EXPECT_FALSE(sim.value_bit(a, 2));
  EXPECT_TRUE(sim.value_bit(a, 3));
}

// Property: the ISOP-cover evaluation must agree with direct truth-table
// lookup for random LUT functions of every arity.
class SimulatorLutArity : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimulatorLutArity, CoverEvalMatchesTruthTable) {
  const unsigned arity = GetParam();
  util::Rng rng(800 + arity);
  for (int round = 0; round < 10; ++round) {
    net::Network network;
    std::vector<net::NodeId> pis;
    for (unsigned i = 0; i < arity; ++i) pis.push_back(network.add_pi());
    tt::TruthTable function(arity);
    for (std::uint64_t m = 0; m < function.num_bits(); ++m)
      function.set_bit(m, rng.flip());
    const net::NodeId g = network.add_lut(pis, function);
    network.add_po(g);

    Simulator sim(network);
    std::vector<PatternWord> words(arity);
    for (auto& w : words) w = rng();
    sim.simulate_word(words);
    for (unsigned pattern = 0; pattern < 64; ++pattern) {
      std::uint32_t minterm = 0;
      for (unsigned v = 0; v < arity; ++v)
        if ((words[v] >> pattern) & 1u) minterm |= 1u << v;
      ASSERT_EQ(sim.value_bit(g, pattern), function.get_bit(minterm))
          << "arity=" << arity << " pattern=" << pattern;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, SimulatorLutArity,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Simulator, AgreesWithAigOnMappedCircuit) {
  // The mapped LUT network must behave exactly like the source AIG.
  benchgen::CircuitSpec spec;
  spec.name = "sim_cross_check";
  spec.num_gates = 500;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network network = mapping::map_to_luts(graph);
  Simulator sim(network);
  util::Rng rng(31);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> words(graph.num_pis());
    for (auto& w : words) w = rng();
    const auto aig_out = graph.simulate_words(words);
    sim.simulate_word(words);
    for (std::size_t i = 0; i < network.num_pos(); ++i)
      ASSERT_EQ(sim.value(network.pos()[i]), aig_out[i]) << "PO " << i;
  }
}

TEST(Simulator, RandomWordIsDeterministicPerSeed) {
  net::Network network;
  network.add_pi();
  network.add_pi();
  Simulator sim_a(network), sim_b(network);
  sim_a.simulate_random_word(5, 0);
  sim_b.simulate_random_word(5, 0);
  network.for_each_node([&](net::NodeId id) {
    EXPECT_EQ(sim_a.value(id), sim_b.value(id));
  });
}

// Regression for the shared-Rng pattern bug: the first simulator drew
// per-PI words in PI-iteration order from one stateful stream, so PI k's
// word depended on how many PIs preceded it (add a PI, every stream
// shifts). The stream is now a pure function of (seed, pi, word); these
// literals are the wire format — a change here invalidates every recorded
// journal and BENCH baseline, so the values are pinned exactly.
TEST(Simulator, RandomPatternWordsArePinned) {
  EXPECT_EQ(Simulator::random_pattern_word(1, 0, 0), 0x175908fd57ef17d4ull);
  EXPECT_EQ(Simulator::random_pattern_word(1, 0, 1), 0xa08062515ec0383full);
  EXPECT_EQ(Simulator::random_pattern_word(1, 1, 0), 0xe6e29ade503943b5ull);
  EXPECT_EQ(Simulator::random_pattern_word(2, 0, 0), 0xa9e63eb20004b826ull);
  EXPECT_EQ(Simulator::random_pattern_word(1, 0, 7), 0x3d04a7294ada0a35ull);
  EXPECT_EQ(Simulator::random_pattern_word(42, 3, 5), 0xa74ed2867793e04eull);
}

// The fix itself: PI k's pattern stream must not depend on the other PIs.
// Under the old shared-Rng scheme adding a PI ahead of k shifted k's
// stream by one draw.
TEST(Simulator, PiStreamsAreIndependentOfPiCount) {
  net::Network small;
  const net::NodeId a_small = small.add_pi();
  net::Network big;
  big.add_pi();  // extra PI ahead of the one under test
  const net::NodeId a_big = big.add_pi();
  Simulator sim_small(small), sim_big(big);
  sim_small.simulate_random_word(9, 4);
  sim_big.simulate_random_word(9, 4);
  // Both networks see PI index 0 / 1 respectively; index 1's stream in
  // `big` must match nothing in `small`, while the *indexed* streams are
  // stable: pi 0 draws the same word in both networks.
  EXPECT_EQ(sim_small.value(a_small), Simulator::random_pattern_word(9, 0, 4));
  EXPECT_EQ(sim_big.value(a_big), Simulator::random_pattern_word(9, 1, 4));
}

// Reference property: on 1,000 random LUT networks (constant functions,
// ignored and duplicate fanins included), every node's word equals a
// pattern-by-pattern truth-table evaluation of the network.
TEST(Simulator, MatchesTruthTableReferenceOnRandomNetworks) {
  util::Rng rng(0xC0FFEEu);
  const fuzz::GenProfile profile;
  for (int round = 0; round < 1000; ++round) {
    const net::Network network =
        fuzz::random_lut_network(rng, fuzz::random_lut_options(rng, profile));
    std::vector<PatternWord> pi_words(network.num_pis());
    for (PatternWord& word : pi_words) word = rng();
    Simulator sim(network);
    sim.simulate_word(pi_words);

    std::vector<net::NodeId> order;
    network.for_each_node([&](net::NodeId id) { order.push_back(id); });
    std::vector<PatternWord> expected(network.num_nodes(), 0);
    for (unsigned pattern = 0; pattern < 64; ++pattern) {
      std::vector<bool> bit(network.num_nodes(), false);
      for (std::size_t i = 0; i < network.num_pis(); ++i)
        bit[network.pis()[i]] = (pi_words[i] >> pattern) & 1u;
      for (const net::NodeId id : order) {
        const net::Node& node = network.node(id);
        if (node.kind == net::NodeKind::kConstant) {
          bit[id] = node.constant_value;
        } else if (node.kind == net::NodeKind::kPo) {
          bit[id] = bit[node.fanins[0]];
        } else if (node.kind == net::NodeKind::kLut) {
          std::uint64_t minterm = 0;
          for (std::size_t v = 0; v < node.fanins.size(); ++v)
            if (bit[node.fanins[v]]) minterm |= std::uint64_t{1} << v;
          bit[id] = node.function.get_bit(minterm);
        }
        if (bit[id]) expected[id] |= PatternWord{1} << pattern;
      }
    }
    for (const net::NodeId id : order)
      ASSERT_EQ(sim.value(id), expected[id])
          << "network " << round << " node " << id;
  }
}

}  // namespace
}  // namespace simgen::sim
