// End-to-end CEC tests: miter construction, equivalent and mutated
// network pairs, counterexample validity.
#include "sweep/cec.hpp"

#include <gtest/gtest.h>

#include <array>

#include "aig/aig_to_network.hpp"
#include "benchgen/generator.hpp"
#include "fuzz/gen.hpp"
#include "fuzz/mutate.hpp"
#include "mapping/lut_mapper.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace simgen::sweep {
namespace {

TEST(Miter, RejectsMismatchedInterfaces) {
  net::Network a, b;
  a.add_pi();
  a.add_po(a.pis()[0]);
  b.add_pi();
  b.add_pi();
  b.add_po(b.pis()[0]);
  EXPECT_THROW(make_miter(a, b), std::invalid_argument);
}

TEST(Miter, XorOutputsAreZeroForIdenticalNetworks) {
  net::Network a;
  const net::NodeId pa = a.add_pi();
  const net::NodeId pb = a.add_pi();
  const std::array<net::NodeId, 2> f{pa, pb};
  a.add_po(a.add_lut(f, tt::TruthTable::and_gate(2)));

  const Miter miter = make_miter(a, a);
  EXPECT_EQ(miter.network.num_pis(), 2u);
  EXPECT_EQ(miter.network.num_pos(), 1u);
  sim::Simulator sim(miter.network);
  for (std::uint64_t round = 0; round < 4; ++round) {
    sim.simulate_random_word(3, round);
    EXPECT_EQ(sim.value(miter.network.pos()[0]), sim::PatternWord{0});
  }
}

TEST(Cec, MappedNetworkEquivalentToDirectTranslation) {
  // The strongest integration check available without external tools:
  // LUT mapping and the direct AIG->2-LUT translation must be equivalent.
  benchgen::CircuitSpec spec;
  spec.name = "cec_equiv";
  spec.num_pis = 12;
  spec.num_pos = 6;
  spec.num_gates = 250;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network mapped = mapping::map_to_luts(graph);
  const net::Network direct = aig::to_network(graph);

  CecOptions options;
  options.random_rounds = 4;
  const CecResult result = check_equivalence(mapped, direct, options);
  EXPECT_TRUE(result.equivalent);
  EXPECT_EQ(result.outputs_proven, mapped.num_pos());
  EXPECT_GT(result.output_sat_calls, 0u);
}

TEST(Cec, DetectsSingleLutMutation) {
  benchgen::CircuitSpec spec;
  spec.name = "cec_mutant";
  spec.num_pis = 10;
  spec.num_pos = 5;
  spec.num_gates = 150;
  const net::Network original = benchgen::generate_mapped(spec);

  // Rebuild with one LUT function mutated (flip one truth-table bit).
  net::Network mutated(original.name() + "_mut");
  std::vector<net::NodeId> map(original.num_nodes());
  bool flipped = false;
  original.for_each_node([&](net::NodeId id) {
    const auto& node = original.node(id);
    switch (node.kind) {
      case net::NodeKind::kPi:
        map[id] = mutated.add_pi(node.name);
        break;
      case net::NodeKind::kConstant:
        map[id] = mutated.add_constant(node.constant_value);
        break;
      case net::NodeKind::kPo:
        map[id] = mutated.add_po(map[node.fanins[0]], node.name);
        break;
      case net::NodeKind::kLut: {
        std::vector<net::NodeId> fanins;
        for (net::NodeId fanin : node.fanins) fanins.push_back(map[fanin]);
        tt::TruthTable function = node.function;
        if (!flipped && node.fanins.size() >= 2) {
          function.set_bit(1, !function.get_bit(1));
          flipped = true;
        }
        map[id] = mutated.add_lut(fanins, function, node.name);
        break;
      }
    }
  });
  ASSERT_TRUE(flipped);

  const CecResult result = check_equivalence(original, mutated, CecOptions{});
  ASSERT_FALSE(result.equivalent);
  ASSERT_EQ(result.counterexample.size(), original.num_pis());

  // Independent validation: the counterexample must make some PO differ.
  sim::Simulator sim_a(original), sim_b(mutated);
  std::vector<sim::PatternWord> words(original.num_pis(), 0);
  for (std::size_t i = 0; i < words.size(); ++i)
    if (result.counterexample[i]) words[i] = 1;
  sim_a.simulate_word(words);
  sim_b.simulate_word(words);
  bool differs = false;
  for (std::size_t i = 0; i < original.num_pos(); ++i)
    differs |= (sim_a.value(original.pos()[i]) & 1u) !=
               (sim_b.value(mutated.pos()[i]) & 1u);
  EXPECT_TRUE(differs);
}

TEST(Cec, RandomPrepassCatchesGrossDifferences) {
  // Networks differing on most inputs: random simulation alone should
  // find the counterexample (zero SAT calls).
  net::Network a;
  const net::NodeId pa = a.add_pi();
  const net::NodeId pb = a.add_pi();
  const std::array<net::NodeId, 2> fa{pa, pb};
  a.add_po(a.add_lut(fa, tt::TruthTable::and_gate(2)));
  net::Network b;
  const net::NodeId qa = b.add_pi();
  const net::NodeId qb = b.add_pi();
  const std::array<net::NodeId, 2> fb{qa, qb};
  b.add_po(b.add_lut(fb, tt::TruthTable::or_gate(2)));

  const CecResult result = check_equivalence(a, b, CecOptions{});
  EXPECT_FALSE(result.equivalent);
  EXPECT_EQ(result.output_sat_calls, 0u);
}

TEST(Cec, GuidedSimulationCanBeDisabled) {
  benchgen::CircuitSpec spec;
  spec.name = "cec_noguided";
  spec.num_gates = 120;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  CecOptions options;
  options.use_guided_simulation = false;
  options.sweep_internal_nodes = false;
  const CecResult result = check_equivalence(
      mapping::map_to_luts(graph), aig::to_network(graph), options);
  EXPECT_TRUE(result.equivalent);
  EXPECT_EQ(result.sweep_stats.sat_calls, 0u);
}

}  // namespace
}  // namespace simgen::sweep

namespace simgen::sweep {
namespace {

// Whole-stack fuzz: CEC's verdict must match exhaustive simulation on
// random circuit pairs — identical pairs, remapped pairs, and pairs with
// a random single-bit mutation (which may or may not change the function
// when it lands on a don't-care of the surrounding logic).
class CecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CecFuzz, VerdictMatchesExhaustiveSimulation) {
  util::Rng rng(GetParam() * 1009 + 5);
  benchgen::CircuitSpec spec;
  spec.name = "cec_fuzz_" + std::to_string(GetParam());
  spec.num_pis = 10;
  spec.num_pos = 4;
  spec.num_gates = 120;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network a = mapping::map_to_luts(graph);

  // Mutate a copy with probability 1/2 (bit flip in one random LUT).
  net::Network b("fuzz_b");
  std::vector<net::NodeId> map(a.num_nodes());
  const bool try_mutate = rng.flip();
  bool mutated = false;
  a.for_each_node([&](net::NodeId id) {
    const auto& node = a.node(id);
    switch (node.kind) {
      case net::NodeKind::kPi: map[id] = b.add_pi(node.name); break;
      case net::NodeKind::kConstant:
        map[id] = b.add_constant(node.constant_value);
        break;
      case net::NodeKind::kPo: map[id] = b.add_po(map[node.fanins[0]]); break;
      case net::NodeKind::kLut: {
        std::vector<net::NodeId> fanins;
        for (const net::NodeId fanin : node.fanins) fanins.push_back(map[fanin]);
        tt::TruthTable function = node.function;
        if (try_mutate && !mutated && rng.chance(0.1)) {
          function.set_bit(rng.below(function.num_bits()),
                           !function.get_bit(rng.below(function.num_bits())));
          mutated = true;
        }
        map[id] = b.add_lut(fanins, function);
        break;
      }
    }
  });

  // Ground truth by exhaustive simulation (2^10 patterns).
  sim::Simulator sim_a(a), sim_b(b);
  bool truly_equivalent = true;
  for (std::size_t base = 0; base < 1024 && truly_equivalent; base += 64) {
    std::vector<sim::PatternWord> words(a.num_pis(), 0);
    for (std::size_t bit = 0; bit < 64; ++bit)
      for (std::size_t i = 0; i < a.num_pis(); ++i)
        if (((base + bit) >> i) & 1) words[i] |= sim::PatternWord{1} << bit;
    sim_a.simulate_word(words);
    sim_b.simulate_word(words);
    for (std::size_t i = 0; i < a.num_pos(); ++i)
      if (sim_a.value(a.pos()[i]) != sim_b.value(b.pos()[i]))
        truly_equivalent = false;
  }

  CecOptions options;
  options.seed = GetParam();
  const CecResult result = check_equivalence(a, b, options);
  ASSERT_EQ(result.equivalent, truly_equivalent)
      << "CEC verdict disagrees with exhaustive simulation";
  if (!result.equivalent) {
    // The witness must actually distinguish the networks.
    std::vector<sim::PatternWord> words(a.num_pis(), 0);
    for (std::size_t i = 0; i < a.num_pis(); ++i)
      if (result.counterexample[i]) words[i] = 1;
    sim_a.simulate_word(words);
    sim_b.simulate_word(words);
    bool differs = false;
    for (std::size_t i = 0; i < a.num_pos(); ++i)
      differs |= (sim_a.value(a.pos()[i]) ^ sim_b.value(b.pos()[i])) & 1u;
    EXPECT_TRUE(differs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CecFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

// Regression: a sweep pair that hit its conflict budget used to be
// pinned with the clause (~t), which with the miter clauses t <-> (a xor
// b) asserts a == b. The solver then proved inequivalent outputs equal,
// and the DRAT log, holding the clause as an axiom, certified the proof.
// Seed 1 at a budget of 1 conflict was such a case.
TEST(Cec, BudgetedSweepPairsNeverMakeAFaultyMutantEquivalent) {
  std::uint64_t unresolved = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (std::uint64_t limit = 1; limit <= 3; ++limit) {
      util::Rng rng(util::splitmix64(seed));
      const net::Network base = fuzz::random_lut_network(
          rng, fuzz::random_lut_options(rng, fuzz::GenProfile{}));
      const fuzz::Mutant mutant = fuzz::inject_fault(base, rng);
      ASSERT_FALSE(mutant.equivalent);
      CecOptions options;
      options.random_rounds = 0;
      options.use_guided_simulation = false;
      options.certify = true;
      options.sweep.conflict_limit = limit;
      const CecResult result = check_equivalence(base, mutant.network, options);
      EXPECT_FALSE(result.equivalent) << "seed " << seed << ", budget " << limit;
      EXPECT_FALSE(result.counterexample.empty()) << "seed " << seed << ", budget " << limit;
      unresolved += result.sweep_stats.unresolved;
    }
  }
  EXPECT_GT(unresolved, 0u) << "no pair hit its budget";
}

}  // namespace
}  // namespace simgen::sweep
