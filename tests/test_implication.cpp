// Implication-engine tests, including reconstructions of the paper's
// Figure 1 (implication rescues reverse simulation) and the advanced-
// implication behaviour of Section 4 / Figure 3.
#include "simgen/implication.hpp"

#include <gtest/gtest.h>

#include <array>

#include "benchgen/generator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace simgen::core {
namespace {

// Paper Figure 1:  z = AND(x, y), x = A & !B, y = NAND(inv, C), inv = !B.
// Setting z=1 must propagate without conflict to A=1, B=0, C=0 once the
// inverter's forward implication (B=0 -> inv=1) is applied.
struct Figure1 {
  net::Network network;
  net::NodeId A, B, C, inv, x, y, z;

  Figure1() {
    A = network.add_pi("A");
    B = network.add_pi("B");
    C = network.add_pi("C");
    const std::array<net::NodeId, 1> finv{B};
    inv = network.add_lut(finv, tt::TruthTable::not_gate(), "inv");
    // x = A & !B.
    const std::array<net::NodeId, 2> fx{A, B};
    x = network.add_lut(
        fx, tt::TruthTable::projection(2, 0) & ~tt::TruthTable::projection(2, 1),
        "x");
    const std::array<net::NodeId, 2> fy{inv, C};
    y = network.add_lut(fy, tt::TruthTable::nand_gate(2), "y");
    const std::array<net::NodeId, 2> fz{x, y};
    z = network.add_lut(fz, tt::TruthTable::and_gate(2), "z");
    network.add_po(z, "D");
  }
};

TEST(Implication, PaperFigure1ResolvesWithoutConflict) {
  Figure1 fx;
  const RowDatabase rows(fx.network);
  NodeValues values(fx.network.num_nodes());
  values.assign(fx.z, TVal::kOne);

  const ImplicationOutcome outcome = run_implications(
      fx.network, rows, values, fx.z, ImplicationStrategy::kSimple);

  EXPECT_FALSE(outcome.conflict);
  EXPECT_EQ(values.get(fx.x), TVal::kOne);
  EXPECT_EQ(values.get(fx.y), TVal::kOne);
  EXPECT_EQ(values.get(fx.A), TVal::kOne);
  EXPECT_EQ(values.get(fx.B), TVal::kZero);
  // The rescue of Figure 1c: B=0 implies inv=1 forward, which in turn
  // implies C=0 backward through the NAND.
  EXPECT_EQ(values.get(fx.inv), TVal::kOne);
  EXPECT_EQ(values.get(fx.C), TVal::kZero);
}

TEST(Implication, ConflictDetectedAtContradictedNode) {
  // and(a, b) with a=0 and output 1: zero matching rows -> conflict.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 2> f{a, b};
  const net::NodeId g = network.add_lut(f, tt::TruthTable::and_gate(2));
  network.add_po(g);

  const RowDatabase rows(network);
  NodeValues values(network.num_nodes());
  values.assign(a, TVal::kZero);
  values.assign(g, TVal::kOne);
  const ImplicationOutcome outcome =
      run_implications(network, rows, values, g, ImplicationStrategy::kSimple);
  EXPECT_TRUE(outcome.conflict);
  EXPECT_EQ(outcome.conflict_node, g);
}

TEST(Implication, AdvancedImpliesAgreedOutput) {
  // majority(a,b,c) with a=1, b=1: three ON rows match ({11-},{1-1},{-11}),
  // no OFF row does. Simple implication cannot fire (not unique); advanced
  // implication must set the output to 1 and leave c unknown (Def. 4.1).
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const net::NodeId c = network.add_pi();
  const std::array<net::NodeId, 3> f{a, b, c};
  const net::NodeId g = network.add_lut(f, tt::TruthTable::majority3());
  network.add_po(g);
  const RowDatabase rows(network);

  {
    NodeValues values(network.num_nodes());
    values.assign(a, TVal::kOne);
    values.assign(b, TVal::kOne);
    const ImplicationOutcome outcome = run_implications(
        network, rows, values, a, ImplicationStrategy::kSimple);
    EXPECT_FALSE(outcome.conflict);
    EXPECT_FALSE(values.is_assigned(g)) << "simple must not fire on 3 rows";
  }
  {
    NodeValues values(network.num_nodes());
    values.assign(a, TVal::kOne);
    values.assign(b, TVal::kOne);
    const ImplicationOutcome outcome = run_implications(
        network, rows, values, a, ImplicationStrategy::kAdvanced);
    EXPECT_FALSE(outcome.conflict);
    EXPECT_EQ(values.get(g), TVal::kOne);
    EXPECT_FALSE(values.is_assigned(c)) << "disagreeing position stays X";
  }
}

TEST(Implication, AdvancedEnablesDownstreamChain) {
  // Figure 3's essence: the advanced-implied output enables a further
  // (simple) implication at the fanout AND gate.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const net::NodeId c = network.add_pi();
  const net::NodeId d = network.add_pi();
  const std::array<net::NodeId, 3> fm{a, b, c};
  const net::NodeId m = network.add_lut(fm, tt::TruthTable::majority3());
  const std::array<net::NodeId, 2> fg{m, d};
  const net::NodeId g = network.add_lut(fg, tt::TruthTable::and_gate(2));
  network.add_po(g);
  const RowDatabase rows(network);

  NodeValues values(network.num_nodes());
  values.assign(a, TVal::kOne);
  values.assign(b, TVal::kOne);
  values.assign(g, TVal::kZero);
  // Advanced: m=1 (majority with two ones); then and(m=1, d)=0 implies
  // d=0 — an opportunity invisible without the advanced step.
  const ImplicationOutcome outcome = run_implications(
      network, rows, values, a, ImplicationStrategy::kAdvanced);
  EXPECT_FALSE(outcome.conflict);
  EXPECT_EQ(values.get(m), TVal::kOne);
  EXPECT_EQ(values.get(d), TVal::kZero);
}

TEST(Implication, ForwardImplicationFromInputs) {
  // Inputs force the output: and(1, 1) -> 1 without touching the output
  // first (the generalization over backward-only reverse simulation).
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 2> f{a, b};
  const net::NodeId g = network.add_lut(f, tt::TruthTable::and_gate(2));
  network.add_po(g);
  const RowDatabase rows(network);

  NodeValues values(network.num_nodes());
  values.assign(a, TVal::kOne);
  values.assign(b, TVal::kOne);
  run_implications(network, rows, values, a, ImplicationStrategy::kSimple);
  EXPECT_EQ(values.get(g), TVal::kOne);
}

TEST(Implication, MultiSeedOverloadCoversAllSeeds) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 1> f1{a};
  const net::NodeId g1 = network.add_lut(f1, tt::TruthTable::not_gate());
  const std::array<net::NodeId, 1> f2{b};
  const net::NodeId g2 = network.add_lut(f2, tt::TruthTable::not_gate());
  network.add_po(g1);
  network.add_po(g2);
  const RowDatabase rows(network);

  NodeValues values(network.num_nodes());
  values.assign(a, TVal::kOne);
  values.assign(b, TVal::kZero);
  const std::array<net::NodeId, 2> seeds{a, b};
  run_implications(network, rows, values, seeds, ImplicationStrategy::kSimple);
  EXPECT_EQ(values.get(g1), TVal::kZero);
  EXPECT_EQ(values.get(g2), TVal::kOne);
}

TEST(Implication, RespectsConstantNodes) {
  // A LUT fed by constant 1 behaves like a buffer of its other input.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId one = network.add_constant(true);
  const std::array<net::NodeId, 2> f{one, a};
  const net::NodeId g = network.add_lut(f, tt::TruthTable::and_gate(2));
  network.add_po(g);
  const RowDatabase rows(network);

  NodeValues values(network.num_nodes());
  values.assign(one, TVal::kOne);  // generator pre-assigns constants
  values.assign(g, TVal::kZero);
  run_implications(network, rows, values, g, ImplicationStrategy::kSimple);
  EXPECT_EQ(values.get(a), TVal::kZero);
}

}  // namespace
}  // namespace simgen::core

namespace simgen::core {
namespace {

// Soundness fuzz: every value assigned by (simple or advanced)
// implication must be semantically forced — in EVERY complete PI
// assignment whose simulation is consistent with the initial partial
// assignment, the implied node takes exactly the implied value.
class ImplicationSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImplicationSoundness, ImpliedValuesAreForced) {
  benchgen::CircuitSpec spec;
  spec.name = "impl_fuzz_" + std::to_string(GetParam());
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.num_gates = 60;
  const net::Network network = benchgen::generate_mapped(spec);
  const RowDatabase rows(network);
  sim::Simulator simulator(network);
  util::Rng rng(GetParam() * 31 + 7);

  // Exhaustive simulation table: value of every node on all 256 patterns.
  const std::size_t num_patterns = std::size_t{1} << network.num_pis();
  std::vector<std::vector<bool>> truth(num_patterns);
  for (std::size_t base = 0; base < num_patterns; base += 64) {
    std::vector<sim::PatternWord> words(network.num_pis(), 0);
    for (std::size_t b = 0; b < 64; ++b)
      for (std::size_t i = 0; i < network.num_pis(); ++i)
        if (((base + b) >> i) & 1)
          words[i] |= sim::PatternWord{1} << b;
    simulator.simulate_word(words);
    for (std::size_t b = 0; b < 64 && base + b < num_patterns; ++b) {
      auto& row = truth[base + b];
      row.resize(network.num_nodes());
      network.for_each_node(
          [&](net::NodeId id) { row[id] = simulator.value_bit(id, b); });
    }
  }

  for (int round = 0; round < 20; ++round) {
    // Build a consistent partial assignment by sampling node values from
    // one concrete pattern.
    const std::size_t seed_pattern = rng.below(num_patterns);
    NodeValues values(network.num_nodes());
    std::vector<net::NodeId> seeds;
    network.for_each_node([&](net::NodeId id) {
      if (network.is_po(id)) return;
      if (!rng.chance(0.2)) return;
      values.assign(id, tval_of(truth[seed_pattern][id]));
      seeds.push_back(id);
    });
    if (seeds.empty()) continue;
    const std::size_t premise_count = values.num_assigned();

    const auto strategy = (round & 1) ? ImplicationStrategy::kAdvanced
                                      : ImplicationStrategy::kSimple;
    const ImplicationOutcome outcome =
        run_implications(network, rows, values, seeds, strategy);
    ASSERT_FALSE(outcome.conflict)
        << "consistent assignment must not conflict";

    // Premises: the first `premise_count` trail entries. Conclusions:
    // everything after. Check each conclusion over all consistent
    // completions.
    const auto& trail = values.trail();
    for (std::size_t pattern = 0; pattern < num_patterns; ++pattern) {
      bool consistent = true;
      for (std::size_t i = 0; i < premise_count && consistent; ++i) {
        const net::NodeId node = trail[i];
        consistent = truth[pattern][node] == (values.get(node) == TVal::kOne);
      }
      if (!consistent) continue;
      for (std::size_t i = premise_count; i < trail.size(); ++i) {
        const net::NodeId node = trail[i];
        ASSERT_EQ(truth[pattern][node], values.get(node) == TVal::kOne)
            << "implied value not forced (round " << round << ", pattern "
            << pattern << ", node " << node << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationSoundness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace simgen::core
