// Golden digests of Algorithm 1's output. For each (suite circuit,
// generator arm) one 64-bit digest folds together
//  * every VectorResult generate() returns over each class's make_outgold
//    targets, for two passes over the classes left after one random round;
//  * the generator's five stats counters after those passes;
//  * cost_per_iteration of a 20-iteration guided simulation.
// A speed-up of the generator, the implication or decision engines or the
// row tables must leave every digest unchanged. A change that alters the
// generated vectors on purpose re-baselines this table and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "benchgen/suite.hpp"
#include "sim/random_sim.hpp"
#include "simgen/guided_sim.hpp"
#include "util/rng.hpp"

namespace simgen::core {
namespace {

struct Golden {
  const char* circuit;
  Strategy arm;
  std::uint64_t digest;
};

constexpr Golden kGolden[] = {
    {"alu4", Strategy::kSiRd, 0x3e02e3f750f5b2e4},
    {"alu4", Strategy::kAiRd, 0x2fe1f1605dc83c28},
    {"alu4", Strategy::kAiDc, 0xf7b13f917bd0b24f},
    {"alu4", Strategy::kAiDcMffc, 0x7949d275b3a29f79},
    {"alu4", Strategy::kAiDcScoap, 0x86592bd8c5ef819f},
    {"cps", Strategy::kSiRd, 0x28c247421ac65a41},
    {"cps", Strategy::kAiRd, 0x1246715de932793e},
    {"cps", Strategy::kAiDc, 0xbc0626b4ab3ab2e2},
    {"cps", Strategy::kAiDcMffc, 0xbc0626b4ab3ab2e2},
    {"cps", Strategy::kAiDcScoap, 0xbc0626b4ab3ab2e2},
    {"b14_C", Strategy::kSiRd, 0xdf7ae472fd284639},
    {"b14_C", Strategy::kAiRd, 0xd7d7425f4cbd09ff},
    {"b14_C", Strategy::kAiDc, 0x3eb72ef7afb4000a},
    {"b14_C", Strategy::kAiDcMffc, 0x63219c51759fea25},
    {"b14_C", Strategy::kAiDcScoap, 0xd7a46116bc7a706c},
};

// cps draws the same rows under the three DC-weighted arms: alpha = 100
// dominates its MFFC and SCOAP tie-breaks at every roulette draw.

void PrintTo(const Golden& golden, std::ostream* os) {
  *os << golden.circuit << " " << strategy_name(golden.arm);
}

class Digest {
 public:
  void add(std::uint64_t word) { state_ = util::splitmix64(state_ ^ word); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0;
};

/// One round of random simulation over the LUT classes, as the flow does
/// before the guided phase.
sim::EquivClasses classes_after_random_round(sim::Simulator& simulator) {
  sim::EquivClasses classes = sim::EquivClasses::over_luts(simulator.network());
  sim::RandomSimOptions options;
  options.max_rounds = 1;
  run_random_simulation(simulator, classes, options);
  return classes;
}

std::uint64_t golden_digest(const net::Network& network, Strategy arm) {
  Digest digest;
  {
    sim::Simulator simulator(network);
    const sim::EquivClasses classes = classes_after_random_round(simulator);
    PatternGenerator generator(network, generator_options_for(arm), 1);
    for (int pass = 0; pass < 2; ++pass) {
      for (sim::ClassId c{0}; c < classes.num_classes(); ++c) {
        const VectorResult result =
            generator.generate(make_outgold(classes.class_members(c)));
        for (const TVal value : result.pi_values)
          digest.add(static_cast<std::uint64_t>(value));
        digest.add(result.satisfied_zero);
        digest.add(result.satisfied_one);
      }
    }
    const GeneratorStats& stats = generator.stats();
    digest.add(stats.targets_attempted.value());
    digest.add(stats.targets_satisfied.value());
    digest.add(stats.conflicts.value());
    digest.add(stats.implications.value());
    digest.add(stats.decisions.value());
  }
  {
    sim::Simulator simulator(network);
    sim::EquivClasses classes = classes_after_random_round(simulator);
    GuidedSimOptions options;
    options.strategy = arm;
    options.iterations = 20;
    const GuidedSimResult result = run_guided_simulation(simulator, classes, options);
    for (const std::uint64_t cost : result.cost_per_iteration) digest.add(cost);
  }
  return digest.value();
}

class GoldenVectors : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenVectors, DigestIsUnchanged) {
  const Golden& golden = GetParam();
  const benchgen::CircuitSpec* spec = benchgen::find_benchmark(golden.circuit);
  ASSERT_NE(spec, nullptr);
  const net::Network network = benchgen::generate_mapped(*spec);
  const std::uint64_t digest = golden_digest(network, golden.arm);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, golden.digest)
      << golden.circuit << " " << strategy_name(golden.arm) << ": digest " << hex;
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = std::string(info.param.circuit) + "_";
  for (const char ch : strategy_name(info.param.arm))
    if (ch != '+') name += ch;
  return name;
}

INSTANTIATE_TEST_SUITE_P(SuiteCircuits, GoldenVectors, ::testing::ValuesIn(kGolden),
                         golden_name);

}  // namespace
}  // namespace simgen::core
