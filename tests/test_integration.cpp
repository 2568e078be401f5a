// Whole-flow integration tests on suite benchmarks: the Figure 2 pipeline
// (random sim -> guided sim -> SAT sweeping) runs to completion, its
// accounting is consistent, and SimGen's guided vectors reduce the SAT
// work left after random simulation stalls.
#include <gtest/gtest.h>

#include "simgen_all.hpp"

namespace simgen {
namespace {

struct FlowOutcome {
  std::uint64_t cost_after_random = 0;
  std::uint64_t cost_after_guided = 0;
  sweep::SweepResult sweep;
};

FlowOutcome run_flow(const net::Network& network, core::Strategy strategy,
                     std::size_t guided_iterations) {
  FlowOutcome outcome;
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);

  sim::RandomSimOptions random_options;
  random_options.max_rounds = 1;  // paper Section 6.2 setup
  sim::run_random_simulation(simulator, classes, random_options);
  outcome.cost_after_random = classes.cost();

  core::GuidedSimOptions guided;
  guided.strategy = strategy;
  guided.iterations = guided_iterations;
  core::run_guided_simulation(simulator, classes, guided);
  outcome.cost_after_guided = classes.cost();

  sweep::Sweeper sweeper(network, sweep::SweepOptions{});
  outcome.sweep = sweeper.run(classes, simulator);
  return outcome;
}

TEST(Integration, FullFlowOnSuiteBenchmark) {
  const benchgen::CircuitSpec* spec = benchgen::find_benchmark("misex3c");
  ASSERT_NE(spec, nullptr);
  const net::Network network = benchgen::generate_mapped(*spec);

  const FlowOutcome outcome =
      run_flow(network, core::Strategy::kAiDcMffc, 20);
  EXPECT_LE(outcome.cost_after_guided, outcome.cost_after_random);
  EXPECT_EQ(outcome.sweep.unresolved, 0u);
  EXPECT_EQ(outcome.sweep.sat_calls,
            outcome.sweep.proven_equivalent + outcome.sweep.disproven);
}

TEST(Integration, GuidedSimulationReducesSatCalls) {
  // Compare SAT calls with and without the guided phase, averaged over a
  // couple of redundancy-rich circuits: guided simulation must not
  // increase the SAT work, and typically reduces it.
  std::uint64_t calls_without = 0, calls_with = 0;
  for (int seed = 0; seed < 3; ++seed) {
    benchgen::CircuitSpec spec;
    spec.name = "integration_red_" + std::to_string(seed);
    spec.num_pis = 14;
    spec.num_pos = 8;
    spec.num_gates = 280;
    spec.redundancy = 0.10;
    const net::Network network = benchgen::generate_mapped(spec);
    calls_without += run_flow(network, core::Strategy::kAiDcMffc, 0)
                         .sweep.sat_calls;
    calls_with += run_flow(network, core::Strategy::kAiDcMffc, 20)
                      .sweep.sat_calls;
  }
  EXPECT_LE(calls_with, calls_without);
}

TEST(Integration, AllStrategiesCompleteOnBenchmark) {
  const benchgen::CircuitSpec* spec = benchgen::find_benchmark("e64");
  ASSERT_NE(spec, nullptr);
  const net::Network network = benchgen::generate_mapped(*spec);
  for (const core::Strategy strategy : core::kAllStrategies) {
    const FlowOutcome outcome = run_flow(network, strategy, 10);
    EXPECT_EQ(outcome.sweep.unresolved, 0u)
        << core::strategy_name(strategy);
  }
}

TEST(Integration, StackedBenchmarkFlow) {
  // A small putontop stack end to end (Section 6.4's construction).
  const aig::Aig stacked =
      aig::put_on_top(benchgen::generate_circuit(*benchgen::find_benchmark("e64")), 2);
  const net::Network network = mapping::map_to_luts(stacked);
  const FlowOutcome outcome = run_flow(network, core::Strategy::kAiDcMffc, 10);
  EXPECT_EQ(outcome.sweep.unresolved, 0u);
}

TEST(Integration, BlifRoundTripThenCec) {
  // Serialize a mapped benchmark to BLIF, parse it back, and prove the
  // round trip equivalent with the full CEC stack.
  benchgen::CircuitSpec spec;
  spec.name = "integration_blif";
  spec.num_pis = 10;
  spec.num_pos = 5;
  spec.num_gates = 150;
  const net::Network original = benchgen::generate_mapped(spec);
  const net::Network reparsed =
      io::read_blif_string(io::write_blif_string(original));
  const sweep::CecResult result =
      sweep::check_equivalence(original, reparsed, sweep::CecOptions{});
  EXPECT_TRUE(result.equivalent);
}

TEST(Integration, HybridRandomThenSimGenMatchesFigure7Dynamic) {
  // Random simulation stalls; switching to SimGen must further reduce the
  // cost on a redundancy-rich circuit (the Figure 7 story).
  benchgen::CircuitSpec spec;
  spec.name = "integration_fig7";
  spec.num_pis = 16;
  spec.num_pos = 8;
  spec.num_gates = 400;
  spec.redundancy = 0.08;
  const net::Network network = benchgen::generate_mapped(spec);

  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  // The cost is flat from round 3 on; 6 rounds leave it stuck at 58.
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 6;
  sim::run_random_simulation(simulator, classes, random_options);
  const std::uint64_t stuck = classes.cost();

  core::GuidedSimOptions guided;
  guided.strategy = core::Strategy::kAiDcMffc;
  guided.iterations = 20;
  core::run_guided_simulation(simulator, classes, guided);
  EXPECT_LE(classes.cost(), stuck);
}

}  // namespace
}  // namespace simgen
