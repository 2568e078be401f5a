// Guided-simulation driver tests: every strategy arm runs, costs are
// monotone non-increasing, guided simulation splits classes that random
// simulation left behind, and a journaled run records every iteration.
#include "simgen/guided_sim.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/random_sim.hpp"

namespace simgen::core {
namespace {

net::Network test_network() {
  benchgen::CircuitSpec spec;
  spec.name = "guided_sim_test";
  spec.num_pis = 16;
  spec.num_pos = 8;
  spec.num_gates = 300;
  spec.redundancy = 0.08;
  return benchgen::generate_mapped(spec);
}

TEST(GuidedSim, StrategyNames) {
  EXPECT_EQ(strategy_name(Strategy::kRevS), "RevS");
  EXPECT_EQ(strategy_name(Strategy::kSiRd), "SI+RD");
  EXPECT_EQ(strategy_name(Strategy::kAiRd), "AI+RD");
  EXPECT_EQ(strategy_name(Strategy::kAiDc), "AI+DC");
  EXPECT_EQ(strategy_name(Strategy::kAiDcMffc), "AI+DC+MFFC");
}

TEST(GuidedSim, GeneratorOptionsMapping) {
  EXPECT_EQ(generator_options_for(Strategy::kSiRd).implication,
            ImplicationStrategy::kSimple);
  EXPECT_EQ(generator_options_for(Strategy::kAiRd).implication,
            ImplicationStrategy::kAdvanced);
  EXPECT_EQ(generator_options_for(Strategy::kAiDc).decision,
            DecisionStrategy::kDontCare);
  EXPECT_EQ(generator_options_for(Strategy::kAiDcMffc).decision,
            DecisionStrategy::kDontCareMffc);
  EXPECT_THROW((void)generator_options_for(Strategy::kRevS),
               std::invalid_argument);
}

class GuidedSimStrategy : public ::testing::TestWithParam<Strategy> {};

TEST_P(GuidedSimStrategy, CostIsMonotoneNonIncreasing) {
  const net::Network network = test_network();
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);

  // One round of random simulation, as in the paper's Section 6.2 setup.
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 1;
  run_random_simulation(simulator, classes, random_options);
  const std::uint64_t cost_after_random = classes.cost();

  GuidedSimOptions options;
  options.strategy = GetParam();
  options.iterations = 10;
  const GuidedSimResult result =
      run_guided_simulation(simulator, classes, options);

  ASSERT_EQ(result.cost_per_iteration.size(), 10u);
  std::uint64_t last = cost_after_random;
  for (const std::uint64_t cost : result.cost_per_iteration) {
    EXPECT_LE(cost, last);
    last = cost;
  }
  EXPECT_EQ(classes.cost(), result.cost_per_iteration.back());
  // RevS may legitimately fail every attempt when the surviving classes
  // are dominated by true equivalences (complementary golds are then
  // unsatisfiable); SimGen arms still produce usable vectors via partial
  // target satisfaction.
  if (GetParam() == Strategy::kRevS) {
    EXPECT_GT(result.vectors_generated + result.vectors_skipped, 0u);
  } else {
    EXPECT_GT(result.vectors_generated, 0u);
  }
  EXPECT_GE(result.runtime_seconds, 0.0);
}

TEST_P(GuidedSimStrategy, SplitsBeyondStagnantRandom) {
  // Run random simulation until it stalls, then guided simulation: the
  // guided phase should split at least one additional class on this
  // redundancy-rich circuit (the Figure 7 dynamic). On this circuit the
  // cost is flat from round 12 on; 15 rounds leave it stuck at 28.
  const net::Network network = test_network();
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);

  sim::RandomSimOptions random_options;
  random_options.max_rounds = 15;
  run_random_simulation(simulator, classes, random_options);
  const std::uint64_t stuck_cost = classes.cost();
  ASSERT_GT(stuck_cost, 0u) << "circuit must leave work for guided simulation";

  GuidedSimOptions options;
  options.strategy = GetParam();
  options.iterations = 20;
  run_guided_simulation(simulator, classes, options);
  EXPECT_LE(classes.cost(), stuck_cost);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, GuidedSimStrategy,
                         ::testing::Values(Strategy::kRevS, Strategy::kSiRd,
                                           Strategy::kAiRd, Strategy::kAiDc,
                                           Strategy::kAiDcMffc));

TEST(GuidedSim, FullyRefinedClassesShortCircuit) {
  const net::Network network = test_network();
  sim::Simulator simulator(network);
  sim::EquivClasses classes({});  // nothing to do
  GuidedSimOptions options;
  options.iterations = 3;
  const GuidedSimResult result =
      run_guided_simulation(simulator, classes, options);
  ASSERT_EQ(result.cost_per_iteration.size(), 3u);
  for (const std::uint64_t cost : result.cost_per_iteration) EXPECT_EQ(cost, 0u);
  EXPECT_EQ(result.vectors_generated, 0u);
}

TEST(GuidedSim, DeterministicAcrossRuns) {
  const net::Network network = test_network();
  std::vector<std::uint64_t> costs[2];
  for (int run = 0; run < 2; ++run) {
    sim::Simulator simulator(network);
    sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
    sim::RandomSimOptions random_options;
    random_options.max_rounds = 1;
    run_random_simulation(simulator, classes, random_options);
    GuidedSimOptions options;
    options.strategy = Strategy::kAiDcMffc;
    options.iterations = 6;
    options.seed = 77;
    costs[run] = run_guided_simulation(simulator, classes, options)
                     .cost_per_iteration;
  }
  EXPECT_EQ(costs[0], costs[1]);
}

}  // namespace
}  // namespace simgen::core

namespace simgen::core {
namespace {

TEST(GuidedSim, TargetCapPreservesGoldBalance) {
  const net::Network network = test_network();
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 1;
  run_random_simulation(simulator, classes, random_options);

  GuidedSimOptions options;
  options.strategy = Strategy::kAiDcMffc;
  options.iterations = 5;
  options.max_targets_per_class = 4;
  const GuidedSimResult result =
      run_guided_simulation(simulator, classes, options);
  // Capped runs still function end to end and record all iterations.
  EXPECT_EQ(result.cost_per_iteration.size(), 5u);
}

TEST(GuidedSim, BackoffDoesNotChangeReachableCost) {
  // With and without backoff, the guided phase must converge to similar
  // cost; backoff only skips classes whose attempts produce nothing.
  const net::Network network = test_network();
  std::uint64_t costs[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    sim::Simulator simulator(network);
    sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
    sim::RandomSimOptions random_options;
    random_options.max_rounds = 4;
    run_random_simulation(simulator, classes, random_options);
    GuidedSimOptions options;
    options.strategy = Strategy::kAiDcMffc;
    options.iterations = 12;
    options.max_backoff = run == 0 ? 0 : 8;
    run_guided_simulation(simulator, classes, options);
    costs[run] = classes.cost();
  }
  // Backoff may only miss late splits; costs must stay within 15%.
  const double hi = static_cast<double>(std::max(costs[0], costs[1]));
  const double lo = static_cast<double>(std::min(costs[0], costs[1]));
  EXPECT_LE(hi, lo * 1.15 + 3.0);
}

#ifndef SIMGEN_NO_TELEMETRY

class GuidedSimJournal : public ::testing::TestWithParam<Strategy> {};

/// A journaled run emits one kGuidedIteration event per iteration that
/// ran, and the events' per-iteration shares add up to the run's totals.
TEST_P(GuidedSimJournal, OneEventPerIterationThatRan) {
  const net::Network network = test_network();
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 1;
  run_random_simulation(simulator, classes, random_options);
  const std::uint64_t cost_before = classes.cost();

  GuidedSimOptions options;
  options.strategy = GetParam();
  options.iterations = 8;
  // One file per arm: ctest runs the instances in parallel processes.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("guided_iterations_" + std::to_string(static_cast<int>(GetParam())) +
        ".jrnl"))
          .string();
  const obs::TelemetrySnapshot before = obs::capture_snapshot();
  ASSERT_TRUE(obs::Journal::instance().open(path));
  const GuidedSimResult result =
      run_guided_simulation(simulator, classes, options);
  obs::Journal::instance().close();
  const obs::TelemetrySnapshot delta =
      obs::diff_snapshots(before, obs::capture_snapshot());

  std::vector<obs::JournalEvent> events;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, events, &error)) << error;
  ASSERT_TRUE(obs::check_journal(events, &error)) << error;

  // An iteration runs unless the classes were already fully refined.
  std::vector<std::uint64_t> ran;
  for (std::size_t i = 0; i < options.iterations; ++i)
    if ((i == 0 ? cost_before : result.cost_per_iteration[i - 1]) > 0)
      ran.push_back(i);
  ASSERT_FALSE(ran.empty());
  std::vector<std::uint64_t> journaled;
  std::uint64_t generated = 0, skipped = 0, implications = 0, conflicts = 0;
  for (const obs::JournalEvent& event : events) {
    if (event.kind != obs::EventKind::kGuidedIteration) continue;
    journaled.push_back(event.a);
    ASSERT_LT(event.a, result.cost_per_iteration.size());
    EXPECT_EQ(event.code, static_cast<std::uint8_t>(options.strategy));
    EXPECT_EQ(event.v0, result.cost_per_iteration[event.a]);
    generated += event.b;
    skipped += event.v1;
    implications += event.v2;
    conflicts += event.v3;
  }
  EXPECT_EQ(journaled, ran);
  EXPECT_EQ(generated, result.vectors_generated);
  EXPECT_EQ(skipped, result.vectors_skipped);
  EXPECT_EQ(conflicts, result.conflicts);
  EXPECT_EQ(implications, delta.counter_value("simgen.implications"));
  if (options.strategy == Strategy::kRevS)
    EXPECT_EQ(implications, 0u);
  else
    EXPECT_GT(implications, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    JournaledArms, GuidedSimJournal,
    ::testing::Values(Strategy::kAiDcMffc, Strategy::kRevS),
    [](const ::testing::TestParamInfo<Strategy>& param) {
      return param.param == Strategy::kRevS ? "RevS" : "AiDcMffc";
    });

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
}  // namespace simgen::core
