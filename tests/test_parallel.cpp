// The bench cell sharder (util::parallel_for), soundness of the
// sweeper's proven pairs, and the conflict-budget bugfixes (solver
// conflict-path check, separate output-proof budget, unresolved CEC
// verdicts, pairs dropped by Sweeper::run).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "obs/journal.hpp"
#include "obs/watchdog.hpp"
#include "sat/solver.hpp"
#include "sim/random_sim.hpp"
#include "sim/simulator.hpp"
#include "sweep/cec.hpp"
#include "sweep/sweeper.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace simgen {
namespace {

// ---------------------------------------------------------------------------
// Cell sharder

TEST(ParallelFor, ResolvesThreadCounts) {
  EXPECT_EQ(util::resolve_num_threads(1), 1u);
  EXPECT_EQ(util::resolve_num_threads(7), 7u);
  EXPECT_GE(util::resolve_num_threads(0), 1u) << "0 = auto, never zero";
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  for (const unsigned threads : {1u, 2u, 4u, 32u}) {
    bool ran = false;
    util::parallel_for(0, threads, [&](std::size_t, unsigned) { ran = true; });
    EXPECT_FALSE(ran) << "threads " << threads;
  }
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 32u}) {
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{3}, std::size_t{1000}}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", count " +
                   std::to_string(count));
      const std::size_t slots = std::min<std::size_t>(threads, count);
      std::vector<std::atomic<int>> hits(count);
      util::parallel_for(count, threads, [&](std::size_t index, unsigned slot) {
        EXPECT_LT(slot, slots) << "threads " << threads << ", count " << count;
        hits[index].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexAfterTheRest) {
  // Several indices throw; the call must rethrow the exception of the
  // lowest one, and only once every index has run. Index 17 throws last
  // in time, so a first-thrown-wins policy would report 42 or 170.
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  try {
    util::parallel_for(kCount, 4, [&](std::size_t index, unsigned) {
      hits[index].fetch_add(1, std::memory_order_relaxed);
      if (index == 17) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("index 17");
      }
      if (index == 42 || index == 170)
        throw std::runtime_error("index " + std::to_string(index));
    });
    FAIL() << "a call with throwing indices must rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "index 17");
    for (std::size_t i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // A call after a failed call works.
  std::atomic<int> count{0};
  util::parallel_for(8, 4, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

// ---------------------------------------------------------------------------
// Sweep soundness

net::Network parallel_bench() {
  benchgen::CircuitSpec spec;
  spec.name = "parallel_sweep";
  spec.num_pis = 14;
  spec.num_pos = 8;
  spec.num_gates = 260;
  spec.redundancy = 0.12;
  return benchgen::generate_mapped(spec);
}

sweep::SweepResult run_sweep(const net::Network& network) {
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 4;
  run_random_simulation(simulator, classes, random_options);
  sweep::Sweeper sweeper(network, sweep::SweepOptions{});
  sweep::SweepResult result = sweeper.run(classes, simulator);
  EXPECT_TRUE(classes.fully_refined());
  return result;
}

// Two bench cells sweeping at once on two threads: the watchdog's
// progress must show both running, then the one left, summing their
// counts, until the last one ends.
TEST(ParallelSweep, ProgressSumsOverlappingSweepsUntilTheLastEnds) {
  obs::SweepProgress progress;
  std::atomic<int> step{0};
  const auto wait_for = [&](int value) {
    while (step.load() < value) std::this_thread::yield();
  };
  // live nodes, resolved nodes, live classes, proved, disproved,
  // unresolved, SAT calls
  const obs::SweepCounts a0{10, 0, 4, 0, 0, 0, 0};
  const obs::SweepCounts a1{6, 4, 2, 3, 1, 0, 4};
  const obs::SweepCounts b0{20, 0, 5, 0, 0, 0, 0};
  const obs::SweepCounts b1{15, 5, 5, 4, 0, 1, 5};
  std::thread first([&] {
    progress.begin(a0);
    step = 1;
    wait_for(3);
    progress.update(a0, a1);
    progress.end(a1);
    step = 4;
  });
  std::thread second([&] {
    wait_for(1);
    progress.begin(b0);
    progress.update(b0, b1);
    step = 2;
    wait_for(5);
    progress.end(b1);
    step = 6;
  });

  wait_for(2);
  EXPECT_EQ(progress.active.load(), 2u);
  EXPECT_EQ(progress.live_nodes.load(), a0.live_nodes + b1.live_nodes);
  EXPECT_EQ(progress.classes_live.load(), a0.classes_live + b1.classes_live);
  EXPECT_EQ(progress.sat_calls.load(), b1.sat_calls);
  step = 3;

  wait_for(4);  // the first sweep has ended; the second still runs
  EXPECT_EQ(progress.active.load(), 1u);
  EXPECT_EQ(progress.live_nodes.load(), b1.live_nodes);
  EXPECT_EQ(progress.resolved_nodes.load(), b1.resolved_nodes);
  EXPECT_EQ(progress.classes_live.load(), b1.classes_live);
  EXPECT_EQ(progress.proved.load(), b1.proved);
  EXPECT_EQ(progress.disproved.load(), 0u);
  EXPECT_EQ(progress.unresolved.load(), b1.unresolved);
  EXPECT_EQ(progress.sat_calls.load(), b1.sat_calls);
  step = 5;

  wait_for(6);
  first.join();
  second.join();
  EXPECT_EQ(progress.active.load(), 0u);
  EXPECT_EQ(progress.live_nodes.load(), 0u);
  EXPECT_EQ(progress.classes_live.load(), 0u);
  EXPECT_EQ(progress.proved.load(), 0u);
  EXPECT_EQ(progress.sat_calls.load(), 0u);
}

TEST(ParallelSweep, ProvenPairsAreSound) {
  const net::Network network = parallel_bench();
  const sweep::SweepResult result = run_sweep(network);
  sim::Simulator simulator(network);
  for (std::uint64_t round = 0; round < 32; ++round) {
    simulator.simulate_random_word(5, round);
    for (const auto& [x, y] : result.proven_pairs)
      ASSERT_EQ(simulator.value(x), simulator.value(y))
          << "proven pair disagrees under simulation";
  }
}

// ---------------------------------------------------------------------------
// Conflict-budget bugfixes

/// PHP(n+1, n): classically hard UNSAT, no short proofs.
void encode_pigeonhole(sat::Solver& solver, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<sat::Var>> slot(pigeons,
                                          std::vector<sat::Var>(holes));
  for (auto& row : slot)
    for (auto& var : row) var = solver.new_var();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(sat::pos(slot[p][h]));
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        solver.add_clause({sat::neg(slot[p1][h]), sat::neg(slot[p2][h])});
}

TEST(ConflictBudget, SolverStopsWithinLimitPlusOne) {
  // Regression: the budget check used to sit only on the no-conflict
  // path, so a chain of consecutive conflicts could overshoot the limit
  // unboundedly. A hard instance must now stop within limit + 1.
  sat::Solver solver;
  encode_pigeonhole(solver, 8);
  const std::uint64_t limit = 5;
  solver.set_conflict_limit(limit);
  const std::uint64_t before = solver.stats().conflicts.value();
  EXPECT_EQ(solver.solve(), sat::Result::kUnknown);
  const std::uint64_t spent = solver.stats().conflicts.value() - before;
  EXPECT_GE(spent, limit);
  EXPECT_LE(spent, limit + 1);
}

/// Two structurally different xor trees over the same 10 inputs: an
/// equivalent pair whose miter needs many conflicts to refute.
net::Network xor_tree_pair() {
  net::Network network;
  std::vector<net::NodeId> pis;
  for (int i = 0; i < 10; ++i) pis.push_back(network.add_pi());
  const auto xor2 = tt::TruthTable::xor_gate(2);
  net::NodeId left = pis[0];
  for (int i = 1; i < 10; ++i) {
    const std::array<net::NodeId, 2> f{left, pis[i]};
    left = network.add_lut(f, xor2);
  }
  net::NodeId right = pis[9];
  for (int i = 8; i >= 0; --i) {
    const std::array<net::NodeId, 2> f{right, pis[i]};
    right = network.add_lut(f, xor2);
  }
  network.add_po(left);
  network.add_po(right);
  return network;
}

/// The two xor trees as separate single-output networks, so CEC must
/// prove the hard xor miter as an output proof.
std::pair<net::Network, net::Network> xor_tree_networks() {
  net::Network a;
  net::Network b;
  std::vector<net::NodeId> pa;
  std::vector<net::NodeId> pb;
  for (int i = 0; i < 10; ++i) {
    pa.push_back(a.add_pi());
    pb.push_back(b.add_pi());
  }
  const auto xor2 = tt::TruthTable::xor_gate(2);
  net::NodeId left = pa[0];
  for (int i = 1; i < 10; ++i) {
    const std::array<net::NodeId, 2> f{left, pa[i]};
    left = a.add_lut(f, xor2);
  }
  net::NodeId right = pb[9];
  for (int i = 8; i >= 0; --i) {
    const std::array<net::NodeId, 2> f{right, pb[i]};
    right = b.add_lut(f, xor2);
  }
  a.add_po(left);
  b.add_po(right);
  return {std::move(a), std::move(b)};
}

sweep::CecOptions hard_output_proof_options() {
  // Disable everything that could prove the pair before the final output
  // proofs: the xor miter goes to the solver monolithically.
  sweep::CecOptions options;
  options.random_rounds = 0;
  options.use_guided_simulation = false;
  options.sweep_internal_nodes = false;
  return options;
}

TEST(ConflictBudget, LimitedOutputProofReturnsUndecided) {
  // Regression: a conflict-limited output proof used to throw; it must
  // report a proper unresolved verdict instead.
  const auto [a, b] = xor_tree_networks();
  sweep::CecOptions options = hard_output_proof_options();
  options.sweep.output_proof_conflict_limit = 1;
  const sweep::CecResult result = sweep::check_equivalence(a, b, options);
  EXPECT_FALSE(result.equivalent) << "undecided must read as not-proven";
  EXPECT_TRUE(result.undecided);
  EXPECT_GE(result.unresolved_outputs, 1u);
  EXPECT_TRUE(result.counterexample.empty());
}

TEST(ConflictBudget, OutputProofsHaveTheirOwnBudget) {
  // Regression: the pair budget used to leak into the output proofs. A
  // tight pair budget with the (unlimited) default output budget must
  // still decide the hard pair EQUIVALENT.
  const auto [a, b] = xor_tree_networks();
  sweep::CecOptions options = hard_output_proof_options();
  options.sweep.conflict_limit = 1;
  const sweep::CecResult result = sweep::check_equivalence(a, b, options);
  EXPECT_TRUE(result.equivalent);
  EXPECT_FALSE(result.undecided);
  EXPECT_EQ(result.unresolved_outputs, 0u);
}

TEST(ConflictBudget, SweeperDropsLimitedPairsWithoutThrowing) {
  // The pair budget inside Sweeper::run: conflict-limited pairs are
  // dropped and counted, never fatal.
  const net::Network network = xor_tree_pair();
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 4;
  run_random_simulation(simulator, classes, random_options);

  sweep::SweepOptions options;
  options.conflict_limit = 1;
  sweep::Sweeper sweeper(network, options);
  const sweep::SweepResult result = sweeper.run(classes, simulator);
  EXPECT_TRUE(classes.fully_refined());
  EXPECT_GE(result.unresolved, 1u);
}

#ifndef SIMGEN_NO_TELEMETRY
TEST(ConflictBudget, UndecidedRunsJournalARunEndEvent) {
  const std::string path =
      ::testing::TempDir() + "/parallel_undecided.jrnl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::Journal::instance().open(path));
  const auto [a, b] = xor_tree_networks();
  sweep::CecOptions options = hard_output_proof_options();
  options.sweep.output_proof_conflict_limit = 1;
  const sweep::CecResult result = sweep::check_equivalence(a, b, options);
  obs::Journal::instance().close();
  ASSERT_TRUE(result.undecided);

  std::vector<obs::JournalEvent> events;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, events, &error)) << error;
  const auto run_end =
      std::find_if(events.begin(), events.end(), [](const auto& event) {
        return event.kind == obs::EventKind::kRunEnd;
      });
  ASSERT_NE(run_end, events.end());
  EXPECT_EQ(run_end->code, 2u) << "run-end outcome 2 = undecided";
  EXPECT_EQ(run_end->v1, result.unresolved_outputs);
  std::remove(path.c_str());
}
#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
}  // namespace simgen
