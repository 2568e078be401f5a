/// \file micro_benchmarks.cpp
/// \brief google-benchmark microbenchmarks for the performance-critical
/// primitives: word-parallel simulation, ISOP extraction, implication
/// fixpoints, pattern generation, and the SAT solver.
#include <benchmark/benchmark.h>

#include <array>
#include <map>
#include <string>

#include "bench_common.hpp"

using namespace simgen;

namespace {

const net::Network& cached_network(const char* name) {
  static std::map<std::string, net::Network> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, bench::prepare_benchmark(name)).first;
  return it->second;
}

/// One simulate call, as every simulation of the flow makes it.
void BM_SimulateWord(benchmark::State& state, const char* name) {
  const net::Network& network = cached_network(name);
  sim::Simulator simulator(network);
  std::uint64_t word = 0;
  for (auto _ : state) {
    simulator.simulate_random_word(1, word++);
    benchmark::DoNotOptimize(simulator.value(network.pos()[0]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(network.num_luts()));
  state.counters["luts"] = static_cast<double>(network.num_luts());
}
BENCHMARK_CAPTURE(BM_SimulateWord, alu4, "alu4");
BENCHMARK_CAPTURE(BM_SimulateWord, b17_C, "b17_C");

void BM_Isop(benchmark::State& state) {
  const auto num_vars = static_cast<unsigned>(state.range(0));
  util::Rng rng(33);
  std::vector<tt::TruthTable> functions;
  for (int i = 0; i < 64; ++i) {
    tt::TruthTable f(num_vars);
    for (std::uint64_t m = 0; m < f.num_bits(); ++m) f.set_bit(m, rng.flip());
    functions.push_back(std::move(f));
  }
  std::size_t index = 0;
  for (auto _ : state) {
    const tt::Cover cover = tt::isop(functions[index++ & 63]);
    benchmark::DoNotOptimize(cover.cubes.data());
  }
}
BENCHMARK(BM_Isop)->Arg(4)->Arg(6)->Arg(8);

void BM_ImplicationFixpoint(benchmark::State& state) {
  const net::Network& network = cached_network("apex2");
  const core::RowDatabase rows(network);
  core::ImplicationEngine engine(network, rows);
  core::NodeValues values(network.num_nodes());
  std::vector<net::NodeId> luts;
  network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
  util::Rng rng(5);
  for (auto _ : state) {
    values.reset();
    const net::NodeId target = luts[rng.below(luts.size())];
    values.assign(target, core::TVal::kOne);
    const auto outcome =
        engine.run(values, std::span(&target, 1),
                   core::ImplicationStrategy::kAdvanced);
    benchmark::DoNotOptimize(outcome.assignments);
  }
}
BENCHMARK(BM_ImplicationFixpoint);

void BM_PatternGeneration(benchmark::State& state, const char* name) {
  const net::Network& network = cached_network(name);
  core::PatternGenerator generator(
      network, core::generator_options_for(core::Strategy::kAiDcMffc), 3);
  std::vector<net::NodeId> luts;
  network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
  util::Rng rng(9);
  for (auto _ : state) {
    std::array<core::Target, 4> targets;
    for (std::size_t t = 0; t < 4; ++t)
      targets[t] = core::Target{luts[rng.below(luts.size())], (t & 1) != 0};
    const auto result = generator.generate(targets);
    benchmark::DoNotOptimize(result.pi_values.data());
  }
}
BENCHMARK_CAPTURE(BM_PatternGeneration, alu4, "alu4");
BENCHMARK_CAPTURE(BM_PatternGeneration, m_ctrl, "m_ctrl");

void BM_ReverseSimulation(benchmark::State& state) {
  const net::Network& network = cached_network("alu4");
  core::ReverseSimulator reverse(network, 3);
  std::vector<net::NodeId> luts;
  network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
  util::Rng rng(9);
  for (auto _ : state) {
    const net::NodeId a = luts[rng.below(luts.size())];
    const net::NodeId b = luts[rng.below(luts.size())];
    const auto result =
        reverse.generate(core::Target{a, true}, core::Target{b, false});
    benchmark::DoNotOptimize(result.success);
  }
}
BENCHMARK(BM_ReverseSimulation);

void BM_SatRandom3Sat(benchmark::State& state) {
  const auto num_vars = static_cast<unsigned>(state.range(0));
  util::Rng rng(17);
  for (auto _ : state) {
    sat::Solver solver;
    std::vector<sat::Var> vars;
    for (unsigned i = 0; i < num_vars; ++i) vars.push_back(solver.new_var());
    const unsigned num_clauses = num_vars * 4;  // near-threshold density
    for (unsigned c = 0; c < num_clauses; ++c) {
      const sat::Lit clause[3] = {
          sat::Lit(vars[rng.below(num_vars)], rng.flip()),
          sat::Lit(vars[rng.below(num_vars)], rng.flip()),
          sat::Lit(vars[rng.below(num_vars)], rng.flip())};
      solver.add_clause(clause);
    }
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(150);

void BM_SweepPairProof(benchmark::State& state) {
  // Incremental pairwise equivalence checks, the sweeping inner loop.
  const net::Network& network = cached_network("apex2");
  sweep::Sweeper sweeper(network, sweep::SweepOptions{});
  std::vector<net::NodeId> luts;
  network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
  util::Rng rng(21);
  for (auto _ : state) {
    const net::NodeId a = luts[rng.below(luts.size())];
    const net::NodeId b = luts[rng.below(luts.size())];
    benchmark::DoNotOptimize(sweeper.check_pair(a, b));
  }
}
BENCHMARK(BM_SweepPairProof);

void BM_LutMapping(benchmark::State& state) {
  const benchgen::CircuitSpec* spec = benchgen::find_benchmark("apex2");
  const aig::Aig graph = benchgen::generate_circuit(*spec);
  for (auto _ : state) {
    const net::Network network = mapping::map_to_luts(graph);
    benchmark::DoNotOptimize(network.num_luts());
  }
  state.counters["ands"] = static_cast<double>(graph.num_ands());
}
BENCHMARK(BM_LutMapping);

}  // namespace

BENCHMARK_MAIN();
