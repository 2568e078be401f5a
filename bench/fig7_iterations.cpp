/// \file fig7_iterations.cpp
/// \brief Regenerates paper Figure 7: cost and cumulative runtime per
/// iteration for (1) pure random simulation, (2) random then RevS, and
/// (3) random then SimGen, on apex2 and cps.
///
/// As in the paper, the guided phase takes over once random simulation
/// achieves the same cost in three consecutive iterations; the switch
/// point is marked in the output. Each iteration is one batch of 64
/// patterns (random) or one guided pass over the classes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace simgen;

namespace {

constexpr std::size_t kTotalIterations = 48;
constexpr std::size_t kStagnation = 3;

struct Trace {
  std::vector<std::uint64_t> cost;
  std::vector<double> cumulative_seconds;
  std::size_t switch_iteration = 0;  ///< First guided iteration (0 = none).
};

enum class Mode { kRandomOnly, kSwitchToRevS, kSwitchToSimGen };

Trace run_trace(const net::Network& network, Mode mode) {
  Trace trace;
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  util::Stopwatch watch;
  watch.start();

  std::size_t flat = 0;
  std::uint64_t last_cost = ~std::uint64_t{0};
  std::size_t iteration = 0;
  // Phase 1: random simulation until stagnation (or the whole budget for
  // the RandS-only arm).
  for (; iteration < kTotalIterations; ++iteration) {
    // Attribute this batch's splits (journal + refine telemetry); without
    // the scope every split would be logged as PatternSource::kNone and
    // sweep_inspect --check would reject the journal.
    const obs::PatternScope scope(obs::PatternSource::kRandom, /*patterns=*/0);
    simulator.simulate_random_word(1, iteration);
    classes.refine(simulator.values());
    const std::uint64_t cost = classes.cost();
    trace.cost.push_back(cost);
    trace.cumulative_seconds.push_back(watch.seconds());
    flat = (cost == last_cost) ? flat + 1 : 0;
    last_cost = cost;
    if (mode != Mode::kRandomOnly && flat >= kStagnation) {
      ++iteration;
      break;
    }
  }

  if (mode == Mode::kRandomOnly || iteration >= kTotalIterations)
    return trace;

  // Phase 2: guided simulation, one iteration at a time so the trace has
  // per-iteration cost/runtime points.
  trace.switch_iteration = iteration;
  core::GuidedSimOptions guided;
  guided.strategy = mode == Mode::kSwitchToRevS ? core::Strategy::kRevS
                                                : core::Strategy::kAiDcMffc;
  guided.iterations = 1;
  guided.max_backoff = 0;  // every class, every iteration: the raw dynamic
  for (; iteration < kTotalIterations; ++iteration) {
    guided.seed = 1 + iteration;  // fresh pair/row choices per iteration
    core::run_guided_simulation(simulator, classes, guided);
    trace.cost.push_back(classes.cost());
    trace.cumulative_seconds.push_back(watch.seconds());
  }
  return trace;
}

void print_traces(const std::string& name, const Trace& rand_only,
                  const Trace& rand_revs, const Trace& rand_sgen) {
  std::printf("---- %s ----\n", name.c_str());
  std::printf("%4s | %9s %9s | %9s %9s | %9s %9s\n", "iter", "RandS", "t(ms)",
              "+RevS", "t(ms)", "+SimGen", "t(ms)");
  for (std::size_t i = 0; i < kTotalIterations; ++i) {
    const auto cell = [&](const Trace& trace, char* cost_buf, char* time_buf) {
      if (i < trace.cost.size()) {
        std::snprintf(cost_buf, 16, "%llu",
                      static_cast<unsigned long long>(trace.cost[i]));
        std::snprintf(time_buf, 16, "%.2f", trace.cumulative_seconds[i] * 1e3);
      } else {
        std::snprintf(cost_buf, 16, "-");
        std::snprintf(time_buf, 16, "-");
      }
    };
    char c0[16], t0[16], c1[16], t1[16], c2[16], t2[16];
    cell(rand_only, c0, t0);
    cell(rand_revs, c1, t1);
    cell(rand_sgen, c2, t2);
    const char* marker = "";
    if (rand_sgen.switch_iteration != 0 && i == rand_sgen.switch_iteration)
      marker = "  <- switch to guided";
    std::printf("%4zu | %9s %9s | %9s %9s | %9s %9s%s\n", i, c0, t0, c1, t1, c2,
                t2, marker);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  simgen::bench::TelemetryCli telemetry(argc, argv);
  (void)argc;
  (void)argv;
  std::printf("Figure 7: cost/runtime per iteration — RandS vs RandS+RevS vs "
              "RandS+SimGen\n\n");
  for (const char* name : {"apex2", "cps"}) {
    const net::Network network = bench::prepare_benchmark(name);
    const Trace rand_only = run_trace(network, Mode::kRandomOnly);
    const Trace rand_revs = run_trace(network, Mode::kSwitchToRevS);
    const Trace rand_sgen = run_trace(network, Mode::kSwitchToSimGen);
    print_traces(name, rand_only, rand_revs, rand_sgen);

    const std::uint64_t final_rand = rand_only.cost.back();
    const std::uint64_t final_revs = rand_revs.cost.back();
    const std::uint64_t final_sgen = rand_sgen.cost.back();
    std::printf("final cost: RandS %llu, RandS+RevS %llu, RandS+SimGen %llu\n\n",
                static_cast<unsigned long long>(final_rand),
                static_cast<unsigned long long>(final_revs),
                static_cast<unsigned long long>(final_sgen));
  }
  std::printf("Paper reference: RandS plateaus after a few iterations; the\n");
  std::printf("guided continuations keep splitting classes, SimGen reaching\n");
  std::printf("the lowest final cost at some runtime expense.\n");
  return 0;
}
