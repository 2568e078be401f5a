/// \file table2_sat_sweeping.cpp
/// \brief Regenerates paper Table 2 (top): SAT calls and SAT time of the
/// sweeping tool under RevS vs SimGen (AI+DC+MFFC) guidance, for all 42
/// benchmarks.
///
/// Flow per benchmark and arm: 6-LUT map, 1 random round, 20 guided
/// iterations, then SAT sweeping to fixpoint. SAT calls and SAT time
/// count exactly the solver work of the sweeping phase. The same flows are
/// paper Figure 5's, so a per-benchmark CSV block of SimGen/RevS ratios
/// (cost, guided-simulation time, SAT calls, SAT time) follows the
/// summary. With --threads N
/// the per-benchmark cells run on N workers (results and row order are
/// identical to the sequential run; see bench_common.hpp). Positional
/// arguments restrict the run to the named benchmarks.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/parallel_for.hpp"
#include "util/stopwatch.hpp"

using namespace simgen;

int main(int argc, char** argv) {
  simgen::bench::TelemetryCli telemetry(argc, argv);
  std::vector<benchgen::CircuitSpec> suite;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      const benchgen::CircuitSpec* spec = benchgen::find_benchmark(argv[i]);
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown benchmark: %s\n", argv[i]);
        return 1;
      }
      suite.push_back(*spec);
    }
  } else {
    const auto full = benchgen::benchmark_suite();
    suite.assign(full.begin(), full.end());
  }
  std::printf("Table 2 (top): SAT calls and SAT time, RevS vs SimGen\n\n");
  std::printf("%-10s | %9s %9s | %12s %12s | %8s\n", "bmk", "RevS", "SGen",
              "RevS ms", "SGen ms", "dCalls%");
  std::vector<bench::StrategyPair> cells(suite.size());
  util::Stopwatch wall;
  wall.start();
  bench::for_each_cell(suite.size(), [&](std::size_t i) {
    const net::Network network = bench::prepare_benchmark(suite[i].name);
    bench::FlowConfig config;
    config.run_sweep = true;
    cells[i].revs =
        bench::run_strategy_flow(network, core::Strategy::kRevS, config);
    cells[i].sgen =
        bench::run_strategy_flow(network, core::Strategy::kAiDcMffc, config);
  });
  wall.stop();

  std::uint64_t total_calls_revs = 0, total_calls_sgen = 0;
  double total_time_revs = 0.0, total_time_sgen = 0.0;
  std::size_t sgen_fewer_calls = 0, rows = 0;

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const bench::FlowMetrics& revs = cells[i].revs;
    const bench::FlowMetrics& sgen = cells[i].sgen;
    const double delta_calls =
        revs.sat_calls == 0
            ? 0.0
            : 100.0 * (static_cast<double>(revs.sat_calls) -
                       static_cast<double>(sgen.sat_calls)) /
                  static_cast<double>(revs.sat_calls);
    std::printf("%-10s | %9llu %9llu | %12.2f %12.2f | %+8.1f\n",
                suite[i].name.c_str(),
                static_cast<unsigned long long>(revs.sat_calls),
                static_cast<unsigned long long>(sgen.sat_calls),
                revs.sat_seconds * 1e3, sgen.sat_seconds * 1e3, delta_calls);

    total_calls_revs += revs.sat_calls;
    total_calls_sgen += sgen.sat_calls;
    total_time_revs += revs.sat_seconds;
    total_time_sgen += sgen.sat_seconds;
    ++rows;
    if (sgen.sat_calls <= revs.sat_calls) ++sgen_fewer_calls;
  }

  std::printf("\n==== Table 2 summary ====\n");
  std::printf("total SAT calls : RevS %llu, SimGen %llu (%.1f%% reduction)\n",
              static_cast<unsigned long long>(total_calls_revs),
              static_cast<unsigned long long>(total_calls_sgen),
              total_calls_revs == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(total_calls_sgen) /
                                       static_cast<double>(total_calls_revs)));
  std::printf("total SAT time  : RevS %.2f s, SimGen %.2f s\n", total_time_revs,
              total_time_sgen);
  std::printf("SimGen <= RevS SAT calls on %zu / %zu benchmarks\n",
              sgen_fewer_calls, rows);
  const unsigned workers = util::resolve_num_threads(bench::num_threads());
  std::printf("wall time       : %.2f s (%u worker thread%s)\n", wall.seconds(),
              workers, workers == 1 ? "" : "s");
  std::printf("\nPaper reference: SimGen reduces SAT calls on the large\n");
  std::printf("majority of the 42 benchmarks (e.g. b21_C 1369 -> 271).\n");
  bench::print_figure_block("Figure 5", cells);
  return 0;
}
