#include "bench_common.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "util/parallel_for.hpp"
#include "util/parse_option.hpp"
#include "util/stopwatch.hpp"

namespace simgen::bench {

namespace {

std::string& json_dir_storage() {
  static std::string dir = [] {
    const char* env = std::getenv("SIMGEN_BENCH_JSON_DIR");
    return std::string(env != nullptr ? env : "");
  }();
  return dir;
}

/// Filename-safe strategy tag: "AI+DC+MFFC" -> "AI_DC_MFFC".
std::string strategy_tag(core::Strategy strategy) {
  std::string tag(core::strategy_name(strategy));
  for (char& c : tag)
    if (c == '+' || c == '/' || c == ' ') c = '_';
  return tag;
}

double& progress_interval_storage() {
  static double seconds = 0.0;
  return seconds;
}

unsigned& num_threads_storage() {
  static unsigned threads = 1;
  return threads;
}

/// Set by any cell whose BENCH record could not be written.
std::atomic<bool> bench_json_failed{false};

}  // namespace

void set_progress_interval(double seconds) {
  progress_interval_storage() = seconds;
}

double progress_interval() { return progress_interval_storage(); }

void set_num_threads(unsigned num_threads) {
  num_threads_storage() = num_threads;
}

unsigned num_threads() { return num_threads_storage(); }

void for_each_cell(std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
  const unsigned threads = util::resolve_num_threads(num_threads());
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  util::parallel_for(count, threads, [&](std::size_t index, unsigned slot) {
    util::Stopwatch cell_watch;
    if (obs::journal_enabled()) cell_watch.start();
    fn(index);
    if (obs::journal_enabled()) {
      // Code 2 = bench cell; the payload is the cell index again (cells
      // have no node identity). sweep_inspect --check needs these events
      // to accept the interleaved phases of concurrent cells.
      obs::journal_emit(obs::EventKind::kTaskRun, 2, index, slot,
                        /*round=*/0, index, 0, 0,
                        obs::saturate_us(cell_watch.seconds()));
    }
  });
}

void set_bench_json_dir(std::string dir) { json_dir_storage() = std::move(dir); }

const std::string& bench_json_dir() { return json_dir_storage(); }

bool write_flow_metrics_json(const FlowMetrics& metrics) {
  const std::string& dir = bench_json_dir();
  if (dir.empty()) return true;
  const std::string path = dir + "/BENCH_" + metrics.benchmark + "__" +
                           strategy_tag(metrics.strategy) + ".json";
  std::ofstream out(path);
  if (!out) return false;
  out.precision(15);
  out << "{\n"
      << "  \"benchmark\": \"" << obs::detail::json_escape(metrics.benchmark)
      << "\",\n"
      << "  \"strategy\": \"" << core::strategy_name(metrics.strategy)
      << "\",\n"
      << "  \"cost_after_random\": " << metrics.cost_after_random << ",\n"
      << "  \"cost\": " << metrics.cost << ",\n"
      << "  \"sim_seconds\": " << metrics.sim_seconds << ",\n"
      << "  \"sim_wall_seconds\": " << metrics.sim_wall_seconds << ",\n"
      << "  \"sat_calls\": " << metrics.sat_calls << ",\n"
      << "  \"sat_seconds\": " << metrics.sat_seconds << ",\n"
      << "  \"sat_conflicts\": " << metrics.sat_conflicts << ",\n"
      << "  \"sat_propagations\": " << metrics.sat_propagations << ",\n"
      << "  \"sat_restarts\": " << metrics.sat_restarts << ",\n"
      << "  \"proven\": " << metrics.proven << ",\n"
      << "  \"disproven\": " << metrics.disproven << ",\n"
      << "  \"unresolved\": " << metrics.unresolved << ",\n"
      << "  \"num_threads\": " << metrics.num_threads << ",\n"
      << "  \"wall_seconds\": " << metrics.wall_seconds << ",\n"
      << "  \"peak_rss_mb\": " << metrics.peak_rss_mb << "\n"
      << "}\n";
  return out.good();
}

TelemetryCli::TelemetryCli(int& argc, char** argv)
    : cli_(std::in_place, argc, argv, kUsageStatus) {
  // The generic flags are already stripped; pick off --bench-json-dir and
  // --threads, reject any other option, and forward the heartbeat
  // interval into the flow runner.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(flag, "--bench-json-dir") == 0) {
      set_bench_json_dir(value());
      continue;
    }
    if (std::strcmp(flag, "--threads") == 0) {
      // Hard cap far above any sane request: a typo'd or negative value
      // must become a usage error, not 4 billion spawned threads.
      // 0 means auto (util::resolve_num_threads).
      constexpr std::uint64_t kMaxThreads = 1024;
      std::uint64_t threads = 0;
      if (!util::parse_option("--threads", value(), threads, kMaxThreads))
        std::exit(2);
      set_num_threads(static_cast<unsigned>(threads));
      continue;
    }
    if (flag[0] == '-') {
      // A mistyped or retired flag must not run the whole suite as if
      // it were absent.
      std::fprintf(stderr, "error: unknown option '%s'\n", flag);
      std::exit(2);
    }
    argv[out++] = argv[i];
  }
  argc = out;
  set_progress_interval(cli_->progress_interval());
}

TelemetryCli::~TelemetryCli() {
  // The journal and metrics file are reported (or fail the run) first.
  cli_.reset();
  if (bench_json_failed.load()) std::exit(kUsageStatus);
}

FlowMetrics run_strategy_flow(const net::Network& network, core::Strategy strategy,
                              const FlowConfig& config) {
  util::Stopwatch flow_watch;
  flow_watch.start();
  FlowMetrics metrics;
  metrics.benchmark = network.name();
  metrics.strategy = strategy;

  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);

  sim::RandomSimOptions random_options;
  random_options.max_rounds = 1;
  random_options.seed = config.seed;
  sim::run_random_simulation(simulator, classes, random_options);
  metrics.cost_after_random = classes.cost();

  core::GuidedSimOptions guided;
  guided.strategy = strategy;
  guided.seed = config.seed;
  guided.max_targets_per_class = config.max_targets_per_class;
  const core::GuidedSimResult guided_result =
      core::run_guided_simulation(simulator, classes, guided);
  metrics.cost = classes.cost();
  metrics.sim_seconds = guided_result.runtime_seconds;

  metrics.num_threads = num_threads();
  if (config.run_sweep) {
    sweep::SweepOptions sweep_options;
    sweep_options.seed = config.seed;
    sweep_options.progress_interval = progress_interval();
    sweep_options.strategy_code = static_cast<std::uint8_t>(strategy);
    // Benches parallelize across cells (see for_each_cell); the sweep
    // inside a cell is sequential, so metrics stay byte-identical to a
    // single-thread run and workers are never nested.
    sweep::Sweeper sweeper(network, sweep_options);
    const sweep::SweepResult sweep_result = sweeper.run(classes, simulator);
    metrics.sat_calls = sweep_result.sat_calls;
    metrics.sat_seconds = sweep_result.sat_seconds;
    metrics.proven = sweep_result.proven_equivalent;
    metrics.disproven = sweep_result.disproven;
    metrics.unresolved = sweep_result.unresolved;
    // SAT hardness rollups from this flow's own solver instance — the
    // registry totals would mix in concurrently sharded cells.
    const sat::SolverStats& solver_stats = sweeper.solver().stats();
    metrics.sat_conflicts = solver_stats.conflicts.value();
    metrics.sat_propagations = solver_stats.propagations.value();
    metrics.sat_restarts = solver_stats.restarts.value();
  }
  flow_watch.stop();
  metrics.wall_seconds = flow_watch.seconds();
  // Simulate-call wall time accumulated across every phase that touched
  // this flow's simulator (random, guided, cex resimulation).
  metrics.sim_wall_seconds = simulator.kernel_seconds();
  // Reads 0 under SIMGEN_NO_TELEMETRY, keeping the JSON schema identical
  // in both builds.
  metrics.peak_rss_mb =
      static_cast<double>(obs::sample_resources().peak_rss_kb) / 1024.0;
  if (!write_flow_metrics_json(metrics)) {
    std::fprintf(stderr, "error: cannot write BENCH json for %s\n",
                 metrics.benchmark.c_str());
    bench_json_failed = true;
  }
  return metrics;
}

net::Network prepare_benchmark(const std::string& name) {
  const benchgen::CircuitSpec* spec = benchgen::find_benchmark(name);
  if (spec == nullptr) throw std::invalid_argument("unknown benchmark " + name);
  return benchgen::generate_mapped(*spec);
}

net::Network prepare_stacked(const benchgen::StackedSpec& spec,
                             double gate_scale) {
  const benchgen::CircuitSpec* base = benchgen::find_benchmark(std::string(spec.base));
  if (base == nullptr)
    throw std::invalid_argument("unknown benchmark " + std::string(spec.base));
  benchgen::CircuitSpec scaled = *base;
  scaled.num_gates = std::max<unsigned>(
      64, static_cast<unsigned>(static_cast<double>(base->num_gates) * gate_scale));
  net::Network network = mapping::map_to_luts(
      aig::put_on_top(benchgen::generate_circuit(scaled), spec.copies));
  network.set_name(std::string(spec.base) + "x" + std::to_string(spec.copies));
  return network;
}

double ratio(double value, double baseline) {
  if (baseline == 0.0) return value == 0.0 ? 1.0 : 0.0;
  return value / baseline;
}

void print_figure_block(const char* figure,
                        const std::vector<StrategyPair>& cells) {
  std::printf("\n==== %s data (CSV, SimGen / RevS) ====\n", figure);
  std::printf("benchmark,cost_ratio,sim_runtime_ratio,sat_calls_ratio,"
              "sat_time_ratio\n");
  double cost = 0.0, sim = 0.0, calls = 0.0, sat = 0.0;
  for (const StrategyPair& cell : cells) {
    const FlowMetrics& revs = cell.revs;
    const FlowMetrics& sgen = cell.sgen;
    const double row[4] = {
        ratio(static_cast<double>(sgen.cost), static_cast<double>(revs.cost)),
        ratio(sgen.sim_seconds, revs.sim_seconds),
        ratio(static_cast<double>(sgen.sat_calls),
              static_cast<double>(revs.sat_calls)),
        ratio(sgen.sat_seconds, revs.sat_seconds)};
    std::printf("%s,%.4f,%.4f,%.4f,%.4f\n", revs.benchmark.c_str(), row[0],
                row[1], row[2], row[3]);
    cost += row[0];
    sim += row[1];
    calls += row[2];
    sat += row[3];
  }
  const double n = static_cast<double>(cells.size());
  std::printf("means: cost %.3f, sim_runtime %.3f, sat_calls %.3f, "
              "sat_time %.3f (RevS = 1.0)\n",
              cost / n, sim / n, calls / n, sat / n);
}

}  // namespace simgen::bench
