/// \file bench_common.hpp
/// \brief Shared driver code for the experiment harnesses (see DESIGN.md
/// section 4 for the experiment index).
///
/// Every harness runs the paper's Figure 2 flow: generate + 6-LUT-map a
/// named benchmark, one round of random simulation, N iterations of a
/// guided strategy, then (optionally) SAT sweeping to fixpoint, with the
/// paper's metrics recorded: Eq. 5 cost, simulation runtime, SAT calls,
/// SAT time. The counts come from the flow's own result structs; with
/// --journal-out, every SAT call is also journaled under the strategy
/// arm of its flow, so `sweep_inspect --sat` splits SAT time by arm.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/telemetry_cli.hpp"
#include "simgen_all.hpp"

namespace simgen::bench {

/// Metrics of one (benchmark, strategy) flow run.
struct FlowMetrics {
  std::string benchmark;
  core::Strategy strategy = core::Strategy::kRevS;
  std::uint64_t cost_after_random = 0;
  std::uint64_t cost = 0;          ///< Eq. 5 cost after the guided phase.
  double sim_seconds = 0.0;        ///< Guided-simulation runtime.
  /// Wall time inside simulate calls (random + guided + cex
  /// resimulation), from Simulator::kernel_seconds(). A timing field like
  /// sat_seconds — perf_trend.py gates it via --gate sim_wall_seconds;
  /// compare_bench_json.py never count-gates it.
  double sim_wall_seconds = 0.0;
  std::uint64_t sat_calls = 0;     ///< Sweeping SAT calls (if swept).
  /// Wall time inside Solver::solve during the sweep — a timing field,
  /// never count-gated; perf_trend.py gates it via --gate sat_seconds.
  double sat_seconds = 0.0;
  /// SAT hardness rollups for the trend radar. The counts come from the
  /// flow's own solver instance (not the process registry), so they stay
  /// byte-identical under cell sharding like the other counts. All 0 when
  /// the flow did not sweep.
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_restarts = 0;
  std::uint64_t proven = 0;
  std::uint64_t disproven = 0;
  std::uint64_t unresolved = 0;  ///< Conflict-limited pairs (if capped).
  /// Bench worker threads active when this flow ran (1 = sequential).
  /// Recorded in the BENCH_*.json: counts stay byte-identical under cell
  /// sharding, but wall-clock fields pick up scheduling noise, so
  /// compare_bench_json.py widens its timing tolerance for multithreaded
  /// candidates.
  unsigned num_threads = 1;
  /// Whole-flow wall time (generate-to-JSON), for tools/perf_trend.py.
  /// Like sim/sat_seconds this is a timing field, never count-gated.
  double wall_seconds = 0.0;
  /// Process peak RSS when the flow finished (0 without telemetry).
  double peak_rss_mb = 0.0;
};

struct FlowConfig {
  std::size_t random_rounds = 1;     ///< Paper Section 6.2: one round.
  std::size_t guided_iterations = 20;
  bool run_sweep = false;
  std::uint64_t seed = 1;
  /// Per-class OUTgold target cap forwarded to the guided phase (0 =
  /// whole class). The large stacked circuits use a small cap to bound
  /// vector-generation time; see DESIGN.md.
  std::size_t max_targets_per_class = 0;
  /// Per-call conflict budget for sweeping SAT calls (0 = unlimited).
  /// The harnesses cap pathological proofs so a single hard miter cannot
  /// dominate a 42-benchmark sweep; unresolved pairs are counted.
  std::uint64_t sat_conflict_limit = 0;
};

/// Heartbeat interval (seconds) forwarded to every sweep run_strategy_flow
/// starts; 0 disables. Set by TelemetryCli's --progress so existing bench
/// drivers pick it up without threading a new parameter through.
void set_progress_interval(double seconds);
[[nodiscard]] double progress_interval();

/// Worker threads for the bench drivers (same storage pattern as the
/// progress interval): 1 = sequential, 0 = one per hardware thread. Set
/// by TelemetryCli's --threads. Bench drivers parallelize at *cell*
/// granularity — whole benchmarks (each cell runs every strategy flow of
/// one benchmark) sharded across workers via for_each_cell — and each
/// flow runs the one sequential sweep engine inside, so every
/// FlowMetrics value (and thus every table row and BENCH json count) is
/// byte-identical to a single-thread run. Only the wall-clock fields see
/// scheduling noise.
void set_num_threads(unsigned num_threads);
[[nodiscard]] unsigned num_threads();

/// Runs fn(0), ..., fn(count - 1), sharding the calls across --threads
/// threads (util::parallel_for) when more than one thread is requested.
/// Cells must be independent (each is typically one benchmark's whole
/// flow); the caller collects results by index and prints them
/// afterwards, so output order never depends on the schedule. With one
/// thread this is a plain sequential loop. When a journal is open, each
/// cell run on a thread journals one kTaskRun (code 2, a = cell, b =
/// thread slot, dur_us = cell wall time).
void for_each_cell(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

/// Runs the flow for one strategy on a prepared LUT network. The sweep
/// stamps \p strategy into every journaled cone fingerprint
/// (SweepOptions::strategy_code).
FlowMetrics run_strategy_flow(const net::Network& network, core::Strategy strategy,
                              const FlowConfig& config);

/// Generates and 6-LUT-maps a suite benchmark by name (throws on unknown).
net::Network prepare_benchmark(const std::string& name);

/// Generates, stacks (putontop), and maps a stacked-suite entry.
/// \p gate_scale shrinks the base circuit's gate budget before stacking
/// (the experiment harnesses use 0.6 to keep the 9-entry sweep at
/// laptop runtimes; the stack heights stay exactly the paper's).
net::Network prepare_stacked(const benchgen::StackedSpec& spec,
                             double gate_scale = 1.0);

/// Ratio helper: a/b with the paper's convention that 0/0 compares equal.
double ratio(double value, double baseline);

/// The RevS and SimGen (AI+DC+MFFC) flows of one circuit: one cell of the
/// Table 2 drivers.
struct StrategyPair {
  FlowMetrics revs;
  FlowMetrics sgen;
};

/// Prints the data of paper Figure 5 (flat suite) or Figure 6 (stacked
/// suite) for the Table 2 drivers, which run exactly the figures' flows:
/// one CSV row per circuit with SimGen's cost, guided-simulation time,
/// SAT calls and SAT time as ratios to RevS's (ratio(); 1.0 = parity,
/// below 1.0 = SimGen better), then the means of the four columns.
void print_figure_block(const char* figure,
                        const std::vector<StrategyPair>& cells);

/// Directory for per-run BENCH_<benchmark>__<strategy>.json files. When
/// set (via TelemetryCli's --bench-json-dir or the SIMGEN_BENCH_JSON_DIR
/// environment variable), run_strategy_flow writes one machine-readable
/// JSON file per (benchmark, strategy) run. Empty disables emission.
void set_bench_json_dir(std::string dir);
[[nodiscard]] const std::string& bench_json_dir();

/// Writes \p metrics as BENCH_<benchmark>__<strategy>.json under
/// bench_json_dir(); no-op (returning true) when the dir is unset.
bool write_flow_metrics_json(const FlowMetrics& metrics);

/// Shared telemetry command-line handling for the bench drivers: the
/// generic obs::TelemetryCli flags (--metrics-out, --journal-out,
/// --progress, --timeout; see obs/telemetry_cli.hpp) plus the
/// bench-specific
///   --bench-json-dir DIR   per-run BENCH_*.json output directory
///   --threads N            bench cell workers for for_each_cell (1 =
///                          sequential, the default; 0 = one per hardware
///                          thread); an integer outside [0, 1024] is a
///                          usage error (exit 2)
/// (SIMGEN_BENCH_JSON_DIR in the environment also sets the JSON dir.)
/// Either flag without a value prints "error: --threads needs a value"
/// (or --bench-json-dir) and exits 2, as a generic flag without a value
/// or a malformed --progress/--timeout does. Any other argument starting
/// with '-' is a usage error too: the program prints "error: unknown
/// option '...'" and exits 2.
/// Arguments left over (benchmark names, for the harnesses that take
/// them) stay in argv.
/// --progress is forwarded into set_progress_interval (every
/// run_strategy_flow sweep picks it up) and --threads into set_num_threads
/// (for_each_cell picks it up). A driver needs only
///   int main(int argc, char** argv) { bench::TelemetryCli telemetry(argc, argv); ... }
class TelemetryCli {
 public:
  TelemetryCli(int& argc, char** argv);
  TelemetryCli(const TelemetryCli&) = delete;
  TelemetryCli& operator=(const TelemetryCli&) = delete;

 private:
  obs::TelemetryCli cli_;
};

}  // namespace simgen::bench
