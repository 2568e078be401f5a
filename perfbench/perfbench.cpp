/// \file perfbench.cpp
/// \brief The repository benchmark: three workloads, each a closed loop
/// with one client that runs one item at a time on one thread.
///
///   flat_simgen    Figure 2 flow (1 random round, 20 AI+DC+MFFC guided
///                  iterations, SAT sweep to fixpoint) on the 42 suite
///                  circuits, one item per circuit.
///   stacked_revs   the same flow under RevS on the 9 stacked Table 2
///                  (bottom) circuits, one item per circuit.
///   cec_certified  DRAT-certified check_equivalence of 30 circuits
///                  against 16-rewrite copies, plus every third circuit
///                  against a fault-injected mutant (40 items).
///
/// Usage:
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--items K] [--ledger-out FILE] [--all-metrics]
///
/// Every layer is timed here, around calls into the libraries' public
/// functions; work counts are registry counter deltas taken at the same
/// boundaries plus the counts the calls return. The last line of stdout
/// is one JSON object: the end-to-end metrics with --trace 0, the
/// per-layer metrics with --trace 1 (both with --all-metrics). See
/// perfbench/README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/putontop.hpp"
#include "benchgen/generator.hpp"
#include "benchgen/suite.hpp"
#include "fuzz/mutate.hpp"
#include "mapping/lut_mapper.hpp"
#include "obs/metrics.hpp"
#include "sim/eqclass.hpp"
#include "sim/random_sim.hpp"
#include "sim/simulator.hpp"
#include "simgen/guided_sim.hpp"
#include "sweep/cec.hpp"
#include "sweep/sweeper.hpp"
#include "util/rng.hpp"

namespace {

using namespace simgen;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kFlow, kCec };

struct Workload {
  std::string_view name;
  Kind kind;
  core::Strategy strategy;            ///< Flow arm, or the CEC guided arm.
  std::size_t max_targets_per_class;  ///< Flow only (0 = whole class).
};

constexpr Workload kWorkloads[] = {
    {"flat_simgen", Kind::kFlow, core::Strategy::kAiDcMffc, 0},
    {"stacked_revs", Kind::kFlow, core::Strategy::kRevS, 8},
    {"cec_certified", Kind::kCec, core::Strategy::kAiDcMffc, 0},
};

constexpr std::size_t kGuidedIterations = 20;  // paper Section 6.1
constexpr double kStackedGateScale = 0.6;      // as bench/table2_putontop
constexpr std::size_t kCecCircuits = 30;       // the MCNC/EPFL part: alu4 .. log2
constexpr unsigned kCecRewrites = 16;
constexpr std::size_t kNeqEvery = 3;  // NEQ jobs stay a minority (10 of 40)
// Set-up is repeated, at least kMinSetupReps times and until kSetupSeconds
// have passed; setup_s sums each circuit's median set-up time over the
// repetitions, so a burst of interference in one repetition is outvoted.
constexpr int kMinSetupReps = 3;
constexpr double kSetupSeconds = 6.0;
// The traced run's layer self times must account for item wall: the part
// of item wall no layer span covers may be at most this share.
constexpr double kLedgerTolerance = 0.05;

/// One unit of work: a circuit to run the flow on, or a CEC job.
struct Item {
  std::string name;
  net::Network network;
  net::Network mutant;            ///< CEC only: the other operand.
  bool expect_equivalent = true;  ///< CEC only: ground truth.
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit.

enum Phase : int { kSetupPhase = 0, kTracedPhase = 1, kReplayPhase = 2 };

/// Registry counters recorded at every span boundary.
constexpr std::string_view kCounters[] = {
    "simgen.targets_attempted", "simgen.targets_satisfied",
    "simgen.implications",      "simgen.decisions",
    "simgen.conflicts",         "revs.attempts",
    "revs.successes",           "sat.conflicts",
    "sat.propagations",         "sat.decisions",
    "sat.restarts",             "sim.words",
    "eq.refine_calls",          "eq.splits",
    "drat.checked_lemmas",      "drat.rup_checks",
    "drat.propagations",        "drat.certified_targets",
};

struct SpanRecord {
  std::string name;
  int parent = -1;
  int phase = 0;
  int round = 0;
  int item = -1;
  double start = 0.0;  ///< Seconds since the trace epoch.
  double end = 0.0;
  /// Library-reported time inside this span (solver time, kernel time,
  /// tracing cost); each is its own layer in the ledger.
  std::vector<std::pair<std::string, double>> parts;
  std::map<std::string, std::uint64_t> counts;  ///< Deltas and returned counts.
};

class Trace {
 public:
  /// Spans are recorded only while active.
  void set_active(bool active, int phase = 0, int round = 0) {
    active_ = active;
    phase_ = phase;
    round_ = round;
  }

  int begin(std::string name, int parent, int item) {
    if (!active_) return -1;
    const Clock::time_point t0 = Clock::now();
    open_.emplace(static_cast<int>(spans_.size()), obs::capture_snapshot());
    SpanRecord record;
    record.name = std::move(name);
    record.parent = parent;
    record.phase = phase_;
    record.round = round_;
    record.item = item;
    spans_.push_back(std::move(record));
    const int id = static_cast<int>(spans_.size()) - 1;
    spans_[id].start = since_epoch(Clock::now());
    charge_tracing(parent, seconds_between(t0, Clock::now()));
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    SpanRecord& record = spans_[id];
    const Clock::time_point t0 = Clock::now();
    record.end = since_epoch(t0);
    const auto it = open_.find(id);
    const obs::TelemetrySnapshot delta =
        obs::diff_snapshots(it->second, obs::capture_snapshot());
    open_.erase(it);
    for (std::string_view name : kCounters)
      if (const std::uint64_t value = delta.counter_value(name); value != 0)
        record.counts[std::string(name)] += value;
    charge_tracing(record.parent, seconds_between(t0, Clock::now()));
  }

  void part(int id, std::string name, double seconds) {
    if (id >= 0) spans_[id].parts.emplace_back(std::move(name), seconds);
  }

  void count(int id, const std::string& name, std::uint64_t value) {
    if (id >= 0) spans_[id].counts[name] += value;
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  double since_epoch(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }
  /// Snapshot cost inside a parent span is its own layer, so tracing
  /// never hides in another layer's self time.
  void charge_tracing(int parent, double seconds) {
    if (parent >= 0) spans_[parent].parts.emplace_back("obs.trace", seconds);
  }

  bool active_ = false;
  int phase_ = 0;
  int round_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::unordered_map<int, obs::TelemetrySnapshot> open_;
};

// ---------------------------------------------------------------------------
// Set-up: generation, stacking, mapping, mutant construction.

net::Network generate_and_map(const benchgen::CircuitSpec& spec, Trace& trace) {
  int span = trace.begin("benchgen.generate", -1, -1);
  const aig::Aig graph = benchgen::generate_circuit(spec);
  trace.end(span);
  span = trace.begin("mapping.map", -1, -1);
  net::Network network = mapping::map_to_luts(graph);
  trace.end(span);
  return network;
}

/// Per-circuit mutation stream: a function of the seed and the circuit's
/// position only, so reduced inputs see the same mutants.
util::Rng mutation_rng(std::uint64_t seed, std::size_t circuit) {
  return util::Rng(util::splitmix64(seed) ^ util::splitmix64(0x6d757461ull + circuit));
}

/// Builds the workload's items and appends each circuit's set-up time (all
/// its items together) to \p circuit_seconds.
std::vector<Item> build_items(const Workload& workload, std::uint64_t seed,
                              std::size_t max_items, Trace& trace,
                              std::vector<double>& circuit_seconds) {
  std::vector<Item> items;
  const auto full = [&] { return max_items != 0 && items.size() >= max_items; };
  Clock::time_point t0 = Clock::now();
  const auto lap = [&] {
    const Clock::time_point t1 = Clock::now();
    circuit_seconds.push_back(seconds_between(t0, t1));
    t0 = t1;
  };
  switch (workload.kind) {
    case Kind::kFlow:
      if (workload.strategy != core::Strategy::kRevS) {
        for (const benchgen::CircuitSpec& spec : benchgen::benchmark_suite()) {
          if (full()) break;
          items.push_back({spec.name, generate_and_map(spec, trace), {}, true});
          lap();
        }
      } else {
        for (const benchgen::StackedSpec& stacked : benchgen::stacked_suite()) {
          if (full()) break;
          benchgen::CircuitSpec spec = *benchgen::find_benchmark(stacked.base);
          spec.num_gates = std::max<unsigned>(
              64, static_cast<unsigned>(spec.num_gates * kStackedGateScale));
          int span = trace.begin("benchgen.generate", -1, -1);
          const aig::Aig base = benchgen::generate_circuit(spec);
          trace.end(span);
          span = trace.begin("aig.putontop", -1, -1);
          const aig::Aig stack = aig::put_on_top(base, stacked.copies);
          trace.end(span);
          span = trace.begin("mapping.map", -1, -1);
          net::Network network = mapping::map_to_luts(stack);
          trace.end(span);
          std::string name = spec.name + "x" + std::to_string(stacked.copies);
          network.set_name(name);
          items.push_back({std::move(name), std::move(network), {}, true});
          lap();
        }
      }
      break;
    case Kind::kCec: {
      const auto suite = benchgen::benchmark_suite();
      for (std::size_t c = 0; c < kCecCircuits && !full(); ++c) {
        net::Network base = generate_and_map(suite[c], trace);
        util::Rng rng = mutation_rng(seed, c);
        int span = trace.begin("fuzz.mutate", -1, -1);
        fuzz::Mutant rewrite = fuzz::rewrite_equivalent(base, rng, kCecRewrites);
        trace.end(span);
        std::optional<fuzz::Mutant> fault;
        if (c % kNeqEvery == 0) {
          span = trace.begin("fuzz.mutate", -1, -1);
          fault = fuzz::inject_fault(base, rng);
          trace.end(span);
        }
        items.push_back({suite[c].name + "/eq", base, std::move(rewrite.network),
                         rewrite.equivalent});
        if (fault.has_value() && !full())
          items.push_back({suite[c].name + "/neq", std::move(base),
                           std::move(fault->network), fault->equivalent});
        lap();
      }
      break;
    }
  }
  return items;
}

// ---------------------------------------------------------------------------
// Items

/// What one item run returns for checking (outside the timed region).
struct Outcome {
  std::uint64_t cost = 0;       ///< Eq. 5 cost after the guided phase.
  std::uint64_t sat_calls = 0;  ///< Sweep plus output-proof calls.
  bool classes_resolved = false;
  sweep::SweepResult sweep;
  std::optional<sweep::CecResult> cec;
};

Outcome run_flow_item(const Item& item, const Workload& workload,
                      std::uint64_t seed, Trace& trace, int root) {
  Outcome out;
  int span = trace.begin("sim.build", root, -1);
  sim::Simulator simulator(item.network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(item.network);
  trace.end(span);

  double kernel = simulator.kernel_seconds();
  const auto charge_kernel = [&](int id) {
    const double now = simulator.kernel_seconds();
    trace.part(id, "sim.kernel", now - kernel);
    kernel = now;
  };

  span = trace.begin("sim.random", root, -1);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 1;  // paper Section 6.2
  random_options.seed = seed;
  sim::run_random_simulation(simulator, classes, random_options);
  trace.end(span);
  charge_kernel(span);

  span = trace.begin("simgen.guided", root, -1);
  core::GuidedSimOptions guided_options;
  guided_options.strategy = workload.strategy;
  guided_options.iterations = kGuidedIterations;
  guided_options.seed = seed;
  guided_options.max_targets_per_class = workload.max_targets_per_class;
  const core::GuidedSimResult guided =
      core::run_guided_simulation(simulator, classes, guided_options);
  trace.end(span);
  charge_kernel(span);
  out.cost = classes.cost();

  span = trace.begin("sweep.run", root, -1);
  sweep::SweepOptions sweep_options;
  sweep_options.seed = seed;
  sweep::Sweeper sweeper(item.network, sweep_options);
  out.sweep = sweeper.run(classes, simulator);
  trace.end(span);
  charge_kernel(span);
  trace.part(span, "sat.solve", out.sweep.sat_seconds);
  out.sat_calls = out.sweep.sat_calls;
  out.classes_resolved = classes.fully_refined();

  trace.count(root, "simgen.vectors_generated", guided.vectors_generated);
  trace.count(root, "simgen.vectors_skipped", guided.vectors_skipped);
  return out;
}

Outcome run_cec_item(const Item& item, const Workload& workload,
                     std::uint64_t seed, bool certify, Trace& trace, int root) {
  Outcome out;
  sweep::CecOptions options;
  options.seed = seed;
  options.guided_strategy = workload.strategy;
  options.certify = certify;
  obs::set_gauge("cec.cost_after_guided", -1.0);
  const int span = trace.begin("cec.check", root, -1);
  out.cec = sweep::check_equivalence(item.network, item.mutant, options);
  trace.end(span);
  const sweep::CecResult& result = *out.cec;
  trace.part(span, "sat.solve", result.sweep_stats.sat_seconds);
  trace.part(span, "sat.solve.output", result.output_sat_seconds);
  trace.count(root, "cec.output_sat_calls", result.output_sat_calls);
  // The gauge is left unset when random simulation alone finds the
  // counterexample: that job never reaches the guided phase.
  const double cost = obs::gauge_value("cec.cost_after_guided");
  out.cost = cost > 0.0 ? static_cast<std::uint64_t>(cost) : 0;
  out.sweep = result.sweep_stats;
  out.sat_calls = result.sweep_stats.sat_calls + result.output_sat_calls;
  return out;
}

/// Simulates \p vector on \p network and returns its PO values.
std::vector<bool> po_values(const net::Network& network,
                            const std::vector<bool>& vector) {
  sim::Simulator simulator(network);
  std::vector<sim::PatternWord> words(network.num_pis(), 0);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = vector[i] ? 1 : 0;
  simulator.simulate_word(words);
  std::vector<bool> values;
  for (net::NodeId po : network.pos()) values.push_back(simulator.value(po) & 1u);
  return values;
}

/// Output checks; returns the first violation, or an empty string.
std::string check_outcome(const Item& item, const Outcome& out, Kind kind,
                          bool certify) {
  const sweep::SweepResult& s = out.sweep;
  if (s.proven_equivalent + s.disproven + s.unresolved != s.sat_calls)
    return "proven + disproven + unresolved != sat_calls";
  if (s.unresolved != 0) return "unresolved sweep pairs";
  if (kind == Kind::kFlow) {
    if (!out.classes_resolved) return "classes left after Sweeper::run";
    return {};
  }
  const sweep::CecResult& r = *out.cec;
  if (r.undecided) return "CEC verdict undecided";
  if (r.equivalent != item.expect_equivalent) return "CEC verdict contradicts ground truth";
  if (certify && (r.certified_outputs != r.outputs_proven ||
                  s.certified_unsat != s.proven_equivalent))
    return "an UNSAT verdict was not DRAT-certified";
  if (!r.equivalent) {
    if (r.counterexample.size() != item.network.num_pis())
      return "counterexample has the wrong width";
    if (po_values(item.network, r.counterexample) ==
        po_values(item.mutant, r.counterexample))
      return "counterexample shows no PO difference";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linear-interpolation quantile (numpy's default).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Per-name sums over the spans of one (phase, round).
struct RoundLedger {
  std::map<std::string, double> duration;  ///< By span name.
  std::map<std::string, double> self;      ///< Duration minus children and parts.
  std::map<std::string, double> parts;     ///< By part name.
  std::map<std::string, std::uint64_t> counts;  ///< Root spans only.
  double item_wall = 0.0;                       ///< Sum of "item" spans.
};

std::map<std::pair<int, int>, RoundLedger> build_ledgers(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) covered[span.parent] += span.end - span.start;
  }
  std::map<std::pair<int, int>, RoundLedger> ledgers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    RoundLedger& ledger = ledgers[{span.phase, span.round}];
    const double duration = span.end - span.start;
    double parts = 0.0;
    for (const auto& [name, seconds] : span.parts) {
      ledger.parts[name] += seconds;
      parts += seconds;
    }
    ledger.duration[span.name] += duration;
    ledger.self[span.name] += duration - covered[i] - parts;
    if (span.parent < 0)
      for (const auto& [name, value] : span.counts) ledger.counts[name] += value;
    if (span.name == "item") ledger.item_wall += duration;
  }
  return ledgers;
}

/// Time certification adds to one traced pass of CEC jobs: cec.check time
/// outside the solver, certified minus the uncertified replay. The solver's
/// own time (proof logging included) stays in sat.solve, charged once.
double certify_seconds(const RoundLedger& traced, const RoundLedger& replay) {
  const auto outside_solve = [](const RoundLedger& ledger) {
    double seconds = 0.0;
    if (const auto it = ledger.duration.find("cec.check"); it != ledger.duration.end())
      seconds += it->second;
    for (const char* part : {"sat.solve", "sat.solve.output"})
      if (const auto it = ledger.parts.find(part); it != ledger.parts.end())
        seconds -= it->second;
    return seconds;
  };
  return outside_solve(traced) - outside_solve(replay);
}

void write_json_string(std::FILE* out, std::string_view text) {
  std::fprintf(out, "\"%s\"", obs::detail::json_escape(text).c_str());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Command line and run loop

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t max_items = 0;  ///< 0 = every item.
  std::string ledger_out;
  bool all_metrics = false;
};

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--items K] [--ledger-out FILE] "
               "[--all-metrics]\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--all-metrics") {
      options.all_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& workload : kWorkloads)
        if (workload.name == value) options.workload = &workload;
      if (options.workload == nullptr) usage_error("unknown workload");
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--items") {
      options.max_items = std::strtoull(value, nullptr, 10);
    } else if (arg == "--ledger-out") {
      options.ledger_out = value;
    } else {
      usage_error("unknown option");
    }
  }
  if (options.workload == nullptr) usage_error("--workload is required");
  return options;
}

class Bench {
 public:
  explicit Bench(const Options& options)
      : options_(options), workload_(*options.workload) {}

  int run();

 private:
  /// Runs item \p i once, checks its output, and returns its latency.
  double run_item(std::size_t i, int phase, bool certify);
  /// Untraced item latencies, item after item in passes, until \p seconds
  /// elapse (but at least one full pass).
  void run_untraced(double seconds, bool certify);
  /// Traced full passes until \p seconds elapse, at least one. On the CEC
  /// workload each traced job is followed by its uncertified replay.
  void run_traced(double seconds, bool certify);
  std::vector<Metric> end_to_end_metrics() const;
  std::vector<Metric> per_layer_metrics(
      const std::map<std::pair<int, int>, RoundLedger>& ledgers) const;
  std::map<std::string, double> layer_shares(
      const std::map<std::pair<int, int>, RoundLedger>& ledgers) const;
  void write_ledger(const std::map<std::string, double>& shares) const;

  const Options& options_;
  const Workload& workload_;
  Trace trace_;
  std::vector<Item> items_;
  std::vector<std::vector<double>> setup_seconds_;  ///< Per circuit, per set-up.
  struct Counts {
    std::uint64_t cost = 0;
    std::uint64_t sat_calls = 0;
    bool operator==(const Counts&) const = default;
  };
  std::vector<std::optional<Counts>> reference_;  ///< First run of each item.
  std::vector<std::vector<double>> samples_;      ///< Untraced item latencies.
  std::vector<double> untraced_walls_;
  std::vector<double> traced_walls_;
  int traced_rounds_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool deterministic_ = true;
};

double Bench::run_item(std::size_t i, int phase, bool certify) {
  const Item& item = items_[i];
  const int root = trace_.begin("item", -1, static_cast<int>(i));
  const Clock::time_point t0 = Clock::now();
  Outcome out;
  std::string error;
  try {
    out = workload_.kind == Kind::kFlow
              ? run_flow_item(item, workload_, options_.seed, trace_, root)
              : run_cec_item(item, workload_, options_.seed, certify, trace_, root);
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }
  const double seconds = seconds_between(t0, Clock::now());
  trace_.end(root);
  trace_.count(root, "sweep.sat_calls", out.sweep.sat_calls);
  trace_.count(root, "sweep.proven", out.sweep.proven_equivalent);
  trace_.count(root, "sweep.disproven", out.sweep.disproven);
  trace_.count(root, "sweep.resimulations", out.sweep.resimulations);
  trace_.count(root, "sat.inprocess_runs", out.sweep.inprocess_runs);

  ++attempted_;
  if (error.empty()) error = check_outcome(item, out, workload_.kind, certify);
  const Counts counts{out.cost, out.sat_calls};
  if (error.empty() && phase != kReplayPhase) {
    if (!reference_[i].has_value()) {
      reference_[i] = counts;
    } else if (*reference_[i] != counts) {
      error = "cost or sat_calls differ from the item's first run";
      deterministic_ = false;
    }
  }
  if (!error.empty()) {
    ++failed_;
    std::fprintf(stderr, "item %s failed: %s\n", item.name.c_str(), error.c_str());
  }
  return seconds;
}

void Bench::run_untraced(double seconds, bool certify) {
  samples_.assign(items_.size(), {});
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    double wall = 0.0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      // Stopping between items, not passes, keeps a run's length close to
      // `seconds` although one pass of a workload takes several seconds.
      if (pass > 0 && seconds_between(start, Clock::now()) >= seconds) return;
      const double latency = run_item(i, -1, certify);
      samples_[i].push_back(latency);
      wall += latency;
    }
    untraced_walls_.push_back(wall);
  }
}

void Bench::run_traced(double seconds, bool certify) {
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    double wall = 0.0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      trace_.set_active(true, kTracedPhase, round);
      wall += run_item(i, kTracedPhase, certify);
      if (workload_.kind == Kind::kCec) {
        // The same job right after, without certification: the difference
        // is the DRAT layer's cost. Pairing job by job keeps a change of
        // machine speed between passes out of that difference.
        trace_.set_active(true, kReplayPhase, round);
        run_item(i, kReplayPhase, false);
      }
    }
    trace_.set_active(false);
    traced_walls_.push_back(wall);
    ++traced_rounds_;
    if (seconds_between(start, Clock::now()) >= seconds) return;
  }
}

int Bench::run() {
  const bool cec = workload_.kind == Kind::kCec;
  const Clock::time_point setup_start = Clock::now();
  for (int rep = 0; rep < kMinSetupReps ||
                    seconds_between(setup_start, Clock::now()) < kSetupSeconds;
       ++rep) {
    items_.clear();
    trace_.set_active(options_.trace, kSetupPhase, rep);
    std::vector<double> circuit_seconds;
    items_ = build_items(workload_, options_.seed, options_.max_items, trace_,
                         circuit_seconds);
    setup_seconds_.resize(circuit_seconds.size());
    for (std::size_t c = 0; c < circuit_seconds.size(); ++c)
      setup_seconds_[c].push_back(circuit_seconds[c]);
  }
  trace_.set_active(false);

  reference_.assign(items_.size(), std::nullopt);
  run_untraced(options_.trace ? options_.seconds / 2 : options_.seconds, cec);
  std::map<std::pair<int, int>, RoundLedger> ledgers;
  if (options_.trace) {
    run_traced(options_.seconds / 2, cec);
    ledgers = build_ledgers(trace_.spans());
    // Every traced pass repeats the same work, so its counts must too.
    const RoundLedger& first = ledgers.at({kTracedPhase, 0});
    for (const auto& [key, ledger] : ledgers)
      if (key.first == kTracedPhase && ledger.counts != first.counts) {
        std::fprintf(stderr, "traced pass %d counts differ from pass 0\n", key.second);
        deterministic_ = false;
      }
  }

  std::size_t untraced_runs = 0;
  for (const std::vector<double>& item : samples_) untraced_runs += item.size();
  std::printf("perfbench %s: seed %llu, %zu items, %zu untraced item runs "
              "(%zu full passes), %d traced passes, %d set-ups; one client, "
              "one thread, closed loop\n",
              std::string(workload_.name).c_str(),
              static_cast<unsigned long long>(options_.seed), items_.size(),
              untraced_runs, untraced_walls_.size(), traced_rounds_,
              setup_seconds_.empty() ? 0 : static_cast<int>(setup_seconds_[0].size()));
  std::printf("  full-pass item wall (s):");
  for (double wall : untraced_walls_) std::printf(" %.4f", wall);
  std::printf("\n");
  std::vector<Metric> metrics;
  bool ledger_ok = true;
  if (!options_.trace || options_.all_metrics) {
    for (Metric& m : end_to_end_metrics()) metrics.push_back(std::move(m));
    std::printf("  failed_frac %.6g (%llu of %llu item runs)\n",
                attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  }
  if (options_.trace) {
    for (Metric& m : per_layer_metrics(ledgers)) metrics.push_back(std::move(m));
    const std::map<std::string, double> shares = layer_shares(ledgers);
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [name, share] : shares) ranked.emplace_back(share, name);
    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("  layer self time / item wall (median of %d traced passes):\n",
                traced_rounds_);
    double named = 0.0;
    for (const auto& [share, name] : ranked) {
      std::printf("    %-20s %6.2f%%\n", name.c_str(), 100.0 * share);
      if (name != "bench.unattributed") named += share;
    }
    const double unattributed = shares.count("bench.unattributed")
                                    ? shares.at("bench.unattributed")
                                    : 0.0;
    ledger_ok = unattributed <= kLedgerTolerance;
    std::printf("  ledger check: layers cover %.2f%% of item wall, "
                "unattributed %.2f%% (tolerance %.0f%%): %s\n",
                100.0 * named, 100.0 * unattributed, 100.0 * kLedgerTolerance,
                ledger_ok ? "ok" : "FAIL");
    std::printf("  dominant layer: %s\n",
                ranked.empty() ? "-" : ranked.front().second.c_str());
    if (!options_.ledger_out.empty()) write_ledger(shares);
  }
  for (const Metric& m : metrics)
    std::printf("  %-26s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  const bool correct = failed_ == 0 && deterministic_ && ledger_ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s", i ? ", " : "");
    write_json_string(stdout, metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    write_json_string(stdout, metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}

std::vector<Metric> Bench::end_to_end_metrics() const {
  std::vector<double> item_medians;
  for (const std::vector<double>& item : samples_) item_medians.push_back(median(item));
  double wall = 0.0;
  for (double seconds : item_medians) wall += seconds;
  double setup = 0.0;
  for (const std::vector<double>& circuit : setup_seconds_) setup += median(circuit);
  std::uint64_t cost = 0, sat_calls = 0;
  for (const std::optional<Counts>& counts : reference_) {
    if (!counts.has_value()) continue;
    cost += counts->cost;
    sat_calls += counts->sat_calls;
  }
  return {
      {"wall_s", wall, "s"},
      {"item_p50_s", quantile(item_medians, 0.5), "s"},
      {"item_tail_s", quantile(item_medians, 0.75), "s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cost", static_cast<double>(cost), "count"},
      {"sat_calls", static_cast<double>(sat_calls), "count"},
  };
}

std::vector<Metric> Bench::per_layer_metrics(
    const std::map<std::pair<int, int>, RoundLedger>& ledgers) const {
  // Median over rounds of one phase of a per-round quantity.
  const auto over = [&](int phase, auto&& get) {
    std::vector<double> values;
    for (const auto& [key, ledger] : ledgers)
      if (key.first == phase) values.push_back(get(ledger));
    return median(values);
  };
  const auto find = [](const auto& map, const std::string& name) {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto traced = [&](auto&& get) { return over(kTracedPhase, get); };
  const auto duration = [&](const std::string& name) {
    return traced([&](const RoundLedger& l) { return find(l.duration, name); });
  };
  const auto self = [&](const std::string& name) {
    return traced([&](const RoundLedger& l) { return find(l.self, name); });
  };
  const auto part = [&](const std::string& name) {
    return traced([&](const RoundLedger& l) { return find(l.parts, name); });
  };
  const auto count = [&](const std::string& name) {
    return traced([&](const RoundLedger& l) { return find(l.counts, name); });
  };
  const auto setup = [&](const std::string& name) {
    return over(kSetupPhase,
                [&](const RoundLedger& l) { return find(l.duration, name); });
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const double solve = part("sat.solve") + part("sat.solve.output");
  double certify = 0.0;
  if (workload_.kind == Kind::kCec) {
    std::vector<double> differences;
    for (const auto& [key, ledger] : ledgers) {
      if (key.first != kTracedPhase) continue;
      const auto replay = ledgers.find({kReplayPhase, key.second});
      if (replay == ledgers.end()) continue;
      differences.push_back(certify_seconds(ledger, replay->second));
    }
    certify = median(differences);
  }
  const double sweep_calls = count("sweep.sat_calls");
  const double vectors = count("simgen.vectors_generated");
  return {
      {"benchgen.generate_s", setup("benchgen.generate"), "s"},
      {"aig.putontop_s", setup("aig.putontop"), "s"},
      {"mapping.map_s", setup("mapping.map"), "s"},
      {"fuzz.mutate_s", setup("fuzz.mutate"), "s"},
      {"simgen.guided_s", duration("simgen.guided"), "s"},
      {"simgen.self_s", self("simgen.guided"), "s"},
      {"simgen.targets_attempted", count("simgen.targets_attempted"), "count"},
      {"simgen.targets_satisfied", count("simgen.targets_satisfied"), "count"},
      {"simgen.hit_ratio",
       ratio(count("simgen.targets_satisfied"), count("simgen.targets_attempted")),
       "ratio"},
      {"simgen.implications", count("simgen.implications"), "count"},
      {"simgen.decisions", count("simgen.decisions"), "count"},
      {"simgen.conflicts", count("simgen.conflicts"), "count"},
      {"simgen.vectors_generated", vectors, "count"},
      {"simgen.vectors_skipped", count("simgen.vectors_skipped"), "count"},
      {"simgen.usable_ratio",
       ratio(vectors, vectors + count("simgen.vectors_skipped")), "ratio"},
      {"revs.attempts", count("revs.attempts"), "count"},
      {"revs.successes", count("revs.successes"), "count"},
      {"sweep.disproof_ratio", ratio(count("sweep.disproven"), sweep_calls), "ratio"},
      {"sweep.proven", count("sweep.proven"), "count"},
      {"sweep.disproven", count("sweep.disproven"), "count"},
      {"sat.solve_s", solve, "s"},
      {"sat.props_per_s", ratio(count("sat.propagations"), solve), "1/s"},
      {"sat.conflicts", count("sat.conflicts"), "count"},
      {"sat.propagations", count("sat.propagations"), "count"},
      {"sat.decisions", count("sat.decisions"), "count"},
      {"sat.restarts", count("sat.restarts"), "count"},
      {"sat.inprocess_runs", count("sat.inprocess_runs"), "count"},
      {"sweep.run_s", duration("sweep.run"), "s"},
      {"sweep.self_s", self("sweep.run"), "s"},
      {"sweep.resimulations", count("sweep.resimulations"), "count"},
      {"sim.random_s", duration("sim.random"), "s"},
      {"sim.kernel_s", part("sim.kernel"), "s"},
      {"sim.words", count("sim.words"), "count"},
      {"eq.refine_calls", count("eq.refine_calls"), "count"},
      {"eq.splits", count("eq.splits"), "count"},
      {"cec.check_s", duration("cec.check"), "s"},
      {"cec.output_sat_calls", count("cec.output_sat_calls"), "count"},
      {"cec.output_solve_s", part("sat.solve.output"), "s"},
      {"check.certify_s", certify, "s"},
      {"drat.checked_lemmas", count("drat.checked_lemmas"), "count"},
      {"drat.rup_checks", count("drat.rup_checks"), "count"},
      {"drat.propagations", count("drat.propagations"), "count"},
      {"drat.certified_targets", count("drat.certified_targets"), "count"},
      {"obs.overhead_s", median(traced_walls_) - median(untraced_walls_), "s"},
  };
}

std::map<std::string, double> Bench::layer_shares(
    const std::map<std::pair<int, int>, RoundLedger>& ledgers) const {
  std::map<std::string, std::vector<double>> per_round;
  for (const auto& [key, ledger] : ledgers) {
    if (key.first != kTracedPhase || ledger.item_wall <= 0.0) continue;
    std::map<std::string, double> layers;
    for (const auto& [name, seconds] : ledger.self)
      layers[name == "item" ? "bench.unattributed" : name] += seconds;
    for (const auto& [name, seconds] : ledger.parts)
      layers[name == "sat.solve.output" ? "sat.solve" : name] += seconds;
    if (workload_.kind == Kind::kCec) {
      const auto replay = ledgers.find({kReplayPhase, key.second});
      if (replay != ledgers.end()) {
        const double certify = certify_seconds(ledger, replay->second);
        layers["check.certify"] += certify;
        layers["cec.check"] -= certify;
      }
    }
    for (const auto& [name, seconds] : layers)
      per_round[name].push_back(seconds / ledger.item_wall);
  }
  std::map<std::string, double> shares;
  for (const auto& [name, values] : per_round) shares[name] = median(values);
  return shares;
}

void Bench::write_ledger(const std::map<std::string, double>& shares) const {
  std::FILE* out = std::fopen(options_.ledger_out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options_.ledger_out.c_str());
    return;
  }
  std::fprintf(out, "{\"workload\": ");
  write_json_string(out, workload_.name);
  std::fprintf(out, ", \"seed\": %llu, \"tolerance\": %g, \"shares\": {",
               static_cast<unsigned long long>(options_.seed), kLedgerTolerance);
  bool first = true;
  for (const auto& [name, share] : shares) {
    std::fprintf(out, "%s", first ? "" : ", ");
    write_json_string(out, name);
    std::fprintf(out, ": %.6g", share);
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [\n");
  const std::vector<SpanRecord>& spans = trace_.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out, "{\"id\": %zu, \"name\": ", i);
    write_json_string(out, s.name);
    std::fprintf(out,
                 ", \"parent\": %d, \"phase\": %d, \"round\": %d, \"item\": %d, "
                 "\"start\": %.9f, \"end\": %.9f, \"parts\": {",
                 s.parent, s.phase, s.round, s.item, s.start, s.end);
    for (std::size_t p = 0; p < s.parts.size(); ++p) {
      std::fprintf(out, "%s", p ? ", " : "");
      write_json_string(out, s.parts[p].first);
      std::fprintf(out, ": %.9f", s.parts[p].second);
    }
    std::fprintf(out, "}, \"counts\": {");
    first = true;
    for (const auto& [name, value] : s.counts) {
      std::fprintf(out, "%s", first ? "" : ", ");
      write_json_string(out, name);
      std::fprintf(out, ": %llu", static_cast<unsigned long long>(value));
      first = false;
    }
    std::fprintf(out, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    return Bench(options).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
