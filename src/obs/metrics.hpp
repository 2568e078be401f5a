/// \file metrics.hpp
/// \brief Global metrics registry: named counters and gauges.
///
/// The registry answers "how much happened" in one run: the counts the
/// paper's evaluation is written in (SAT calls, implications, decisions,
/// targets hit). It holds only two kinds of instrument:
///
///  * the counters of the per-instance stats structs (sat::SolverStats,
///    core::GeneratorStats, core::ReverseSimStats, check::DratStats, and
///    the simulator's `sim.words`), so `stats()` accessors stay
///    per-instance views while the registry aggregates by name across
///    instances;
///  * the registry-owned names perfbench reads through capture_snapshot/
///    diff_snapshots: the `eq.refine_calls` and `eq.splits` counters and
///    the `cec.cost_after_guided` gauge.
///
/// A count that a result struct already returns (SweepResult,
/// CecResult, CampaignResult, ...) is not copied into the registry, and
/// per-event detail (per-solve LBD, per-call cone sizes) lives in the
/// decision journal (journal.hpp). Design constraints:
///
///  * Counter increments are a single relaxed atomic 64-bit add — bench
///    cells sharded across threads bump shared registry counters
///    concurrently, and relaxed ordering keeps the hot path one lock-free
///    instruction (registration, retirement and export are mutex-guarded
///    cold paths).
///  * The instrument object is the single source of truth, and a
///    destroyed instrument "retires" its value into the registry so a
///    metrics dump written after a flow finishes still contains every
///    count.
///  * Copying or moving an instrument produces a *detached* value
///    snapshot (never a second registered instance), so stats structs
///    keep plain value semantics at call sites.
///  * With the CMake option SIMGEN_NO_TELEMETRY=ON, registration, the
///    registry, and the exporter compile to nothing; instruments still
///    count (the per-instance stats views keep working) but nothing is
///    retained or exportable.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace simgen::obs {

/// Tag type selecting the registering constructors of the module stats
/// structs (e.g. `SolverStats stats_{obs::kRegister};`).
struct register_t {
  explicit register_t() = default;
};
inline constexpr register_t kRegister{};

/// Monotonic named counter. Default-constructed counters are detached
/// (count locally, invisible to the registry); name-constructed counters
/// are registered until destruction, at which point their final value is
/// retired into the registry's per-name accumulator.
class Counter {
 public:
  Counter() = default;
  explicit Counter(const char* name);
  ~Counter();

  /// Copies and moves detach: the new object holds the value but is not
  /// registered, so aggregation never double-counts.
  Counter(const Counter& other) noexcept : value_(other.value()) {}
  Counter(Counter&& other) noexcept : value_(other.value()) {}
  /// Assignment copies the value only; the left side keeps its own
  /// registration state.
  Counter& operator=(const Counter& other) noexcept {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  /// Relaxed: counters are statistics, not synchronization. Concurrent
  /// increments from bench cell threads never lose counts; readers see some
  /// recent value.
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  bool registered_ = false;
};

/// The log2 bucket layout of the SAT hardness report's distributions:
/// bucket i counts samples whose bit_width is i, so bucket 0 holds the
/// value 0 and bucket i >= 1 holds values in [2^(i-1), 2^i - 1].
/// 0 plus one bucket per possible bit_width of a uint64.
inline constexpr std::size_t kNumLog2Buckets = 65;
[[nodiscard]] constexpr std::size_t log2_bucket(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

/// Estimated value at quantile \p q in (0, 1] of a log2_bucket()-layout
/// distribution: locates the bucket holding the ceil(q*count)-th sample
/// and interpolates linearly inside its [2^(i-1), 2^i - 1] value range.
/// Exact for bucket 0 (the value 0); within a factor of 2 above. Returns
/// 0 for an empty distribution. The SAT hardness report quotes every
/// p50/p90/p99 through it. Available in every build (the inspector
/// replays foreign journals under SIMGEN_NO_TELEMETRY too).
[[nodiscard]] std::uint64_t bucket_percentile(const std::uint64_t* buckets,
                                              std::size_t num_buckets,
                                              double q) noexcept;

/// Registry-owned counter for a module without a per-instance stats
/// struct: find-or-create by name, returning a reference that stays valid
/// for the process lifetime. Hot paths cache it:
///   static obs::Counter& refines = obs::counter("eq.refine_calls");
/// With SIMGEN_NO_TELEMETRY it returns a shared dummy counter.
[[nodiscard]] Counter& counter(std::string_view name);

/// Gauges are registry-owned level values (last write wins). No-ops with
/// SIMGEN_NO_TELEMETRY.
void set_gauge(std::string_view name, double value);
[[nodiscard]] double gauge_value(std::string_view name);

/// Point-in-time aggregation of every metric: per name, retired values
/// plus all live instruments. The diffing API lets each sweep round or
/// CEC phase report deltas instead of cumulative totals.
struct TelemetrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
};

[[nodiscard]] TelemetrySnapshot capture_snapshot();

/// Delta from \p before to \p after: counters are subtracted (clamped at
/// zero if a name vanished or was reset), gauges take their \p after
/// value. Names only present in \p before are dropped.
[[nodiscard]] TelemetrySnapshot diff_snapshots(const TelemetrySnapshot& before,
                                               const TelemetrySnapshot& after);

/// Writes one JSON object per line:
///   {"kind":"counter","name":"sat.conflicts","value":123}
///   {"kind":"gauge","name":"cec.cost_after_guided","value":17}
void write_metrics_jsonl(std::ostream& out, const TelemetrySnapshot& snapshot);
void write_metrics_jsonl(std::ostream& out);  ///< Current snapshot.
/// Convenience file writer; returns false if the file cannot be written.
bool write_metrics_file(const std::string& path);

/// Zeroes every live instrument and clears all retired values and gauges.
/// For tests and benchmark drivers that want per-run metrics.
void reset_all_metrics();

namespace detail {
/// Escapes a string for inclusion inside a JSON string literal: quotes,
/// backslashes, and control characters are escaped, and malformed UTF-8
/// (stray continuation bytes, overlong forms, surrogates) is replaced
/// with U+FFFD so the output is always valid JSON. Shared by the metrics
/// exporter, the Chrome-trace writer and the bench drivers' JSON records.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Renders a double as a JSON number; non-finite values (which JSON
/// cannot represent) become "null".
[[nodiscard]] std::string json_number(double value);
}  // namespace detail

}  // namespace simgen::obs
