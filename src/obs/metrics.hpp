/// \file metrics.hpp
/// \brief Global metrics registry: named counters, gauges, and log-scale
/// histograms.
///
/// The observability layer the paper's whole evaluation is written in
/// terms of — SAT calls avoided, classes split per round, implication vs
/// decision counts — as first-class, exportable instruments instead of
/// ad-hoc per-module structs. Design constraints:
///
///  * Counter increments are a single relaxed atomic 64-bit add — bench
///    cells sharded across threads bump shared registry counters
///    concurrently, and relaxed ordering keeps the hot path one lock-free
///    instruction (registration, retirement and export are mutex-guarded
///    cold paths). Histograms stay non-atomic: every histogram lives in a
///    per-instance stats struct (one solver, one generator) that is only
///    ever touched by the thread owning the instance.
///  * Instruments can live inside module stats structs (sat::SolverStats,
///    core::GeneratorStats, ...) so `stats()` accessors stay per-instance
///    views while the registry aggregates by name across instances: the
///    instrument object is the single source of truth, and a destroyed
///    instrument "retires" its value into the registry so a metrics dump
///    written after a flow finishes still contains every count.
///  * Copying or moving an instrument produces a *detached* value
///    snapshot (never a second registered instance), so stats structs
///    keep plain value semantics at call sites.
///  * With the CMake option SIMGEN_NO_TELEMETRY=ON, registration, the
///    registry, and both exporters compile to nothing; instruments still
///    count (the per-instance stats views keep working) but nothing is
///    retained or exportable.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

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

/// Log-scale (power-of-two bucket) histogram of non-negative integer
/// samples. Bucket i counts samples whose bit_width is i: bucket 0 holds
/// the value 0, bucket i >= 1 holds values in [2^(i-1), 2^i - 1].
/// Registration/retirement semantics match Counter.
class Histogram {
 public:
  /// 0 plus one bucket per possible bit_width of a uint64.
  static constexpr std::size_t kNumBuckets = 65;

  Histogram() = default;
  explicit Histogram(const char* name);
  ~Histogram();

  Histogram(const Histogram& other) noexcept
      : buckets_(other.buckets_), count_(other.count_), sum_(other.sum_) {}
  Histogram(Histogram&& other) noexcept
      : buckets_(other.buckets_), count_(other.count_), sum_(other.sum_) {}
  Histogram& operator=(const Histogram& other) noexcept {
    buckets_ = other.buckets_;
    count_ = other.count_;
    sum_ = other.sum_;
    return *this;
  }

  void observe(std::uint64_t value) noexcept {
    ++buckets_[bucket_of(value)];
    ++count_;
    sum_ += value;
  }
  void reset() noexcept {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
  }

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] const std::array<std::uint64_t, kNumBuckets>& buckets() const noexcept {
    return buckets_;
  }

  /// Estimated value at quantile \p q (see bucket_percentile below).
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  bool registered_ = false;
};

/// Estimated value at quantile \p q in (0, 1] of a bucket_of()-layout
/// log2 bucket distribution: locates the bucket holding the ceil(q*count)-th
/// sample and interpolates linearly inside its [2^(i-1), 2^i - 1] value
/// range. Exact for bucket 0 (the value 0); within a factor of 2 above.
/// Returns 0 for an empty distribution. This is the one percentile
/// estimator shared by Histogram::percentile and the SAT hardness
/// report, so p50/p90/p99 mean the same thing everywhere. Available in
/// every build (the inspector replays foreign journals under
/// SIMGEN_NO_TELEMETRY too).
[[nodiscard]] std::uint64_t bucket_percentile(const std::uint64_t* buckets,
                                              std::size_t num_buckets,
                                              double q) noexcept;

/// Registry-owned instruments for modules without a per-instance stats
/// struct: find-or-create by name, returning a reference that stays valid
/// for the process lifetime. Hot paths cache it:
///   static obs::Counter& words = obs::counter("sim.words");
/// With SIMGEN_NO_TELEMETRY both return a shared dummy instrument.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Gauges are registry-owned level values (last write wins). No-ops with
/// SIMGEN_NO_TELEMETRY.
void set_gauge(std::string_view name, double value);
void add_gauge(std::string_view name, double delta);
[[nodiscard]] double gauge_value(std::string_view name);

/// Aggregated histogram state as exported/snapshotted.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;  ///< Trailing zero buckets trimmed.
};

/// Point-in-time aggregation of every metric: per name, retired values
/// plus all live instruments. The diffing API lets each sweep round or
/// CEC phase report deltas instead of cumulative totals.
struct TelemetrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
};

[[nodiscard]] TelemetrySnapshot capture_snapshot();

/// Delta from \p before to \p after: counters and histogram buckets are
/// subtracted (clamped at zero if a name vanished or was reset), gauges
/// take their \p after value. Names only present in \p before are dropped.
[[nodiscard]] TelemetrySnapshot diff_snapshots(const TelemetrySnapshot& before,
                                               const TelemetrySnapshot& after);

/// Writes one JSON object per line:
///   {"kind":"counter","name":"sat.conflicts","value":123}
///   {"kind":"gauge","name":"eq.cost","value":17}
///   {"kind":"histogram","name":"sat.learned_clause_size","count":9,
///    "sum":41,"buckets":[0,2,3,4]}
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
/// and trace exporters.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Renders a double as a JSON number; non-finite values (which JSON
/// cannot represent) become "null".
[[nodiscard]] std::string json_number(double value);
}  // namespace detail

}  // namespace simgen::obs
