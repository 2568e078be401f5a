/// \file trace.hpp
/// \brief RAII phase/span tracer with Chrome trace-event JSON export.
///
/// Records nested timed scopes (CEC phases, sweep runs, individual SAT
/// calls, guided-simulation iterations) against one steady-clock epoch
/// and exports them in the Chrome trace-event format, loadable in
/// chrome://tracing and https://ui.perfetto.dev. Tracing is off by
/// default; when off, a Span construction is a single relaxed atomic
/// load. With SIMGEN_NO_TELEMETRY the enabled check is constexpr false
/// and every span compiles away entirely.
///
/// The tracer is fully thread-safe: bench cells sharded across threads
/// record their spans concurrently, all serialized on one
/// internal annotated mutex (see util/annotations.hpp for the analysis
/// this enables).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/stopwatch.hpp"

namespace simgen::obs {

#ifdef SIMGEN_NO_TELEMETRY
[[nodiscard]] constexpr bool tracing_enabled() noexcept { return false; }
#else
[[nodiscard]] bool tracing_enabled() noexcept;
#endif

/// Collects trace events against a process-wide steady epoch.
class Tracer {
 public:
  struct Event {
    std::string name;
    double ts_us = 0.0;   ///< Start offset from the epoch, microseconds.
    double dur_us = 0.0;  ///< Duration ("X" events), 0 for instants.
    int depth = 0;        ///< Nesting depth at begin time.
    char phase = 'X';     ///< Chrome phase: 'X' complete, 'i' instant.
    std::vector<std::pair<std::string, double>> args;
  };

  static Tracer& instance();

  /// Clears recorded events, restarts the epoch, and turns recording on.
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Begins a span; returns its event index for end_span/span_arg.
  /// Returns kNoSpan (and records nothing) while disabled.
  std::size_t begin_span(std::string_view name);
  void end_span(std::size_t index);
  /// Attaches a numeric argument, shown in the trace viewer's detail pane.
  void span_arg(std::size_t index, std::string_view key, double value);

  /// Records a zero-duration instant event. Its "since_last_ms" argument
  /// is the time since the previous instant (Stopwatch::lap over the
  /// epoch), which makes event spacing readable without a viewer.
  void instant(std::string_view name);

  [[nodiscard]] std::vector<Event> events() const;

  /// Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void write_chrome_trace(std::ostream& out) const;
  /// Convenience file writer; returns false if the file cannot be written.
  bool write_chrome_trace_file(const std::string& path) const;

  static constexpr std::size_t kNoSpan = ~std::size_t{0};

 private:
  Tracer() = default;

  mutable util::Mutex mutex_;
  std::vector<Event> events_ SIMGEN_GUARDED_BY(mutex_);
  /// Indices of unfinished spans.
  std::vector<std::size_t> open_spans_ SIMGEN_GUARDED_BY(mutex_);
  /// Restarted under mutex_ in enable(); read under mutex_ thereafter.
  util::Stopwatch epoch_ SIMGEN_GUARDED_BY(mutex_);
  std::atomic<bool> enabled_{false};
};

/// RAII scope: records one complete ("X") trace event from construction
/// to destruction. Free when tracing is disabled or compiled out.
class Span {
 public:
  explicit Span(std::string_view name) {
    if (tracing_enabled()) index_ = Tracer::instance().begin_span(name);
  }
  ~Span() {
    if (index_ != Tracer::kNoSpan) Tracer::instance().end_span(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric argument to the span (no-op when disabled).
  void arg(std::string_view key, double value) {
    if (index_ != Tracer::kNoSpan)
      Tracer::instance().span_arg(index_, key, value);
  }

  /// Ends the span before scope exit (idempotent; the destructor then
  /// does nothing). Useful when one function hosts several phases.
  void close() {
    if (index_ != Tracer::kNoSpan) {
      Tracer::instance().end_span(index_);
      index_ = Tracer::kNoSpan;
    }
  }

 private:
  std::size_t index_ = Tracer::kNoSpan;
};

}  // namespace simgen::obs
