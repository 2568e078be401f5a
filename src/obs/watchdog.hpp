/// \file watchdog.hpp
/// \brief Exit-safe telemetry finalization, live sweep progress, and a
/// signal/timeout watchdog.
///
/// Three cooperating pieces so no run ever dies silently:
///
///  * Exit outputs: `set_exit_outputs` records where the metrics file
///    should land; `flush_exit_outputs` (registered with `std::atexit`,
///    called by the CLI teardown paths and by the watchdog) writes it
///    exactly once and closes the journal, so an interrupted run still
///    leaves a valid journal and metrics file on disk.
///  * SweepProgress: a struct of atomics to which each running sweep loop
///    adds the change of its counts; the watchdog's state dump reads the
///    sums from another thread without synchronization beyond the atomics.
///  * Watchdog: a background thread that polls a signal flag set by
///    async-signal-safe SIGINT/SIGTERM handlers and an optional deadline.
///    On either trigger it journals a kWatchdog event, dumps the current
///    sweep/solver progress to stderr, flushes every telemetry output,
///    then re-raises the signal under the default disposition (preserving
///    the conventional "killed by SIGINT" exit status) or `_exit(124)`
///    on timeout.
///
/// Compiled in every build: under SIMGEN_NO_TELEMETRY the journal calls
/// are no-ops but signal handling, the state dump, and the (empty but
/// valid) metrics file still work.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace simgen::obs {

/// One sweep's share of SweepProgress: its own counts, as it last added
/// them.
struct SweepCounts {
  std::uint64_t live_nodes = 0;      ///< Nodes still in classes.
  std::uint64_t resolved_nodes = 0;  ///< Proved + disproved + given up.
  std::uint64_t classes_live = 0;
  std::uint64_t proved = 0;
  std::uint64_t disproved = 0;
  std::uint64_t unresolved = 0;
  std::uint64_t sat_calls = 0;
};

/// Live progress of the running sweeps, written by the sweep loops (one
/// per bench cell under --threads N) and read by the watchdog's state dump
/// from another thread. Each count is the sum over the running sweeps:
/// every sweep adds the change of its own counts, never overwrites them.
struct SweepProgress {
  std::atomic<std::uint64_t> active{0};  ///< Sweep loops running now.
  std::atomic<std::uint64_t> live_nodes{0};
  std::atomic<std::uint64_t> resolved_nodes{0};
  std::atomic<std::uint64_t> classes_live{0};
  std::atomic<std::uint64_t> proved{0};
  std::atomic<std::uint64_t> disproved{0};
  std::atomic<std::uint64_t> unresolved{0};
  std::atomic<std::uint64_t> sat_calls{0};

  /// Counts a sweep as running and adds its first counts.
  void begin(const SweepCounts& first) noexcept {
    update(SweepCounts{}, first);
    active.fetch_add(1, std::memory_order_release);
  }
  /// Replaces a running sweep's share \p was with \p now. Unsigned
  /// wrap-around makes a falling count add its (negative) change.
  void update(const SweepCounts& was, const SweepCounts& now) noexcept {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    live_nodes.fetch_add(now.live_nodes - was.live_nodes, kRelaxed);
    resolved_nodes.fetch_add(now.resolved_nodes - was.resolved_nodes, kRelaxed);
    classes_live.fetch_add(now.classes_live - was.classes_live, kRelaxed);
    proved.fetch_add(now.proved - was.proved, kRelaxed);
    disproved.fetch_add(now.disproved - was.disproved, kRelaxed);
    unresolved.fetch_add(now.unresolved - was.unresolved, kRelaxed);
    sat_calls.fetch_add(now.sat_calls - was.sat_calls, kRelaxed);
  }
  /// Takes a sweep's share \p last out and counts the sweep as ended.
  void end(const SweepCounts& last) noexcept {
    update(last, SweepCounts{});
    active.fetch_sub(1, std::memory_order_release);
  }
};

[[nodiscard]] SweepProgress& sweep_progress() noexcept;

/// Records the metrics file the process should leave behind on any exit
/// (empty string = not requested) and registers the atexit finalizer.
/// Call once from the CLI after parsing flags.
void set_exit_outputs(const std::string& metrics_path);

/// Writes the registered metrics file, flushes and closes the journal.
/// Idempotent: only the first call does work, so the atexit hook, CLI
/// teardown, and the watchdog can all call it safely.
void flush_exit_outputs();

/// True once flush_exit_outputs has run (tests / diagnostics).
[[nodiscard]] bool exit_outputs_flushed() noexcept;

/// True if flush_exit_outputs finished without writing the registered
/// metrics file completely (it could not be created, or a write failed).
[[nodiscard]] bool metrics_write_failed() noexcept;

/// Installs the SIGINT/SIGTERM handlers and starts the watchdog thread,
/// with a deadline \p timeout_seconds from now (0 = none) after which the
/// process exits with status 124, as coreutils `timeout` does. Idempotent:
/// returns false if the watchdog is already running. The thread is
/// detached and runs for the remainder of the process.
bool start_watchdog(double timeout_seconds);

}  // namespace simgen::obs
