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
///  * SweepProgress: a struct of atomics the sweep loop updates in place;
///    the heartbeat printer and the watchdog's state dump read it from
///    another thread without synchronization beyond the atomics.
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

/// Live progress of the current sweep, shared between the sweep loop
/// (single writer) and the heartbeat/watchdog readers.
struct SweepProgress {
  std::atomic<bool> active{false};         ///< A sweep loop is running.
  std::atomic<std::uint64_t> live_nodes{0};      ///< Nodes still in classes.
  std::atomic<std::uint64_t> resolved_nodes{0};  ///< Proved + disproved + given up.
  std::atomic<std::uint64_t> classes_live{0};
  std::atomic<std::uint64_t> proved{0};
  std::atomic<std::uint64_t> disproved{0};
  std::atomic<std::uint64_t> unresolved{0};
  std::atomic<std::uint64_t> sat_calls{0};

  /// Resets counts at sweep entry (single writer, relaxed is enough).
  void begin(std::uint64_t initial_live_nodes, std::uint64_t initial_classes) noexcept {
    live_nodes.store(initial_live_nodes, std::memory_order_relaxed);
    classes_live.store(initial_classes, std::memory_order_relaxed);
    resolved_nodes.store(0, std::memory_order_relaxed);
    proved.store(0, std::memory_order_relaxed);
    disproved.store(0, std::memory_order_relaxed);
    unresolved.store(0, std::memory_order_relaxed);
    sat_calls.store(0, std::memory_order_relaxed);
    active.store(true, std::memory_order_release);
  }
  void end() noexcept { active.store(false, std::memory_order_release); }
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
