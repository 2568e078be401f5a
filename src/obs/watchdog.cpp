#include "obs/watchdog.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "util/mutex.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

namespace simgen::obs {

namespace {

struct ExitState {
  util::Mutex mutex;
  std::string metrics_path SIMGEN_GUARDED_BY(mutex);
  std::atomic<bool> flushed{false};
  std::atomic<bool> flush_done{false};
  std::atomic<bool> metrics_failed{false};
  std::atomic<bool> atexit_registered{false};
  std::atomic<bool> watchdog_running{false};
  /// Signal number caught by the async-signal-safe handler; the watchdog
  /// thread polls it. 0 = none.
  std::atomic<int> pending_signal{0};

  static ExitState& get() {
    // Leaked so the atexit hook and detached watchdog thread can touch it
    // at any point of teardown.
    static ExitState* state = new ExitState();
    return *state;
  }
};

/// Async-signal-safe by construction: the handler body is exactly one
/// lock-free atomic store into the leaked ExitState singleton, whose
/// construction start_watchdog forces *before* installing the handler (the
/// ExitState::get() below cannot be the first call). Everything that needs
/// locks — journal flush, progress dump, file writes — happens later on the
/// watchdog thread, which polls pending_signal from a normal context. The
/// EXCLUDES annotation lets -Wthread-safety prove the handler can never
/// block on (or self-deadlock against) the ExitState mutex.
void signal_handler(int sig) SIMGEN_EXCLUDES(ExitState::get().mutex) {
  ExitState::get().pending_signal.store(sig, std::memory_order_release);
}

void dump_progress(const char* why) {
  SweepProgress& progress = sweep_progress();
  const std::uint64_t running = progress.active.load(std::memory_order_acquire);
  std::fprintf(stderr,
               "[simgen watchdog] %s: sweep %s (%llu running) — classes live "
               "%llu, nodes live %llu / resolved %llu, proved %llu, disproved "
               "%llu, unresolved %llu, SAT calls %llu, journal events %llu\n",
               why, running > 0 ? "RUNNING" : "idle",
               static_cast<unsigned long long>(running),
               static_cast<unsigned long long>(
                   progress.classes_live.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   progress.live_nodes.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   progress.resolved_nodes.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   progress.proved.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   progress.disproved.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   progress.unresolved.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   progress.sat_calls.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   Journal::instance().events_written()));
#ifndef SIMGEN_NO_TELEMETRY
  const ResourceSample res = sample_resources();
  std::fprintf(stderr, "[simgen watchdog] rss %.1f MB (peak %.1f MB)\n",
               static_cast<double>(res.current_rss_kb) / 1024.0,
               static_cast<double>(res.peak_rss_kb) / 1024.0);
#endif
  std::fflush(stderr);
}

/// Exit status of a run cut by the watchdog's deadline.
constexpr int kTimeoutExitCode = 124;

/// The watchdog's exits skip TelemetryCli's teardown report, so it names
/// a metrics file it could not write itself.
void flush_before_exit() {
  flush_exit_outputs();
  if (!metrics_write_failed()) return;
  ExitState& state = ExitState::get();
  const util::LockGuard lock(state.mutex);
  std::fprintf(stderr, "error: cannot write metrics file %s\n",
               state.metrics_path.c_str());
}

void watchdog_loop(double timeout_seconds) {
  ExitState& state = ExitState::get();
  const auto deadline =
      timeout_seconds > 0.0
          ? std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(timeout_seconds))
          : std::chrono::steady_clock::time_point::max();
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const int sig = state.pending_signal.load(std::memory_order_acquire);
    if (sig != 0) {
      journal_emit(EventKind::kWatchdog, 1, static_cast<std::uint64_t>(sig));
      dump_progress(sig == SIGINT ? "caught SIGINT" : "caught signal");
      flush_before_exit();
      // Hand the signal back under its default disposition so the exit
      // status says "killed by SIGINT/SIGTERM", as tools expect.
      std::signal(sig, SIG_DFL);
      std::raise(sig);
      return;  // Unreached for fatal signals.
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      journal_emit(EventKind::kWatchdog, 2, 0);
      dump_progress("timeout expired");
      flush_before_exit();
#ifdef __unix__
      _exit(kTimeoutExitCode);
#else
      std::_Exit(kTimeoutExitCode);
#endif
    }
  }
}

}  // namespace

SweepProgress& sweep_progress() noexcept {
  static SweepProgress* progress = new SweepProgress();
  return *progress;
}

void set_exit_outputs(const std::string& metrics_path) {
  ExitState& state = ExitState::get();
  {
    const util::LockGuard lock(state.mutex);
    state.metrics_path = metrics_path;
  }
  if (!state.atexit_registered.exchange(true))
    std::atexit([] { flush_exit_outputs(); });
}

void flush_exit_outputs() {
  ExitState& state = ExitState::get();
  if (state.flushed.exchange(true)) {
    // Another thread (normal teardown vs watchdog vs atexit) is already
    // flushing. Wait for it: the watchdog re-raises a fatal signal right
    // after this returns, and returning early would kill the process with
    // the journal/metrics half-written. Bounded in case the flusher died.
    for (int i = 0; i < 5000 && !state.flush_done.load(std::memory_order_acquire);
         ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return;
  }
  Journal::instance().close();
  std::string metrics_path;
  {
    const util::LockGuard lock(state.mutex);
    metrics_path = state.metrics_path;
  }
  if (!metrics_path.empty() && !write_metrics_file(metrics_path))
    state.metrics_failed.store(true, std::memory_order_relaxed);
  state.flush_done.store(true, std::memory_order_release);
}

bool exit_outputs_flushed() noexcept {
  return ExitState::get().flushed.load(std::memory_order_acquire);
}

bool metrics_write_failed() noexcept {
  ExitState& state = ExitState::get();
  return state.flush_done.load(std::memory_order_acquire) &&
         state.metrics_failed.load(std::memory_order_relaxed);
}

bool start_watchdog(double timeout_seconds) {
  ExitState& state = ExitState::get();
  if (state.watchdog_running.exchange(true)) return false;
  std::signal(SIGINT, signal_handler);
  std::signal(SIGTERM, signal_handler);
  std::thread(watchdog_loop, timeout_seconds).detach();
  return true;
}

}  // namespace simgen::obs
