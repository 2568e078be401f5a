#include "obs/telemetry_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"

namespace simgen::obs {

TelemetryCli::TelemetryCli(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const auto take_value = [&](const char* flag, std::string& into) {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    std::string number;
    if (take_value("--trace-out", trace_out_) ||
        take_value("--metrics-out", metrics_out_) ||
        take_value("--journal-out", journal_out_)) {
      continue;
    }
    if (take_value("--progress", number)) {
      progress_interval_ = std::atof(number.c_str());
      continue;
    }
    if (take_value("--timeout", number)) {
      timeout_seconds_ = std::atof(number.c_str());
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  if (!trace_out_.empty()) Tracer::instance().enable();
  if (!journal_out_.empty() && !Journal::instance().open(journal_out_))
    std::fprintf(stderr, "error: cannot open journal file %s%s\n",
                 journal_out_.c_str(),
                 journal_enabled() ? "" : " (telemetry compiled out)");
  // Heartbeat lines go through the info log level; --progress implies the
  // user wants to see them.
  if (progress_interval_ > 0.0 && util::log_level() > util::LogLevel::kInfo)
    util::set_log_level(util::LogLevel::kInfo);
  // Outputs survive Ctrl-C / --timeout: the finalizer is registered with
  // atexit and also invoked by the watchdog and by our destructor.
  set_exit_outputs(trace_out_, metrics_out_);
  WatchdogOptions watchdog;
  watchdog.timeout_seconds = timeout_seconds_;
  start_watchdog(watchdog);
}

TelemetryCli::~TelemetryCli() {
  const bool journal_open = Journal::instance().is_open();
  flush_exit_outputs();
  if (!trace_out_.empty())
    std::printf("trace written to %s\n", trace_out_.c_str());
  if (!metrics_out_.empty())
    std::printf("metrics written to %s\n", metrics_out_.c_str());
  if (journal_open)
    std::printf("journal written to %s (inspect with sweep_inspect)\n",
                journal_out_.c_str());
}

}  // namespace simgen::obs
