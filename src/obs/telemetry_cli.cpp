#include "obs/telemetry_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/journal.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"
#include "util/parse_option.hpp"

namespace simgen::obs {

TelemetryCli::TelemetryCli(int& argc, char** argv, int usage_status)
    : usage_status_(usage_status) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(usage_status);
      }
      return argv[++i];
    };
    // A malformed number is a usage error, never a silent 0.
    const auto seconds = [&](double& into) {
      if (!util::parse_option(flag, value(), into)) std::exit(usage_status);
    };
    if (std::strcmp(flag, "--metrics-out") == 0) metrics_out_ = value();
    else if (std::strcmp(flag, "--journal-out") == 0) journal_out_ = value();
    else if (std::strcmp(flag, "--progress") == 0) seconds(progress_interval_);
    else if (std::strcmp(flag, "--timeout") == 0) seconds(timeout_seconds_);
    else argv[out++] = argv[i];
  }
  argc = out;
  if (journal_out_.ends_with(".jsonl")) {
    // Journals are binary; JSONL is sweep_inspect's export.
    const std::string binary =
        journal_out_.substr(0, journal_out_.size() - 6) + ".jrnl";
    std::fprintf(stderr,
                 "error: --journal-out writes a binary journal, not JSONL: "
                 "record %s, then export it with sweep_inspect --rewrite "
                 "%s %s\n",
                 binary.c_str(), journal_out_.c_str(), binary.c_str());
    std::exit(usage_status);
  }
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
  set_exit_outputs(metrics_out_);
  WatchdogOptions watchdog;
  watchdog.timeout_seconds = timeout_seconds_;
  start_watchdog(watchdog);
}

TelemetryCli::~TelemetryCli() {
  const bool journal_open = Journal::instance().is_open();
  flush_exit_outputs();
  if (!metrics_out_.empty())
    std::printf("metrics written to %s\n", metrics_out_.c_str());
  if (!journal_open) return;
  if (Journal::instance().failed()) {
    std::fprintf(stderr, "error: cannot write journal file %s\n",
                 journal_out_.c_str());
    std::exit(usage_status_);
  }
  std::printf("journal written to %s (inspect with sweep_inspect)\n",
              journal_out_.c_str());
}

}  // namespace simgen::obs
