/// \file sweep_inspect.cpp
/// \brief Post-mortem inspector for sweep journals (obs/journal.hpp).
///
/// Replays a journal written by `cec_two_networks --journal-out` (or any
/// bench driver) into human-readable cost attributions:
///
///   sweep_inspect run.journal                    # text report
///   sweep_inspect --check run.journal            # validate (CI smoke)
///   sweep_inspect --timeline run.journal         # top-K class lifecycles
///   sweep_inspect --class 1234 run.journal       # one class's lifecycle
///   sweep_inspect --sat run.journal              # SAT hardness report
///   sweep_inspect --chrome-trace t.json run.journal # Perfetto timeline
///   sweep_inspect --rewrite copy.jsonl run.journal  # JSONL export
///
/// Journals are binary; `--rewrite FILE.jsonl` is the one JSON-Lines
/// writer, an export for scripts that this tool does not read back.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "simgen/guided_sim.hpp"
#include "util/parse_option.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: sweep_inspect [options] <journal-file>\n"
               "  --check           validate the journal; exit 2 if invalid\n"
               "  --top K           rows in top-K tables (default 10)\n"
               "  --timeline        print lifecycles of the top-K classes\n"
               "  --class REP       print one class's lifecycle\n"
               "  --sat             print the SAT hardness report (cone\n"
               "                    fingerprints, restarts, LBD)\n"
               "  --chrome-trace FILE\n"
               "                    write a Chrome trace-event timeline "
               "(chrome://tracing,\n"
               "                    ui.perfetto.dev)\n"
               "  --rewrite FILE    copy the journal; a FILE ending in .jsonl\n"
               "                    gets a JSON-Lines export for scripts\n"
               "  --quiet           suppress the default text report\n");
}

/// Adapts simgen::core::strategy_name to the inspector's C callback.
const char* strategy_namer(std::uint8_t code) {
  using simgen::core::Strategy;
  for (const Strategy strategy : simgen::core::kAllStrategies) {
    if (static_cast<std::uint8_t>(strategy) == code) {
      // kAllStrategies names are string literals; the view is terminated.
      static thread_local std::string name;
      name = std::string(simgen::core::strategy_name(strategy));
      return name.c_str();
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path, rewrite_path, chrome_path;
  std::uint64_t class_rep = 0, top_k = 10;
  bool check = false, timeline = false, quiet = false;
  bool sat = false;
  simgen::obs::InspectOptions options;
  options.strategy_namer = &strategy_namer;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sweep_inspect: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    // A malformed number is a usage error, never a silent 0.
    const auto number = [&](const char* flag, std::uint64_t& into,
                            std::uint64_t max) {
      if (!simgen::util::parse_option(flag, value(flag), into, max))
        std::exit(1);
    };
    if (arg == "--check") check = true;
    else if (arg == "--timeline") timeline = true;
    else if (arg == "--sat") sat = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--top") number("--top", top_k, INT_MAX);
    else if (arg == "--class") number("--class", class_rep, UINT64_MAX);
    else if (arg == "--chrome-trace") chrome_path = value("--chrome-trace");
    else if (arg == "--rewrite") rewrite_path = value("--rewrite");
    else if (arg == "--help" || arg == "-h") { usage(stdout); return 0; }
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "sweep_inspect: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 1;
    } else if (journal_path.empty()) {
      journal_path = arg;
    } else {
      std::fprintf(stderr, "sweep_inspect: extra argument %s\n", arg.c_str());
      return 1;
    }
  }
  if (journal_path.empty()) {
    usage(stderr);
    return 1;
  }
  options.top_k = top_k == 0 ? 10 : static_cast<int>(top_k);

  std::vector<simgen::obs::JournalEvent> events;
  std::string error;
  bool truncated = false;
  if (!simgen::obs::read_journal_file(journal_path, events, &error, &truncated)) {
    std::fprintf(stderr, "sweep_inspect: %s: %s\n", journal_path.c_str(),
                 error.c_str());
    return 2;
  }

  if (check) {
    if (!simgen::obs::check_journal(events, &error)) {
      std::fprintf(stderr, "sweep_inspect: %s: INVALID: %s\n",
                   journal_path.c_str(), error.c_str());
      return 2;
    }
    std::printf("%s: OK (%zu events%s)\n", journal_path.c_str(), events.size(),
                truncated ? ", truncated tail tolerated" : "");
  }

  if (!rewrite_path.empty() &&
      !simgen::obs::write_journal_file(rewrite_path, events)) {
    std::fprintf(stderr, "sweep_inspect: cannot write %s\n",
                 rewrite_path.c_str());
    return 2;
  }

  const simgen::obs::JournalReport report =
      simgen::obs::build_report(events, truncated);

  if (!quiet && !check) simgen::obs::write_text_report(std::cout, report, options);
  if (timeline || class_rep != 0)
    simgen::obs::write_timeline(std::cout, report, class_rep, options);
  if (sat) simgen::obs::write_sat_report(std::cout, report, options);
  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    if (out) simgen::obs::write_chrome_trace(out, events, options);
    if (!out.good()) {
      std::fprintf(stderr,
                   "sweep_inspect: cannot write Chrome trace file %s\n",
                   chrome_path.c_str());
      return 2;
    }
  }
  return 0;
}
