/// \file telemetry_cli.hpp
/// \brief Shared command-line handling for the telemetry subsystem.
///
/// Every driver binary (bench harnesses, examples, tools/simgen_fuzz)
/// accepts the same telemetry flags; this class strips them from
/// argc/argv at construction and wires up the corresponding outputs:
///   --metrics-out FILE     write the metrics registry as JSONL at exit
///   --journal-out FILE     record the sweep decision journal (binary;
///                          a ".jsonl" FILE is a usage error, export JSONL
///                          with `sweep_inspect --rewrite FILE.jsonl`);
///                          replay with tools/sweep_inspect (whose
///                          --chrome-trace renders it as a Perfetto
///                          timeline)
///   --progress SECONDS     heartbeat interval for sweeps (implies info
///                          logging); read back via progress_interval()
///   --timeout SECONDS      watchdog deadline; dump + flush + exit 124
/// A flag without a value, or a SECONDS value that is not a whole
/// non-negative decimal number, is a usage error: the program prints
/// "error: ..." and exits with its usage status.
/// A journal file that cannot be created (or any --journal-out in a
/// SIMGEN_NO_TELEMETRY build, which records no journal) is a usage error
/// too, reported before the run starts: "error: cannot open journal file
/// FILE".
/// Construction registers the exit finalizer and the signal watchdog, so
/// the requested files are valid even if the run is interrupted. The
/// destructor writes them on the normal path; if the metrics file or a
/// journal write failed (a full disk), it prints "error: cannot write
/// metrics file FILE" (or journal file) and exits with the usage status.
/// A driver needs only
///   int main(int argc, char** argv) { obs::TelemetryCli telemetry(argc, argv, 1); ... }
/// Domain-specific wrappers layer extra flags on top: bench::TelemetryCli
/// adds --bench-json-dir and --threads (bench cell sharding).
#pragma once

#include <string>

namespace simgen::obs {

class TelemetryCli {
 public:
  /// Parses and removes the telemetry flags from \p argc/\p argv, then
  /// enables the requested outputs, the exit finalizer, and the watchdog.
  /// A malformed flag exits with \p usage_status, the program's own
  /// usage-error code (cec_two_networks uses 2 for UNDECIDED, so 1).
  TelemetryCli(int& argc, char** argv, int usage_status);
  /// Flushes all requested outputs and reports where they were written;
  /// exits with the usage status if one could not be written.
  ~TelemetryCli();
  TelemetryCli(const TelemetryCli&) = delete;
  TelemetryCli& operator=(const TelemetryCli&) = delete;

  /// Value of --progress (seconds between sweep heartbeats; 0 = off).
  [[nodiscard]] double progress_interval() const noexcept {
    return progress_interval_;
  }
  /// Value of --timeout (watchdog deadline in seconds; 0 = none).
  [[nodiscard]] double timeout_seconds() const noexcept {
    return timeout_seconds_;
  }

 private:
  std::string metrics_out_;
  std::string journal_out_;
  int usage_status_;
  double progress_interval_ = 0.0;
  double timeout_seconds_ = 0.0;
};

}  // namespace simgen::obs
