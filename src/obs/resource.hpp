/// \file resource.hpp
/// \brief Process resource accounting: peak/current RSS sampling.
///
/// The metrics registry attributes *time*; this module attributes
/// *memory*. `sample_resources()` reads the kernel's view of the process
/// (Linux: /proc/self/status VmRSS/VmHWM, elsewhere: getrusage peak).
/// Samples feed the sweep heartbeats, the kResourceSample journal events,
/// the res.* gauges (and through them TelemetrySnapshot), and the
/// BENCH_*.json peak_rss_mb field.
///
/// Under SIMGEN_NO_TELEMETRY everything here folds to constant-returning
/// inline stubs.
#pragma once

#include <cstdint>

namespace simgen::obs {

/// One point-in-time resource reading, in kilobytes (the kernel's unit).
struct ResourceSample {
  std::uint64_t current_rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
};

#ifndef SIMGEN_NO_TELEMETRY

/// Samples the current process's resource usage. Cheap (one /proc read);
/// fine to call from heartbeats. Never throws; unknown fields stay 0.
[[nodiscard]] ResourceSample sample_resources() noexcept;

/// Samples and publishes the reading as the registry gauges
/// res.current_rss_mb and res.peak_rss_mb, so resource state rides along
/// in every TelemetrySnapshot and metrics export. Returns the sample.
ResourceSample sample_resource_gauges();

#else

[[nodiscard]] inline ResourceSample sample_resources() noexcept { return {}; }
inline ResourceSample sample_resource_gauges() { return {}; }

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace simgen::obs
