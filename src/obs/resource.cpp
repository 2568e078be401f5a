#include "obs/resource.hpp"

#ifndef SIMGEN_NO_TELEMETRY

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/metrics.hpp"

namespace {

/// Parses a "VmRSS:     12345 kB" style /proc/self/status line into
/// \p out_kb; returns false when \p line is not a \p key line.
bool parse_status_kb(const char* line, const char* key,
                     std::uint64_t& out_kb) noexcept {
  const std::size_t key_len = std::strlen(key);
  if (std::strncmp(line, key, key_len) != 0) return false;
  out_kb = std::strtoull(line + key_len, nullptr, 10);
  return true;
}

}  // namespace

namespace simgen::obs {

ResourceSample sample_resources() noexcept {
  ResourceSample sample;
#if defined(__linux__)
  if (std::FILE* status = std::fopen("/proc/self/status", "re")) {
    char line[160];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (parse_status_kb(line, "VmRSS:", sample.current_rss_kb)) continue;
      if (parse_status_kb(line, "VmHWM:", sample.peak_rss_kb)) continue;
    }
    std::fclose(status);
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  if (sample.peak_rss_kb == 0) {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
      // ru_maxrss is bytes on macOS, kilobytes everywhere else.
      sample.peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
      sample.peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
      if (sample.current_rss_kb == 0) {
        sample.current_rss_kb = sample.peak_rss_kb;
      }
    }
  }
#endif
  return sample;
}

ResourceSample sample_resource_gauges() {
  const ResourceSample sample = sample_resources();
  set_gauge("res.current_rss_mb",
            static_cast<double>(sample.current_rss_kb) / 1024.0);
  set_gauge("res.peak_rss_mb",
            static_cast<double>(sample.peak_rss_kb) / 1024.0);
  return sample;
}

}  // namespace simgen::obs

#endif  // SIMGEN_NO_TELEMETRY
