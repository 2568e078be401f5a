#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <unordered_map>

#include "util/mutex.hpp"

namespace simgen::obs {

namespace detail {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c < 0x80) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (c < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buffer;
          } else {
            out += static_cast<char>(c);
          }
      }
      ++i;
      continue;
    }
    // Multi-byte sequence: pass through only well-formed UTF-8 (RFC 3629);
    // anything else (stray continuation, overlong form, surrogate, > U+10FFFF)
    // becomes U+FFFD so user-supplied benchmark paths in span names can
    // never produce invalid JSON.
    const std::size_t length = c >= 0xF0 ? 4 : (c >= 0xE0 ? 3 : (c >= 0xC2 ? 2 : 0));
    bool valid = length != 0 && i + length <= text.size();
    if (valid) {
      for (std::size_t k = 1; k < length; ++k)
        if ((static_cast<unsigned char>(text[i + k]) & 0xC0) != 0x80)
          valid = false;
    }
    if (valid && length == 3) {
      const auto next = static_cast<unsigned char>(text[i + 1]);
      if (c == 0xE0 && next < 0xA0) valid = false;  // overlong
      if (c == 0xED && next >= 0xA0) valid = false;  // UTF-16 surrogate
    }
    if (valid && length == 4) {
      const auto next = static_cast<unsigned char>(text[i + 1]);
      if (c == 0xF0 && next < 0x90) valid = false;  // overlong
      if (c == 0xF4 && next >= 0x90) valid = false;  // > U+10FFFF
      if (c > 0xF4) valid = false;
    }
    if (valid) {
      out.append(text.substr(i, length));
      i += length;
    } else {
      out += "\\ufffd";
      ++i;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no NaN/Inf.
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.15g", value);
  return buffer;
}

}  // namespace detail

std::uint64_t TelemetrySnapshot::counter_value(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

#ifndef SIMGEN_NO_TELEMETRY

namespace {

/// The process-wide registry. Intentionally leaked (never destroyed) so
/// instruments in static storage can retire during program teardown
/// without static-destruction-order hazards.
struct Registry {
  util::Mutex mutex;

  // Live instruments, keyed by object identity. Multiple live instances
  // may share a name (e.g. two Solvers); aggregation sums them.
  std::unordered_map<Counter*, std::string> live_counters
      SIMGEN_GUARDED_BY(mutex);

  // Final values of destroyed instruments, accumulated per name.
  std::map<std::string, std::uint64_t> retired_counters
      SIMGEN_GUARDED_BY(mutex);

  std::map<std::string, double> gauges SIMGEN_GUARDED_BY(mutex);

  // Registry-owned counters handed out by counter(). unique_ptr keeps
  // addresses stable; the objects also appear in live_counters through
  // their registering constructors.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> owned_counters
      SIMGEN_GUARDED_BY(mutex);

  static Registry& get() {
    static Registry* instance = new Registry();
    return *instance;
  }
};

}  // namespace

Counter::Counter(const char* name) : registered_(true) {
  Registry& registry = Registry::get();
  const util::LockGuard lock(registry.mutex);
  registry.live_counters.emplace(this, name);
}

Counter::~Counter() {
  if (!registered_) return;
  Registry& registry = Registry::get();
  const util::LockGuard lock(registry.mutex);
  const auto it = registry.live_counters.find(this);
  if (it == registry.live_counters.end()) return;
  registry.retired_counters[it->second] += value();
  registry.live_counters.erase(it);
}

Counter& counter(std::string_view name) {
  Registry& registry = Registry::get();
  {
    const util::LockGuard lock(registry.mutex);
    const auto it = registry.owned_counters.find(name);
    if (it != registry.owned_counters.end()) return *it->second;
  }
  // Construct outside the lock: the registering constructor takes it too.
  auto owned = std::make_unique<Counter>(std::string(name).c_str());
  const util::LockGuard lock(registry.mutex);
  const auto [it, inserted] =
      registry.owned_counters.emplace(std::string(name), std::move(owned));
  return *it->second;
}

void set_gauge(std::string_view name, double value) {
  Registry& registry = Registry::get();
  const util::LockGuard lock(registry.mutex);
  registry.gauges[std::string(name)] = value;
}

double gauge_value(std::string_view name) {
  Registry& registry = Registry::get();
  const util::LockGuard lock(registry.mutex);
  const auto it = registry.gauges.find(std::string(name));
  return it == registry.gauges.end() ? 0.0 : it->second;
}

TelemetrySnapshot capture_snapshot() {
  Registry& registry = Registry::get();
  const util::LockGuard lock(registry.mutex);
  TelemetrySnapshot snapshot;
  snapshot.counters = registry.retired_counters;
  for (const auto& [instance, name] : registry.live_counters)
    snapshot.counters[name] += instance->value();
  snapshot.gauges = registry.gauges;
  return snapshot;
}

void reset_all_metrics() {
  Registry& registry = Registry::get();
  const util::LockGuard lock(registry.mutex);
  for (const auto& [instance, name] : registry.live_counters) instance->reset();
  registry.retired_counters.clear();
  registry.gauges.clear();
}

#else  // SIMGEN_NO_TELEMETRY: instruments count locally, nothing registers.

Counter::Counter(const char*) {}
Counter::~Counter() = default;

Counter& counter(std::string_view) {
  static Counter dummy;
  return dummy;
}

void set_gauge(std::string_view, double) {}
double gauge_value(std::string_view) { return 0.0; }
TelemetrySnapshot capture_snapshot() { return {}; }
void reset_all_metrics() {}

#endif  // SIMGEN_NO_TELEMETRY

std::uint64_t bucket_percentile(const std::uint64_t* buckets,
                                std::size_t num_buckets, double q) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < num_buckets; ++i) total += buckets[i];
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based; q == 0 degenerates to the minimum.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < num_buckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    if (i == 0) return 0;  // bucket 0 holds exactly the value 0
    // Interpolate the rank's position inside this bucket's value range
    // [2^(i-1), 2^i - 1], assuming samples spread evenly across it.
    const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
    const double hi = std::ldexp(1.0, static_cast<int>(i)) - 1.0;
    const double within =
        static_cast<double>(rank - seen - 1) / static_cast<double>(buckets[i]);
    return static_cast<std::uint64_t>(lo + (hi - lo) * within);
  }
  return 0;  // unreachable: rank <= total
}

TelemetrySnapshot diff_snapshots(const TelemetrySnapshot& before,
                                 const TelemetrySnapshot& after) {
  TelemetrySnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= base ? value - base : 0;
  }
  delta.gauges = after.gauges;
  return delta;
}

void write_metrics_jsonl(std::ostream& out, const TelemetrySnapshot& snapshot) {
  out.precision(15);
  for (const auto& [name, value] : snapshot.counters)
    out << "{\"kind\":\"counter\",\"name\":\"" << detail::json_escape(name)
        << "\",\"value\":" << value << "}\n";
  for (const auto& [name, value] : snapshot.gauges)
    out << "{\"kind\":\"gauge\",\"name\":\"" << detail::json_escape(name)
        << "\",\"value\":" << detail::json_number(value) << "}\n";
}

void write_metrics_jsonl(std::ostream& out) {
  write_metrics_jsonl(out, capture_snapshot());
}

bool write_metrics_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_jsonl(out);
  // Most of the file is still buffered here; close() writes it out, and a
  // write that fails (a full disk, /dev/full) fails the close.
  out.close();
  return !out.fail();
}

}  // namespace simgen::obs
