/// \file logging.hpp
/// \brief Minimal leveled logging for the flow drivers and benches.
///
/// The library core never logs on hot paths; logging exists so the example
/// applications and experiment harnesses can narrate the sweeping flow.
/// printf-style formatting is used (the toolchain predates std::format).
#pragma once

#include <optional>
#include <string_view>

namespace simgen::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are discarded. The
/// initial threshold is kWarn, overridable by the SIMGEN_LOG_LEVEL
/// environment variable ("debug", "info", "warn", "error", "off", or the
/// numeric levels 0-4) — an explicit set_log_level still wins afterwards.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Parses a level name or digit as accepted by SIMGEN_LOG_LEVEL; empty
/// optional on unrecognized input.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view text) noexcept;

/// Emits one line to stderr if \p level passes the threshold. Lines carry
/// a wall-clock timestamp, severity tag, and thread tag — a small ordinal
/// assigned on the thread's first log line, plus the worker slot when
/// the thread registered one (see set_thread_worker_index):
///   [simgen 12:34:56.789 info  t1] message        (plain thread)
///   [simgen 12:34:56.789 info  t3/w2] message     (bench cell slot 2)
/// Multithreaded sweep logs interleave; the tag is what makes each line
/// attributable to a worker lane.
void log_line(LogLevel level, std::string_view message);

/// Registers the calling thread as worker slot \p index (< 0 clears the
/// registration). Called by util::parallel_for for its threads so every
/// log line from inside a bench cell carries the slot.
void set_thread_worker_index(int index) noexcept;
[[nodiscard]] int thread_worker_index() noexcept;  ///< -1 when unset.

/// printf-style logging at a given level.
[[gnu::format(printf, 2, 3)]]
void logf(LogLevel level, const char* fmt, ...);

[[gnu::format(printf, 1, 2)]] void debugf(const char* fmt, ...);
[[gnu::format(printf, 1, 2)]] void infof(const char* fmt, ...);
[[gnu::format(printf, 1, 2)]] void warnf(const char* fmt, ...);
[[gnu::format(printf, 1, 2)]] void errorf(const char* fmt, ...);

}  // namespace simgen::util
