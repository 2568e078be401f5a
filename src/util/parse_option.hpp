/// \file parse_option.hpp
/// \brief Strict parsing of numeric command-line option values.
///
/// strtoull and atoi read "abc" as 0, "12x" as 12 and "-1" as 2^64 - 1,
/// so a mistyped value silently changed what a run did (an `--iters abc`
/// fuzz campaign ran zero iterations and passed). parse_option takes the
/// whole value or nothing.
#pragma once

#include <cstdint>
#include <limits>

namespace simgen::util {

/// Parses \p text, the value of option \p flag, into \p out: a base-10
/// integer in [0, \p max], or for a double a finite decimal number >= 0.
/// A value with no digits, a sign or a trailing character is refused
/// with "error: FLAG expects ..., got 'TEXT'" on stderr and false; \p out
/// is then unchanged and the caller exits with its usage status.
bool parse_option(const char* flag, const char* text, std::uint64_t& out,
                  std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
bool parse_option(const char* flag, const char* text, double& out);

}  // namespace simgen::util
