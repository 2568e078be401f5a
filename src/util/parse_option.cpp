#include "util/parse_option.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>

namespace simgen::util {
namespace {

/// from_chars over all of \p text, which must start with a digit or '.':
/// that refuses a sign, a space, "inf" and "nan" (from_chars itself takes
/// a '-' for a double).
template <typename T>
bool parse_whole(const char* text, T& value) {
  const char* end = text + std::strlen(text);
  if (text == end || (*text != '.' && (*text < '0' || *text > '9')))
    return false;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  return ec == std::errc() && ptr == end;
}

bool refuse(const char* flag, const std::string& expected, const char* text) {
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag,
               expected.c_str(), text);
  return false;
}

}  // namespace

bool parse_option(const char* flag, const char* text, std::uint64_t& out,
                  std::uint64_t max) {
  std::uint64_t value = 0;
  if (!parse_whole(text, value) || value > max)
    return refuse(flag,
                  max == std::numeric_limits<std::uint64_t>::max()
                      ? "a non-negative integer"
                      : "an integer in [0, " + std::to_string(max) + "]",
                  text);
  out = value;
  return true;
}

bool parse_option(const char* flag, const char* text, double& out) {
  double value = 0.0;
  if (!parse_whole(text, value) || !std::isfinite(value))
    return refuse(flag, "a non-negative number", text);
  out = value;
  return true;
}

}  // namespace simgen::util
