/// \file test_parse_option.cpp
/// \brief Unit tests for util::parse_option, the strict parser of numeric
/// command-line values: the whole value or nothing, never a silent 0.

#include <cstdint>

#include <gtest/gtest.h>

#include "util/parse_option.hpp"

namespace simgen::util {
namespace {

TEST(ParseOption, AcceptsWholeUnsignedIntegers) {
  std::uint64_t value = 7;
  EXPECT_TRUE(parse_option("--n", "0", value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(parse_option("--n", "18446744073709551615", value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_TRUE(parse_option("--n", "1024", value, 1024));
  EXPECT_EQ(value, 1024u);
}

TEST(ParseOption, RejectsMalformedIntegersAndKeepsTheValue) {
  for (const char* text : {"", "abc", "12x", "-1", "+1", " 1", "1.5", "0x10",
                           "18446744073709551616"}) {
    std::uint64_t value = 7;
    EXPECT_FALSE(parse_option("--n", text, value)) << "'" << text << "'";
    EXPECT_EQ(value, 7u) << "'" << text << "'";
  }
  std::uint64_t value = 7;
  EXPECT_FALSE(parse_option("--threads", "1025", value, 1024));
  EXPECT_EQ(value, 7u);
}

TEST(ParseOption, ParsesNonNegativeNumbers) {
  double value = -1.0;
  EXPECT_TRUE(parse_option("--seconds", "30", value));
  EXPECT_EQ(value, 30.0);
  EXPECT_TRUE(parse_option("--seconds", "0.5", value));
  EXPECT_EQ(value, 0.5);
  EXPECT_TRUE(parse_option("--seconds", ".5", value));
  EXPECT_EQ(value, 0.5);
  for (const char* text : {"", ".", "abc", "-1", "-0.5", "1s", "inf", "nan",
                           "1e999"}) {
    value = -1.0;
    EXPECT_FALSE(parse_option("--seconds", text, value)) << "'" << text << "'";
    EXPECT_EQ(value, -1.0) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace simgen::util
