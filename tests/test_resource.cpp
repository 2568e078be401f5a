// Resource-accounting tests: RSS sampling and the res.* gauge export.
#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"
#include "obs/resource.hpp"

namespace simgen {
namespace {

#ifndef SIMGEN_NO_TELEMETRY

TEST(Resource, SamplesNonZeroRss) {
  const obs::ResourceSample sample = obs::sample_resources();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(sample.peak_rss_kb, 0u);
  EXPECT_GT(sample.current_rss_kb, 0u);
  EXPECT_GE(sample.peak_rss_kb, sample.current_rss_kb)
      << "high-water mark can never be below the current RSS";
#endif
}

TEST(Resource, PeakRssIsMonotone) {
  const obs::ResourceSample before = obs::sample_resources();
  // Touch 32 MB so the pages actually land in the resident set.
  std::vector<unsigned char> ballast(32u << 20, 1);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 2;
  const obs::ResourceSample during = obs::sample_resources();
  EXPECT_GE(during.peak_rss_kb, before.peak_rss_kb);
#if defined(__linux__)
  EXPECT_GE(during.current_rss_kb + 1024, before.current_rss_kb + (32u << 10))
      << "32 MB of touched pages must show up in VmRSS (1 MB slack)";
#endif
}

TEST(Resource, GaugeExportPublishesRss) {
  const obs::ResourceSample sample = obs::sample_resource_gauges();
  EXPECT_DOUBLE_EQ(obs::gauge_value("res.peak_rss_mb"),
                   static_cast<double>(sample.peak_rss_kb) / 1024.0);
  EXPECT_DOUBLE_EQ(obs::gauge_value("res.current_rss_mb"),
                   static_cast<double>(sample.current_rss_kb) / 1024.0);
  const obs::TelemetrySnapshot snapshot = obs::capture_snapshot();
  EXPECT_TRUE(snapshot.gauges.count("res.peak_rss_mb"))
      << "resource gauges must ride along in every snapshot";
}

#else  // SIMGEN_NO_TELEMETRY

TEST(ResourceStubs, ReturnEmptySamples) {
  const obs::ResourceSample sample = obs::sample_resources();
  EXPECT_EQ(sample.current_rss_kb, 0u);
  EXPECT_EQ(sample.peak_rss_kb, 0u);
  EXPECT_EQ(obs::sample_resource_gauges().peak_rss_kb, 0u);
}

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
}  // namespace simgen
