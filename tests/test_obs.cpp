// Telemetry subsystem tests: counter/gauge/histogram semantics, registry
// aggregation and retirement, snapshot diffing, nested span recording,
// Chrome-trace JSON export (validated with a minimal JSON parser), and an
// end-to-end certified CEC run whose counters must land in the registry.
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig_to_network.hpp"
#include "benchgen/generator.hpp"
#include "mapping/lut_mapper.hpp"
#include "sweep/cec.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace simgen::obs {
namespace {

// ---------------------------------------------------------------------------
// Instrument value semantics (independent of the registry, so these run
// under SIMGEN_NO_TELEMETRY too).

TEST(Counter, DetachedCountsLocally) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, CopyIsDetachedValueSnapshot) {
  Counter original("test_obs.copy_semantics");
  original.inc(7);
  Counter copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
  copy.inc();
  EXPECT_EQ(original.value(), 7u);
  EXPECT_EQ(copy.value(), 8u);
  original = copy;
  EXPECT_EQ(original.value(), 8u);
}

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(255), 8u);
  EXPECT_EQ(Histogram::bucket_of(256), 9u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(Histogram, ObserveTracksCountSumBuckets) {
  Histogram histogram;
  histogram.observe(0);
  histogram.observe(1);
  histogram.observe(5);
  histogram.observe(5);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 11u);
  EXPECT_EQ(histogram.buckets()[0], 1u);  // value 0
  EXPECT_EQ(histogram.buckets()[1], 1u);  // value 1
  EXPECT_EQ(histogram.buckets()[3], 2u);  // values 4..7
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(Histogram, PercentileInterpolatesInsideLog2Buckets) {
  Histogram histogram;
  EXPECT_EQ(histogram.percentile(0.5), 0u);  // empty distribution

  histogram.observe(0);
  EXPECT_EQ(histogram.percentile(0.5), 0u);  // bucket 0 is exact
  EXPECT_EQ(histogram.percentile(1.0), 0u);

  histogram.reset();
  for (int i = 0; i < 3; ++i) histogram.observe(10);  // bucket [8, 15]
  // Ranks 1..3 spread evenly across the bucket's value range: 8, 10, 12.
  EXPECT_EQ(histogram.percentile(0.0), 8u);  // q == 0 degenerates to min
  EXPECT_EQ(histogram.percentile(0.5), 10u);
  EXPECT_EQ(histogram.percentile(1.0), 12u);
}

TEST(Histogram, BucketPercentileIsTheSharedEstimator) {
  // The free function behind Histogram::percentile and the --sat report
  // tables; one estimator so p50/p90/p99 mean the same thing everywhere.
  std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 0.5), 0u);
  buckets[Histogram::bucket_of(0)] += 1;
  buckets[Histogram::bucket_of(1)] += 1;
  buckets[Histogram::bucket_of(1000)] += 1;  // lands in [512, 1023]
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 0.0), 0u);
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 0.5), 1u);
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 1.0), 512u);
  // Out-of-range quantiles clamp rather than misbehave.
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), -1.0), 0u);
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 2.0), 512u);
}

TEST(Stopwatch, LapMeasuresSinceLastLap) {
  util::Stopwatch watch;
  watch.start();
  const double first = watch.lap();
  // A lap can only move forward, and the second lap restarts from the
  // first lap's mark, so total elapsed >= first lap.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double second = watch.lap();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, 0.002 * 0.5);  // allow coarse clocks some slack
  EXPECT_GE(watch.seconds(), second);
}

#ifndef SIMGEN_NO_TELEMETRY

// ---------------------------------------------------------------------------
// Registry aggregation.

TEST(Registry, LiveAndRetiredInstrumentsAggregate) {
  reset_all_metrics();
  {
    Counter first("test_obs.reg_counter");
    first.inc(10);
    EXPECT_EQ(capture_snapshot().counter_value("test_obs.reg_counter"), 10u);
  }
  // Retired at destruction: the value must survive the instrument.
  EXPECT_EQ(capture_snapshot().counter_value("test_obs.reg_counter"), 10u);
  {
    Counter second("test_obs.reg_counter");
    second.inc(5);
    // Retired (10) + live (5).
    EXPECT_EQ(capture_snapshot().counter_value("test_obs.reg_counter"), 15u);
  }
  EXPECT_EQ(capture_snapshot().counter_value("test_obs.reg_counter"), 15u);
}

TEST(Registry, CopiesNeverDoubleCount) {
  reset_all_metrics();
  Counter original("test_obs.no_double");
  original.inc(3);
  const Counter copy = original;
  const Counter moved = std::move(original);
  EXPECT_EQ(copy.value(), 3u);
  EXPECT_EQ(moved.value(), 3u);
  // Only the registered original contributes.
  EXPECT_EQ(capture_snapshot().counter_value("test_obs.no_double"), 3u);
}

TEST(Registry, OwnedCounterIsStableAcrossLookups) {
  reset_all_metrics();
  Counter& a = counter("test_obs.owned");
  Counter& b = counter("test_obs.owned");
  EXPECT_EQ(&a, &b);
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(capture_snapshot().counter_value("test_obs.owned"), 5u);
}

TEST(Registry, GaugesAreLastWriteWins) {
  reset_all_metrics();
  set_gauge("test_obs.gauge", 1.5);
  set_gauge("test_obs.gauge", 2.5);
  add_gauge("test_obs.gauge", 0.5);
  EXPECT_DOUBLE_EQ(gauge_value("test_obs.gauge"), 3.0);
  const TelemetrySnapshot snapshot = capture_snapshot();
  ASSERT_TRUE(snapshot.gauges.contains("test_obs.gauge"));
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("test_obs.gauge"), 3.0);
}

TEST(Registry, HistogramAggregatesAndSnapshotTrimsBuckets) {
  reset_all_metrics();
  Histogram& histogram = obs::histogram("test_obs.hist");
  histogram.observe(1);
  histogram.observe(6);
  const TelemetrySnapshot snapshot = capture_snapshot();
  ASSERT_TRUE(snapshot.histograms.contains("test_obs.hist"));
  const HistogramSnapshot& hist = snapshot.histograms.at("test_obs.hist");
  EXPECT_EQ(hist.count, 2u);
  EXPECT_EQ(hist.sum, 7u);
  // Trailing zero buckets trimmed: highest populated bucket is 3 (4..7).
  ASSERT_EQ(hist.buckets.size(), 4u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[3], 1u);
}

TEST(Snapshot, DiffSubtractsCountersAndKeepsAfterGauges) {
  reset_all_metrics();
  Counter& c = counter("test_obs.diff");
  c.inc(10);
  set_gauge("test_obs.diff_gauge", 1.0);
  const TelemetrySnapshot before = capture_snapshot();
  c.inc(7);
  set_gauge("test_obs.diff_gauge", 9.0);
  const TelemetrySnapshot delta = diff_snapshots(before, capture_snapshot());
  EXPECT_EQ(delta.counter_value("test_obs.diff"), 7u);
  EXPECT_DOUBLE_EQ(delta.gauges.at("test_obs.diff_gauge"), 9.0);
}

TEST(Snapshot, DiffClampsAtZeroAfterReset) {
  reset_all_metrics();
  Counter& c = counter("test_obs.clamp");
  c.inc(10);
  const TelemetrySnapshot before = capture_snapshot();
  reset_all_metrics();
  c.inc(2);
  const TelemetrySnapshot delta = diff_snapshots(before, capture_snapshot());
  EXPECT_EQ(delta.counter_value("test_obs.clamp"), 0u);
}

// ---------------------------------------------------------------------------
// JSONL export.

TEST(MetricsJsonl, EmitsOneValidObjectPerLine) {
  reset_all_metrics();
  counter("test_obs.jsonl").inc(3);
  set_gauge("test_obs.jsonl_gauge", 0.5);
  histogram("test_obs.jsonl_hist").observe(4);
  std::ostringstream out;
  write_metrics_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"kind\":\"counter\",\"name\":\"test_obs.jsonl\","
                      "\"value\":3}"),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"histogram\""), std::string::npos);
  // Every line is brace-balanced and quote-paired.
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_GE(count, 3u);
}

TEST(MetricsJsonl, EscapesNames) {
  EXPECT_EQ(detail::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(MetricsJsonl, EscapesControlAndPassesValidUtf8) {
  EXPECT_EQ(detail::json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(detail::json_escape("caf\xc3\xa9"), "caf\xc3\xa9");          // é
  EXPECT_EQ(detail::json_escape("\xe4\xbd\xa0"), "\xe4\xbd\xa0");        // 你
  EXPECT_EQ(detail::json_escape("\xf0\x9f\x98\x80"), "\xf0\x9f\x98\x80");  // 😀
}

TEST(MetricsJsonl, ReplacesMalformedUtf8WithReplacementChar) {
  // Stray continuation byte, truncated sequence, overlong encoding,
  // UTF-16 surrogate, and beyond-U+10FFFF must all degrade to �
  // instead of leaking invalid bytes into the JSON output.
  EXPECT_EQ(detail::json_escape("\x80"), "\\ufffd");
  EXPECT_EQ(detail::json_escape("\xc3"), "\\ufffd");            // cut short
  EXPECT_EQ(detail::json_escape("\xc0\xaf"), "\\ufffd\\ufffd");  // overlong '/'
  EXPECT_EQ(detail::json_escape("\xe0\x80\xaf"),
            "\\ufffd\\ufffd\\ufffd");                           // overlong
  EXPECT_EQ(detail::json_escape("\xed\xa0\x80"),
            "\\ufffd\\ufffd\\ufffd");                           // surrogate
  EXPECT_EQ(detail::json_escape("\xf5\x80\x80\x80"),
            "\\ufffd\\ufffd\\ufffd\\ufffd");                    // > U+10FFFF
  EXPECT_EQ(detail::json_escape("ok\x80ok"), "ok\\ufffdok");
}

TEST(MetricsJsonl, NumbersNeverEmitNanOrInf) {
  EXPECT_EQ(detail::json_number(1.5), "1.5");
  EXPECT_EQ(detail::json_number(0.0), "0");
  EXPECT_EQ(detail::json_number(std::nan("")), "null");
  EXPECT_EQ(detail::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(detail::json_number(-std::numeric_limits<double>::infinity()),
            "null");
}

TEST(Logging, ParseLogLevelAcceptsNamesAndDigits) {
  using util::LogLevel;
  EXPECT_EQ(util::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("4"), LogLevel::kOff);
  EXPECT_FALSE(util::parse_log_level("loud").has_value());
  EXPECT_FALSE(util::parse_log_level("").has_value());
  EXPECT_FALSE(util::parse_log_level("5").has_value());
}

// ---------------------------------------------------------------------------
// Span tracer and Chrome-trace export.

/// Minimal JSON reader covering the subset the trace exporter emits
/// (objects, arrays, strings, numbers, booleans). Any malformed byte
/// fails the test via ADD_FAILURE + parse abort.
class MiniJson {
 public:
  explicit MiniJson(std::string_view text) : text_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

  [[nodiscard]] std::size_t objects() const noexcept { return objects_; }
  [[nodiscard]] const std::vector<std::string>& strings() const noexcept {
    return strings_;
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++objects_;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    strings_.push_back(std::move(out));
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t objects_ = 0;
  std::vector<std::string> strings_;
};

TEST(Tracer, RecordsNestedSpansInCompletionOrder) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  {
    Span outer("outer");
    {
      Span inner("inner");
      inner.arg("depth_check", 1.0);
    }
    Span sibling("sibling");
  }
  tracer.instant("marker");
  tracer.disable();

  const std::vector<Tracer::Event> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // Events are recorded at begin time: outer, inner, sibling, marker.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[3].name, "marker");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[3].phase, 'i');
  // Nesting: inner starts after outer and ends before it.
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
  EXPECT_LE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us + 1e-3);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].first, "depth_check");
}

TEST(Tracer, SpanCloseEndsEarlyAndIsIdempotent) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  {
    Span span("closable");
    span.close();
    span.close();  // second close must be a no-op
  }
  tracer.disable();
  const std::vector<Tracer::Event> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "closable");
}

TEST(Tracer, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  tracer.disable();
  {
    Span span("ghost");
    tracer.instant("ghost_marker");
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, ChromeTraceJsonParsesBack) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  {
    Span outer("phase \"quoted\"");  // exercise escaping
    outer.arg("cost", 12.5);
    Span inner("inner");
  }
  tracer.instant("event");
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();

  MiniJson parser(json);
  ASSERT_TRUE(parser.parse()) << json;
  // Metadata event + 3 recorded events, each an object, plus args
  // objects and the root.
  EXPECT_GE(parser.objects(), 5u);
  const auto& strings = parser.strings();
  EXPECT_NE(std::find(strings.begin(), strings.end(), "traceEvents"),
            strings.end());
  EXPECT_NE(std::find(strings.begin(), strings.end(), "phase \"quoted\""),
            strings.end());
  // Chrome requires "ph" and "ts" keys on every event.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a certified CEC run must populate every layer's metrics.

TEST(EndToEnd, CertifiedCecPopulatesRegistry) {
  reset_all_metrics();
  Tracer& tracer = Tracer::instance();
  tracer.enable();

  benchgen::CircuitSpec spec;
  spec.name = "obs_e2e";
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.num_gates = 120;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network mapped = mapping::map_to_luts(graph);
  const net::Network direct = aig::to_network(graph);

  sweep::CecOptions options;
  options.certify = true;
  const sweep::CecResult result =
      sweep::check_equivalence(mapped, direct, options);
  tracer.disable();
  EXPECT_TRUE(result.equivalent);

  const TelemetrySnapshot snapshot = capture_snapshot();
  // Every layer must have reported: SAT solver, simulator, eqclass
  // manager, SimGen generator, sweeper, and the DRAT certifier.
  EXPECT_GT(snapshot.counter_value("sat.solve_calls"), 0u);
  EXPECT_GT(snapshot.counter_value("sat.propagations"), 0u);
  EXPECT_GT(snapshot.counter_value("sim.words"), 0u);
  EXPECT_GT(snapshot.counter_value("eq.refine_calls"), 0u);
  EXPECT_GT(snapshot.counter_value("eq.splits"), 0u);
  EXPECT_GT(snapshot.counter_value("simgen.targets_attempted"), 0u);
  EXPECT_GT(snapshot.counter_value("sweep.sat_calls"), 0u);
  EXPECT_GT(snapshot.counter_value("drat.certified_targets"), 0u);
  EXPECT_GT(snapshot.counter_value("drat.checked_lemmas"), 0u);

  // The sweeper's own totals and the registry view must agree. The
  // registry counter also covers the post-sweep output-proof
  // certifications, which the run() delta excludes.
  EXPECT_EQ(snapshot.counter_value("sweep.sat_calls"),
            result.sweep_stats.sat_calls);
  EXPECT_EQ(snapshot.counter_value("sweep.certified_unsat"),
            result.sweep_stats.certified_unsat + result.certified_outputs);

  // The phase spans of the run must be in the trace.
  std::vector<std::string> names;
  for (const Tracer::Event& event : tracer.events()) names.push_back(event.name);
  for (const char* expected :
       {"cec.check_equivalence", "cec.random_sim", "cec.sweep",
        "cec.output_proofs", "sweep.run", "sweep.sat_solve"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;

  // Each sweep.sat_solve span reports its own call's conflicts, not the
  // sweep solver's running total, so the spans sum to at most the
  // registry's count over every solver of the run.
  double span_conflicts = 0.0;
  for (const Tracer::Event& event : tracer.events()) {
    if (event.name != "sweep.sat_solve") continue;
    for (const auto& [key, value] : event.args)
      if (key == "conflicts") span_conflicts += value;
  }
  EXPECT_LE(span_conflicts,
            static_cast<double>(snapshot.counter_value("sat.conflicts")));
}

TEST(EndToEnd, SolverStatsViewMatchesRegistryDelta) {
  reset_all_metrics();
  sat::Solver solver;
  const sat::Var x = solver.new_var();
  const sat::Var y = solver.new_var();
  solver.add_clause({sat::pos(x), sat::pos(y)});
  solver.add_clause({sat::neg(x), sat::pos(y)});
  solver.add_clause({sat::pos(x), sat::neg(y)});
  EXPECT_EQ(solver.solve(), sat::Result::kSat);
  // One source of truth: the instance view IS the registry contribution.
  const TelemetrySnapshot snapshot = capture_snapshot();
  EXPECT_EQ(snapshot.counter_value("sat.solve_calls"),
            solver.stats().solve_calls.value());
  EXPECT_EQ(snapshot.counter_value("sat.decisions"),
            solver.stats().decisions.value());
  EXPECT_EQ(snapshot.counter_value("sat.propagations"),
            solver.stats().propagations.value());
}

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
}  // namespace simgen::obs
