// Telemetry subsystem tests: counter/gauge semantics, the log2 bucket
// layout and percentile estimator, registry aggregation and retirement,
// snapshot diffing, the journal's Chrome-trace
// rendering (validated with a minimal JSON parser), and an end-to-end
// certified CEC run whose counters must land in the registry.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aig_to_network.hpp"
#include "benchgen/generator.hpp"
#include "mapping/lut_mapper.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "sweep/cec.hpp"
#include "util/logging.hpp"

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

// The log2 bucket layout and percentile estimator of the --sat report's
// distributions.

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(log2_bucket(0), 0u);
  EXPECT_EQ(log2_bucket(1), 1u);
  EXPECT_EQ(log2_bucket(2), 2u);
  EXPECT_EQ(log2_bucket(3), 2u);
  EXPECT_EQ(log2_bucket(4), 3u);
  EXPECT_EQ(log2_bucket(255), 8u);
  EXPECT_EQ(log2_bucket(256), 9u);
  EXPECT_EQ(log2_bucket(~std::uint64_t{0}), 64u);
  EXPECT_EQ(log2_bucket(~std::uint64_t{0}) + 1, kNumLog2Buckets);
}

TEST(Histogram, PercentileInterpolatesInsideLog2Buckets) {
  std::array<std::uint64_t, kNumLog2Buckets> buckets{};
  const auto percentile = [&](double q) {
    return bucket_percentile(buckets.data(), buckets.size(), q);
  };
  EXPECT_EQ(percentile(0.5), 0u);  // empty distribution

  ++buckets[log2_bucket(0)];
  EXPECT_EQ(percentile(0.5), 0u);  // bucket 0 is exact
  EXPECT_EQ(percentile(1.0), 0u);

  buckets.fill(0);
  buckets[log2_bucket(10)] += 3;  // bucket [8, 15]
  // Ranks 1..3 spread evenly across the bucket's value range: 8, 10, 12.
  EXPECT_EQ(percentile(0.0), 8u);  // q == 0 degenerates to min
  EXPECT_EQ(percentile(0.5), 10u);
  EXPECT_EQ(percentile(1.0), 12u);
}

TEST(Histogram, BucketPercentileIsTheSharedEstimator) {
  // The one estimator behind every p50/p90/p99 of the --sat report.
  std::array<std::uint64_t, kNumLog2Buckets> buckets{};
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 0.5), 0u);
  buckets[log2_bucket(0)] += 1;
  buckets[log2_bucket(1)] += 1;
  buckets[log2_bucket(1000)] += 1;  // lands in [512, 1023]
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 0.0), 0u);
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 0.5), 1u);
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 1.0), 512u);
  // Out-of-range quantiles clamp rather than misbehave.
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), -1.0), 0u);
  EXPECT_EQ(bucket_percentile(buckets.data(), buckets.size(), 2.0), 512u);
}

// ---------------------------------------------------------------------------
// Chrome-trace rendering of the journal.

/// Minimal JSON reader covering the subset the trace writer emits
/// (objects, arrays, strings, numbers, booleans). Any malformed byte
/// fails the parse.
class MiniJson {
 public:
  explicit MiniJson(std::string_view text) : text_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

  /// Scalar members (key -> string value or number text) of every object,
  /// in the order the objects close: an event's args before the event.
  [[nodiscard]] const std::vector<std::map<std::string, std::string>>&
  members() const noexcept {
    return members_;
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
    ++pos_;  // '{'
    std::map<std::string, std::string> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      members_.push_back(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      const std::string key = last_string_;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      const std::size_t start = pos_;
      if (!value()) return false;
      if (text_[start] == '"')
        members[key] = last_string_;
      else if (text_[start] != '{' && text_[start] != '[')
        members[key] = std::string(text_.substr(start, pos_ - start));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        members_.push_back(std::move(members));
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
    last_string_ = std::move(out);
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
  std::string last_string_;  ///< Value of the string parsed last.
  std::vector<std::map<std::string, std::string>> members_;
};

/// Complete ("X") spans of a rendered trace: name, begin and end in
/// microseconds.
struct TraceSpan {
  std::string name;
  double begin = 0.0;
  double end = 0.0;
};

std::vector<TraceSpan> complete_spans(const MiniJson& parser) {
  std::vector<TraceSpan> spans;
  for (const auto& members : parser.members()) {
    const auto phase = members.find("ph");
    if (phase == members.end() || phase->second != "X") continue;
    const double ts = std::stod(members.at("ts"));
    spans.push_back(
        {members.at("name"), ts, ts + std::stod(members.at("dur"))});
  }
  return spans;
}

TEST(ChromeTrace, SpanStartsAtStampMinusDuration) {
  // A timed event is stamped when its work ends, so its span starts
  // dur_us before t_ns.
  std::vector<JournalEvent> events(3);
  events[0].kind = EventKind::kGuidedIteration;
  events[0].t_ns = 2'000'250;
  events[0].dur_us = 75;
  events[1].kind = EventKind::kSatCall;
  events[1].t_ns = 4'500'500;
  events[1].dur_us = 300;
  events[2].kind = EventKind::kPhaseEnd;
  events[2].code = static_cast<std::uint8_t>(PhaseId::kSweep);
  events[2].t_ns = 5'000'000;
  events[2].dur_us = 1'200;

  std::ostringstream out;
  write_chrome_trace(out, events, InspectOptions{});
  const std::string json = out.str();
  MiniJson parser(json);
  ASSERT_TRUE(parser.parse()) << json;
  const std::vector<TraceSpan> spans = complete_spans(parser);
  ASSERT_EQ(spans.size(), 3u) << json;
  const char* names[] = {"guided_iteration", "sat_call", "sweep"};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, names[i]);
    EXPECT_DOUBLE_EQ(spans[i].begin,
                     static_cast<double>(events[i].t_ns) / 1000.0 -
                         events[i].dur_us);
    EXPECT_DOUBLE_EQ(spans[i].end - spans[i].begin, events[i].dur_us);
  }
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
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
  EXPECT_DOUBLE_EQ(gauge_value("test_obs.gauge"), 2.5);
  const TelemetrySnapshot snapshot = capture_snapshot();
  ASSERT_TRUE(snapshot.gauges.contains("test_obs.gauge"));
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("test_obs.gauge"), 2.5);
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
  std::ostringstream out;
  write_metrics_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"kind\":\"counter\",\"name\":\"test_obs.jsonl\","
                      "\"value\":3}"),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"gauge\""), std::string::npos);
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
  EXPECT_GE(count, 2u);
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
// Chrome trace of a recorded journal: the phases, iterations and SAT calls
// of one certified CEC run on one timeline.

TEST(ChromeTrace, RendersCertifiedCecJournal) {
  benchgen::CircuitSpec spec;
  spec.name = "obs_chrome_trace";
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.num_gates = 120;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network mapped = mapping::map_to_luts(graph);
  const net::Network direct = aig::to_network(graph);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "chrome_trace.jrnl")
          .string();
  ASSERT_TRUE(Journal::instance().open(path));
  sweep::CecOptions options;
  options.certify = true;
  const sweep::CecResult result =
      sweep::check_equivalence(mapped, direct, options);
  Journal::instance().close();
  ASSERT_TRUE(result.equivalent);

  std::vector<JournalEvent> events;
  std::string error;
  ASSERT_TRUE(read_journal_file(path, events, &error)) << error;
  std::ostringstream out;
  write_chrome_trace(out, events, InspectOptions{});
  const std::string json = out.str();
  MiniJson parser(json);
  ASSERT_TRUE(parser.parse());

  const std::vector<TraceSpan> spans = complete_spans(parser);
  const auto named = [&spans](std::string_view name) {
    return static_cast<std::uint64_t>(std::count_if(
        spans.begin(), spans.end(),
        [name](const TraceSpan& span) { return span.name == name; }));
  };
  for (const char* expected :
       {"run", "random_sim", "guided_sim", "guided_iteration", "sweep",
        "output_proofs", "sat_call", "certified"})
    EXPECT_GT(named(expected), 0u) << expected;
  ASSERT_EQ(named("run"), 1u);
  EXPECT_EQ(named("sat_call"),
            result.sweep_stats.sat_calls + result.output_sat_calls)
      << "sweep calls and output proofs each render one span";

  // Stamps are exact to the nanosecond; the slack only absorbs the
  // rounding of ts + dur in double.
  const auto inside = [](const TraceSpan& inner, const TraceSpan& outer) {
    return inner.begin >= outer.begin - 1e-3 && inner.end <= outer.end + 1e-3;
  };
  const TraceSpan& run = *std::find_if(
      spans.begin(), spans.end(),
      [](const TraceSpan& span) { return span.name == "run"; });
  for (const TraceSpan& span : spans) {
    EXPECT_TRUE(inside(span, run)) << span.name << " leaves the run span";
    if (span.name != "sat_call") continue;
    EXPECT_TRUE(std::any_of(spans.begin(), spans.end(),
                            [&](const TraceSpan& phase) {
                              return (phase.name == "sweep" ||
                                      phase.name == "output_proofs") &&
                                     inside(span, phase);
                            }))
        << "sat_call at " << span.begin << " lies outside both SAT phases";
  }
}

// ---------------------------------------------------------------------------
// End-to-end: a certified CEC run must populate every layer's metrics.

TEST(EndToEnd, CertifiedCecPopulatesRegistry) {
  reset_all_metrics();

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
  EXPECT_TRUE(result.equivalent);

  const TelemetrySnapshot snapshot = capture_snapshot();
  // Every layer with a stats struct must have reported: SAT solver,
  // simulator, eqclass manager, SimGen generator, and the DRAT certifier.
  EXPECT_GT(snapshot.counter_value("sat.solve_calls"), 0u);
  EXPECT_GT(snapshot.counter_value("sat.propagations"), 0u);
  EXPECT_GT(snapshot.counter_value("sim.words"), 0u);
  EXPECT_GT(snapshot.counter_value("eq.refine_calls"), 0u);
  EXPECT_GT(snapshot.counter_value("eq.splits"), 0u);
  EXPECT_GT(snapshot.counter_value("simgen.targets_attempted"), 0u);
  EXPECT_GT(snapshot.counter_value("drat.certified_targets"), 0u);
  EXPECT_GT(snapshot.counter_value("drat.checked_lemmas"), 0u);

  // The sweep's counts live in the CecResult, not in registry copies of
  // them; the registry's solver and certifier counters must agree with
  // them. Every solve is a sweep pair or an output proof, and every
  // certified target is a sweep merge or an output proof.
  EXPECT_GT(result.sweep_stats.sat_calls, 0u);
  EXPECT_EQ(snapshot.counter_value("sat.solve_calls"),
            result.sweep_stats.sat_calls + result.output_sat_calls);
  EXPECT_EQ(snapshot.counter_value("drat.certified_targets"),
            result.sweep_stats.certified_unsat + result.certified_outputs);
  for (const char* copied : {"sweep.sat_calls", "sweep.certified_unsat"})
    EXPECT_FALSE(snapshot.counters.contains(copied)) << copied;
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
