/// \file test_journal.cpp
/// \brief Sweep journal: round-trips through both on-disk formats, the
/// live writer, structural validation, report aggregation against the
/// metrics registry, and the watchdog's flush-on-signal guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "simgen_all.hpp"

#if defined(__unix__)
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

using namespace simgen;
using obs::EventKind;
using obs::JournalEvent;
using obs::PatternSource;
using obs::PhaseId;
using obs::SatVerdict;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// A small but representative event sequence: valid nesting, every kind.
std::vector<JournalEvent> sample_events() {
  std::vector<JournalEvent> events;
  const auto push = [&](EventKind kind, std::uint8_t code, std::uint64_t a,
                        std::uint64_t b = 0, std::uint64_t v0 = 0,
                        std::uint64_t v1 = 0, std::uint64_t v2 = 0,
                        std::uint64_t v3 = 0, std::uint32_t dur_us = 0,
                        std::uint16_t flags = 0) {
    JournalEvent event;
    event.t_ns = (events.size() + 1) * 1000;
    event.kind = kind;
    event.code = code;
    event.a = a;
    event.b = b;
    event.v0 = v0;
    event.v1 = v1;
    event.v2 = v2;
    event.v3 = v3;
    event.dur_us = dur_us;
    event.flags = flags;
    events.push_back(event);
  };
  push(EventKind::kRunBegin, 0, 8, 100, 40, 4);
  push(EventKind::kPhaseBegin, static_cast<std::uint8_t>(PhaseId::kRandomSim), 0);
  push(EventKind::kClassCreated, static_cast<std::uint8_t>(PatternSource::kRandom),
       7, 0, 5);
  push(EventKind::kClassSplit, static_cast<std::uint8_t>(PatternSource::kRandom),
       7, 0, 2, 5);
  push(EventKind::kPatternBatch,
       static_cast<std::uint8_t>(PatternSource::kRandom), 0, 0, 1, 9, 20, 0, 15);
  push(EventKind::kPhaseEnd, static_cast<std::uint8_t>(PhaseId::kRandomSim), 0,
       0, 20, 9, 0, 0, 120);
  push(EventKind::kPhaseBegin, static_cast<std::uint8_t>(PhaseId::kSweep), 0);
  // Format-2 solver introspection around the (7, 9) call: fingerprint
  // before the solve, milestones and the rollup inside it, the kSatCall
  // after — the emission order the inspector's join relies on.
  push(EventKind::kConeFingerprint, /*arm=*/2, 7, 9, /*support=*/6,
       /*nodes=*/11, /*depth=*/4);
  push(EventKind::kSolverRestart, 0, 7, 9, /*ordinal=*/1, /*conflicts=*/2,
       /*learnt db=*/3);
  push(EventKind::kSolverReduce, 0, 7, 9, /*deleted=*/2, /*before=*/3,
       /*after=*/1);
  push(EventKind::kSolverSolveStats, 0, 7, 9, /*learnt=*/3, /*lbd sum=*/6,
       /*lbd max=*/3, /*restarts=*/1);
  push(EventKind::kSatCall, static_cast<std::uint8_t>(SatVerdict::kUnsat), 7, 9,
       3, 50, 12, obs::pack_cone_learned(11, 3), 40);
  push(EventKind::kCertified, 1, 7, 9, 6, 8, 90, 0, 10);
  push(EventKind::kClassMerged, 0, 7, 9);
  push(EventKind::kSatCall, static_cast<std::uint8_t>(SatVerdict::kSat), 7, 13,
       1, 10, 4, obs::pack_cone_learned(5, 1), 9);
  push(EventKind::kHeartbeat, 0, 12, 3, 4, 2, 1, 2, 1000);
  push(EventKind::kWatchdog, 1, 2);
  push(EventKind::kSatCall, static_cast<std::uint8_t>(SatVerdict::kUnsat), 3, 0,
       2, 30, 7, obs::pack_cone_learned(9, 2), 25, /*flags=*/1);
  push(EventKind::kPhaseEnd, static_cast<std::uint8_t>(PhaseId::kSweep), 0, 0,
       0, 1, 0, 0, 900);
  push(EventKind::kRunEnd, 1, 0, 0, 4);
  return events;
}

TEST(JournalFile, BinaryRoundTripIsExact) {
  const std::string path = temp_path("roundtrip.jrnl");
  const std::vector<JournalEvent> events = sample_events();
  ASSERT_TRUE(obs::write_journal_file(path, events));

  std::vector<JournalEvent> loaded;
  std::string error;
  bool truncated = true;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error, &truncated)) << error;
  EXPECT_FALSE(truncated);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(loaded[i], events[i]) << "event " << i;
}

TEST(JournalFile, JsonlRoundTripIsExact) {
  const std::string path = temp_path("roundtrip.jsonl");
  const std::vector<JournalEvent> events = sample_events();
  ASSERT_TRUE(obs::write_journal_file(path, events));

  // The ".jsonl" suffix selects the text format: a header object line, then
  // one JSON object per event.
  std::ifstream in(path);
  std::string first_line;
  ASSERT_TRUE(std::getline(in, first_line));
  EXPECT_NE(first_line.find("simgen_journal"), std::string::npos);

  std::vector<JournalEvent> loaded;
  std::string error;
  bool truncated = true;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error, &truncated)) << error;
  EXPECT_FALSE(truncated);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(loaded[i], events[i]) << "event " << i;
}

TEST(JournalFile, SchedulerKindsRoundTripThroughJsonl) {
  // The PR-7 scheduler/resource kinds must survive the text format: the
  // JSONL writer prints kind_name() and the reader maps the string back,
  // so an exact round trip proves "task_run", "worker_stats", and
  // "resource_sample" are all registered on both sides.
  std::vector<JournalEvent> events;
  const auto push = [&](EventKind kind, std::uint8_t code, std::uint64_t a,
                        std::uint64_t b, std::uint64_t v0, std::uint64_t v1,
                        std::uint32_t dur_us) {
    JournalEvent event;
    event.t_ns = (events.size() + 1) * 500;
    event.kind = kind;
    event.code = code;
    event.a = a;
    event.b = b;
    event.v0 = v0;
    event.v1 = v1;
    event.dur_us = dur_us;
    events.push_back(event);
  };
  push(EventKind::kTaskRun, 0, /*task=*/3, /*worker=*/1, /*round=*/2,
       /*payload=*/77, 1200);
  push(EventKind::kTaskRun, 1, 0, 0, 0, 5, 900);
  push(EventKind::kTaskRun, 2, 4, 2, 0, 4, 15000);
  push(EventKind::kWorkerStats, 0, /*worker=*/1, /*tasks=*/12,
       /*steal_attempts=*/9, /*steal_successes=*/4, /*lock blocks=*/2);
  push(EventKind::kResourceSample, 0, /*rss kb=*/81234, /*peak kb=*/90111,
       /*allocs=*/0, /*bytes=*/0, 0);

  const std::string path = temp_path("scheduler_kinds.jsonl");
  ASSERT_TRUE(obs::write_journal_file(path, events));
  std::vector<JournalEvent> loaded;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(loaded[i], events[i]) << "event " << i;
  EXPECT_STREQ(obs::kind_name(EventKind::kTaskRun), "task_run");
  EXPECT_STREQ(obs::kind_name(EventKind::kWorkerStats), "worker_stats");
  EXPECT_STREQ(obs::kind_name(EventKind::kResourceSample), "resource_sample");
}

TEST(JournalFile, SolverIntrospectionKindsRoundTripThroughJsonl) {
  // The format-2 solver-introspection kinds must survive the text format
  // exactly like the scheduler kinds: kind_name() on the way out, the
  // string registry on the way back in.
  std::vector<JournalEvent> events;
  const auto push = [&](EventKind kind, std::uint8_t code, std::uint64_t a,
                        std::uint64_t b, std::uint64_t v0, std::uint64_t v1,
                        std::uint64_t v2, std::uint64_t v3,
                        std::uint16_t flags) {
    JournalEvent event;
    event.t_ns = (events.size() + 1) * 500;
    event.kind = kind;
    event.code = code;
    event.a = a;
    event.b = b;
    event.v0 = v0;
    event.v1 = v1;
    event.v2 = v2;
    event.v3 = v3;
    event.flags = flags;
    events.push_back(event);
  };
  push(EventKind::kConeFingerprint, 1, 40, 77, 9, 31, 6, 0, 0);
  push(EventKind::kSolverRestart, 0, 40, 77, 1, 100, 64, 0, 0);
  push(EventKind::kSolverReduce, 0, 40, 77, 32, 64, 32, 0, 0);
  push(EventKind::kSolverBudget, 0, 40, 77, 1000, 1000, 0, 0, 0);
  push(EventKind::kSolverSolveStats, 0, 12, 0, 5, 14, 6, 2, /*flags=*/1);

  const std::string path = temp_path("introspection_kinds.jsonl");
  ASSERT_TRUE(obs::write_journal_file(path, events));
  std::vector<JournalEvent> loaded;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(loaded[i], events[i]) << "event " << i;
  EXPECT_STREQ(obs::kind_name(EventKind::kConeFingerprint),
               "cone_fingerprint");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverRestart), "solver_restart");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverReduce), "solver_reduce");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverBudget), "solver_budget");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverSolveStats),
               "solver_solve_stats");
}

TEST(JournalFile, RetiredInprocessKindStillReads) {
  // Kind 21 is no longer emitted, but journals recorded while it was must
  // still round-trip, validate, and report. The event sits inside the
  // sweep phase of a well-formed run, stamped between its neighbours so
  // the journal's time span is unchanged.
  const std::vector<JournalEvent> plain = sample_events();
  std::vector<JournalEvent> events = plain;
  const auto restart =
      std::find_if(events.begin(), events.end(), [](const JournalEvent& e) {
        return e.kind == EventKind::kSolverRestart;
      });
  ASSERT_NE(restart, events.end());
  JournalEvent retired;
  retired.t_ns = restart->t_ns + 500;
  retired.kind = EventKind::kSolverInprocess;
  retired.a = 7;
  retired.b = 9;
  retired.v0 = 4;
  retired.v1 = 2;
  retired.v2 = 1;
  retired.v3 = (std::uint64_t{3} << 32) | 5;
  retired.dur_us = 60;
  events.insert(restart + 1, retired);

  for (const char* name : {"retired_kind.jrnl", "retired_kind.jsonl"}) {
    SCOPED_TRACE(name);
    const std::string path = temp_path(name);
    ASSERT_TRUE(obs::write_journal_file(path, events));
    std::vector<JournalEvent> loaded;
    std::string error;
    ASSERT_TRUE(obs::read_journal_file(path, loaded, &error)) << error;
    ASSERT_EQ(loaded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
      EXPECT_EQ(loaded[i], events[i]) << "event " << i;
  }
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverInprocess),
               "solver_inprocess");

  std::string error;
  EXPECT_TRUE(obs::check_journal(events, &error)) << error;

  // The report counts the event in num_events and nowhere else: with
  // num_events aligned, every writer renders the same bytes as for the
  // journal without it.
  obs::JournalReport with = obs::build_report(events);
  const obs::JournalReport without = obs::build_report(plain);
  EXPECT_EQ(with.num_events, without.num_events + 1);
  with.num_events = without.num_events;
  const auto render = [](const obs::JournalReport& report) {
    std::ostringstream out;
    const obs::InspectOptions options;
    obs::write_text_report(out, report, options);
    obs::write_timeline(out, report, 0, options);
    obs::write_folded_stacks(out, report, options);
    obs::write_sat_report(out, report, options);
    obs::write_lanes(out, report, options);
    obs::write_html_report(out, report, options);
    return out.str();
  };
  EXPECT_EQ(render(with), render(without));
}

TEST(JournalFile, BinaryToleratesTruncatedTail) {
  const std::string path = temp_path("truncated.jrnl");
  const std::vector<JournalEvent> events = sample_events();
  ASSERT_TRUE(obs::write_journal_file(path, events));
  // Cut mid-record, as a killed run would: header + 2 events + 13 bytes.
  std::filesystem::resize_file(path, 32 + 2 * sizeof(JournalEvent) + 13);

  std::vector<JournalEvent> loaded;
  std::string error;
  bool truncated = false;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error, &truncated)) << error;
  EXPECT_TRUE(truncated);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], events[0]);
  EXPECT_EQ(loaded[1], events[1]);
}

TEST(JournalFile, JsonlToleratesUnterminatedTail) {
  const std::string path = temp_path("tail.jsonl");
  ASSERT_TRUE(obs::write_journal_file(path, sample_events()));
  // Drop the final newline and half the last line.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 25);

  std::vector<JournalEvent> loaded;
  std::string error;
  bool truncated = false;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error, &truncated)) << error;
  EXPECT_TRUE(truncated);
  EXPECT_EQ(loaded.size(), sample_events().size() - 1);
}

TEST(JournalFile, RejectsForeignBinary) {
  const std::string path = temp_path("garbage.jrnl");
  std::ofstream(path) << "this is not a journal at all, not even close";
  std::vector<JournalEvent> loaded;
  std::string error;
  EXPECT_FALSE(obs::read_journal_file(path, loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JournalFile, RejectsMalformedJsonlLine) {
  const std::string good = temp_path("good.jsonl");
  ASSERT_TRUE(obs::write_journal_file(good, sample_events()));
  std::string text;
  {
    std::ifstream in(good);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::string bad = temp_path("bad.jsonl");
  std::ofstream(bad) << text << "{\"kind\":\"sat_call\",,,}\n";
  std::vector<JournalEvent> loaded;
  std::string error;
  EXPECT_FALSE(obs::read_journal_file(bad, loaded, &error));
  EXPECT_NE(error.find("line"), std::string::npos);
}

/// Two cells' phases interleaved as a pooled bench run journals them
/// (guided begins, sweep begins, guided ends, sweep ends), optionally
/// followed by the cells' kTaskRun events.
std::vector<JournalEvent> interleaved_phases(bool with_pool_tasks) {
  std::vector<JournalEvent> events(4);
  events[0].kind = EventKind::kPhaseBegin;
  events[0].code = static_cast<std::uint8_t>(PhaseId::kGuidedSim);
  events[1].kind = EventKind::kPhaseBegin;
  events[1].code = static_cast<std::uint8_t>(PhaseId::kSweep);
  events[2].kind = EventKind::kPhaseEnd;
  events[2].code = static_cast<std::uint8_t>(PhaseId::kGuidedSim);
  events[3].kind = EventKind::kPhaseEnd;
  events[3].code = static_cast<std::uint8_t>(PhaseId::kSweep);
  if (with_pool_tasks) {
    for (std::uint64_t cell = 0; cell < 2; ++cell) {
      JournalEvent task;
      task.kind = EventKind::kTaskRun;
      task.code = 2;
      task.a = cell;
      task.b = cell;
      events.push_back(task);
    }
  }
  return events;
}

TEST(JournalCheck, AcceptsWellFormedSequences) {
  std::string error;
  EXPECT_TRUE(obs::check_journal(sample_events(), &error)) << error;
  EXPECT_TRUE(obs::check_journal({}, &error)) << error;
  // Concurrent bench cells interleave their phases.
  EXPECT_TRUE(obs::check_journal(interleaved_phases(true), &error)) << error;
}

TEST(JournalCheck, RejectsStructuralViolations) {
  std::string error;

  std::vector<JournalEvent> bad_kind(1);
  bad_kind[0].kind = static_cast<EventKind>(200);
  EXPECT_FALSE(obs::check_journal(bad_kind, &error));

  std::vector<JournalEvent> bad_nesting(1);
  bad_nesting[0].kind = EventKind::kPhaseEnd;
  bad_nesting[0].code = static_cast<std::uint8_t>(PhaseId::kSweep);
  EXPECT_FALSE(obs::check_journal(bad_nesting, &error));

  // Without pool tasks there is one writer, so phases must nest.
  EXPECT_FALSE(obs::check_journal(interleaved_phases(false), &error));
  // With them, a phase_end still needs an open phase of its own id.
  std::vector<JournalEvent> unmatched = interleaved_phases(true);
  unmatched[1].code = static_cast<std::uint8_t>(PhaseId::kRandomSim);
  EXPECT_FALSE(obs::check_journal(unmatched, &error));

  std::vector<JournalEvent> bad_verdict(1);
  bad_verdict[0].kind = EventKind::kSatCall;
  bad_verdict[0].code = 9;
  EXPECT_FALSE(obs::check_journal(bad_verdict, &error));
}

TEST(JournalCheck, RejectsUnattributedClassSplit) {
  // The attribution cross-check: every split must name the pattern
  // source that caused it. kNone means refine() ran outside a
  // PatternScope — the runtime counterpart of the simgen-pattern-scope
  // tidy check.
  std::string error;
  std::vector<JournalEvent> split(1);
  split[0].kind = EventKind::kClassSplit;
  split[0].code = static_cast<std::uint8_t>(PatternSource::kNone);
  EXPECT_FALSE(obs::check_journal(split, &error));
  EXPECT_NE(error.find("attribution"), std::string::npos) << error;

  split[0].code = static_cast<std::uint8_t>(PatternSource::kCounterexample);
  EXPECT_TRUE(obs::check_journal(split, &error)) << error;

  // kClassCreated keeps allowing kNone: initial classes exist before any
  // pattern has run.
  std::vector<JournalEvent> created(1);
  created[0].kind = EventKind::kClassCreated;
  created[0].code = static_cast<std::uint8_t>(PatternSource::kNone);
  EXPECT_TRUE(obs::check_journal(created, &error)) << error;
}

TEST(JournalCheck, RejectsMalformedSolverIntrospectionEvents) {
  // --check must catch truncated or corrupted format-2 events: each kind
  // carries invariants a correct emitter can never violate.
  std::string error;
  std::vector<JournalEvent> events(1);

  events[0].kind = EventKind::kSolverRestart;
  events[0].v0 = 0;  // Ordinals are 1-based.
  events[0].v1 = 5;
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("1-based"), std::string::npos) << error;
  events[0].v0 = 6;  // More restarts than conflicts is impossible.
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("exceeds conflict count"), std::string::npos) << error;
  events[0].v0 = 2;
  EXPECT_TRUE(obs::check_journal(events, &error)) << error;

  events[0] = JournalEvent{};
  events[0].kind = EventKind::kSolverReduce;
  events[0].v0 = 30;  // Deleted more clauses than the DB held.
  events[0].v1 = 20;
  events[0].v2 = 10;
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("deleted more clauses"), std::string::npos) << error;
  events[0].v0 = 5;
  events[0].v2 = 25;  // A reduction cannot grow the DB.
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("grew the learnt DB"), std::string::npos) << error;
  events[0].v2 = 15;
  EXPECT_TRUE(obs::check_journal(events, &error)) << error;

  events[0] = JournalEvent{};
  events[0].kind = EventKind::kSolverBudget;
  events[0].v0 = 0;  // A budget hit implies a nonzero limit.
  events[0].v1 = 10;
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("without a conflict limit"), std::string::npos)
      << error;
  events[0].v0 = 20;  // Giving up before the limit is not a budget hit.
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("before the conflict limit"), std::string::npos)
      << error;
  events[0].v1 = 20;
  EXPECT_TRUE(obs::check_journal(events, &error)) << error;

  events[0] = JournalEvent{};
  events[0].kind = EventKind::kSolverSolveStats;
  events[0].v0 = 4;  // Every LBD is >= 1, so the sum bounds the count.
  events[0].v1 = 2;
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("LBD sum below learnt count"), std::string::npos)
      << error;
  events[0].v1 = 10;
  events[0].v2 = 11;  // One clause's LBD cannot exceed the sum of all.
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("LBD max exceeds LBD sum"), std::string::npos)
      << error;
  events[0].v0 = 0;  // LBD fields on a solve that learned nothing.
  events[0].v1 = 5;
  events[0].v2 = 2;
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("without learnt clauses"), std::string::npos) << error;
  events[0].v1 = 0;
  events[0].v2 = 0;
  EXPECT_TRUE(obs::check_journal(events, &error)) << error;
}

TEST(JournalReportTest, AggregatesSampleSequence) {
  const obs::JournalReport report = obs::build_report(sample_events());
  EXPECT_EQ(report.num_events, sample_events().size());
  EXPECT_EQ(report.sat_calls, 3u);
  EXPECT_EQ(report.sat_unsat, 2u);
  EXPECT_EQ(report.sat_sat, 1u);
  EXPECT_EQ(report.output_proofs, 1u);
  EXPECT_EQ(report.conflicts, 3u + 1u + 2u);
  EXPECT_EQ(report.class_created, 1u);
  EXPECT_EQ(report.class_split, 1u);
  EXPECT_EQ(report.class_merged, 1u);
  EXPECT_EQ(report.pattern_batches, 1u);
  EXPECT_EQ(report.pattern_splits, 1u);
  EXPECT_EQ(report.certified_ok, 1u);
  EXPECT_EQ(report.certified_fail, 0u);
  EXPECT_EQ(report.heartbeats, 1u);
  EXPECT_EQ(report.watchdog_fires, 1u);

  // Class 7's lifecycle: created, split, one merge via UNSAT, one disproof.
  const auto it = report.classes.find(7);
  ASSERT_NE(it, report.classes.end());
  EXPECT_EQ(it->second.created_size, 5u);
  EXPECT_EQ(it->second.created_by, PatternSource::kRandom);
  EXPECT_EQ(it->second.splits, 1u);
  EXPECT_EQ(it->second.merges, 1u);
  EXPECT_EQ(it->second.sat_calls, 2u);
  EXPECT_EQ(it->second.disproofs, 1u);
  EXPECT_EQ(it->second.max_cone_vars, 11u);
  EXPECT_FALSE(it->second.timeline.empty());

  // Phase accounting: the sweep phase saw both in-sweep SAT calls.
  const auto& sweep_phase =
      report.phases[static_cast<std::size_t>(PhaseId::kSweep)];
  EXPECT_EQ(sweep_phase.enters, 1u);
  EXPECT_EQ(sweep_phase.total_us, 900u);
  EXPECT_FALSE(report.folded.empty());

  // Solver-introspection totals and the per-call join.
  EXPECT_EQ(report.cone_fingerprints, 1u);
  EXPECT_EQ(report.solver_restarts, 1u);
  EXPECT_EQ(report.solver_reduces, 1u);
  EXPECT_EQ(report.reduce_deleted, 2u);
  EXPECT_EQ(report.solver_solve_stats, 1u);
  EXPECT_EQ(report.lbd_count, 3u);
  EXPECT_EQ(report.lbd_sum, 6u);
  EXPECT_EQ(report.lbd_max, 3u);
  ASSERT_EQ(report.restart_timeline.size(), 1u);
  EXPECT_EQ(report.restart_timeline[0].a, 7u);
  EXPECT_EQ(report.restart_timeline[0].ordinal, 1u);
  const auto joined =
      std::find_if(report.calls.begin(), report.calls.end(),
                   [](const obs::SatCallRecord& call) {
                     return call.a == 7 && call.b == 9 && !call.output_proof;
                   });
  ASSERT_NE(joined, report.calls.end());
  EXPECT_TRUE(joined->has_fingerprint);
  EXPECT_EQ(joined->strategy_arm, 2u);
  EXPECT_EQ(joined->cone_support, 6u);
  EXPECT_EQ(joined->cone_nodes, 11u);
  EXPECT_EQ(joined->cone_depth, 4u);
  EXPECT_TRUE(joined->has_solve_stats);
  EXPECT_EQ(joined->restarts, 1u);
  EXPECT_EQ(joined->reduces, 1u);
  EXPECT_EQ(joined->lbd_sum, 6u);
  EXPECT_EQ(joined->lbd_max, 3u);
  // The third call (output proof, pair key (3, 0, flags=1)) saw no
  // introspection events and must not inherit the (7, 9) join.
  const auto untouched =
      std::find_if(report.calls.begin(), report.calls.end(),
                   [](const obs::SatCallRecord& call) {
                     return call.output_proof;
                   });
  ASSERT_NE(untouched, report.calls.end());
  EXPECT_FALSE(untouched->has_fingerprint);
  EXPECT_FALSE(untouched->has_solve_stats);

  // All writers accept the report without choking.
  std::ostringstream out;
  const obs::InspectOptions options;
  obs::write_text_report(out, report, options);
  obs::write_timeline(out, report, 0, options);
  obs::write_folded_stacks(out, report, options);
  obs::write_sat_report(out, report, options);
  obs::write_html_report(out, report, options);
  EXPECT_NE(out.str().find("pattern effectiveness"), std::string::npos);
  EXPECT_NE(out.str().find("SAT hardness"), std::string::npos);
  EXPECT_NE(out.str().find("<html"), std::string::npos);
}

#ifndef SIMGEN_NO_TELEMETRY

TEST(JournalWriter, LiveEmitRoundTrips) {
  const std::string path = temp_path("live.jrnl");
  ASSERT_FALSE(obs::journal_enabled());
  ASSERT_TRUE(obs::Journal::instance().open(path));
  EXPECT_TRUE(obs::journal_enabled());
  EXPECT_FALSE(obs::Journal::instance().open(temp_path("second.jrnl")))
      << "a second journal must be refused while one is open";

  const std::vector<JournalEvent> events = sample_events();
  for (const JournalEvent& event : events) obs::Journal::instance().emit(event);
  obs::Journal::instance().close();
  EXPECT_FALSE(obs::journal_enabled());

  std::vector<JournalEvent> loaded;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(loaded[i], events[i]) << "event " << i;
}

TEST(JournalWriter, EmitStampsMonotonicTimestamps) {
  const std::string path = temp_path("stamped.jrnl");
  ASSERT_TRUE(obs::Journal::instance().open(path));
  for (int i = 0; i < 100; ++i)
    obs::journal_emit(EventKind::kHeartbeat, 0, static_cast<std::uint64_t>(i));
  obs::Journal::instance().close();

  std::vector<JournalEvent> loaded;
  ASSERT_TRUE(obs::read_journal_file(path, loaded));
  ASSERT_EQ(loaded.size(), 100u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].a, i) << "single-thread emit order must be preserved";
    if (i > 0) {
      EXPECT_GE(loaded[i].t_ns, loaded[i - 1].t_ns);
    }
  }
}

/// Regression test for the epoch publication ordering in Journal::open.
/// emit() stamps t_ns against state.epoch, which open() writes just
/// before flipping `recording` to true; emitters must observe that write
/// via an acquire load of the flag. With the old relaxed load a thread
/// that raced open() could stamp against the stale (zero) epoch —
/// yielding a t_ns of the full steady_clock reading, hours not
/// microseconds — and TSan flags the unsynchronized epoch read. The
/// emitter threads here start before open() precisely to exercise that
/// window.
TEST(JournalWriter, ConcurrentEmitDuringOpenSeesFreshEpoch) {
  const std::string path = temp_path("race.jrnl");
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  emitters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    emitters.emplace_back([&stop, t] {
      while (!stop.load(std::memory_order_acquire))
        obs::journal_emit(EventKind::kHeartbeat, 0,
                          static_cast<std::uint64_t>(t));
    });
  }
  ASSERT_TRUE(obs::Journal::instance().open(path));
  // Let the emitters run against the open journal for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : emitters) thread.join();
  obs::Journal::instance().close();

  std::vector<JournalEvent> loaded;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error)) << error;
  EXPECT_FALSE(loaded.empty());
  // Every stamp must be measured from open(), not from the steady-clock
  // origin: anything over a minute means a stale epoch was used.
  for (const JournalEvent& event : loaded)
    EXPECT_LT(event.t_ns, 60ull * 1000 * 1000 * 1000);
}

/// The acceptance bar for the whole subsystem: a certified CEC run's
/// journal, replayed through build_report, must agree with the metrics
/// registry and the CecResult for the same run.
TEST(JournalIntegration, CertifiedCecTotalsMatchRegistry) {
  benchgen::CircuitSpec spec;
  spec.name = "journal_cec";
  spec.num_pis = 10;
  spec.num_pos = 5;
  spec.num_gates = 150;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network a = mapping::map_to_luts(graph);
  const net::Network b = aig::to_network(graph);

  const std::string path = temp_path("cec.jrnl");
  const obs::TelemetrySnapshot before = obs::capture_snapshot();
  ASSERT_TRUE(obs::Journal::instance().open(path));
  sweep::CecOptions options;
  options.certify = true;
  const sweep::CecResult result = sweep::check_equivalence(a, b, options);
  obs::Journal::instance().close();
  const obs::TelemetrySnapshot delta =
      obs::diff_snapshots(before, obs::capture_snapshot());
  ASSERT_TRUE(result.equivalent);

  std::vector<JournalEvent> events;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, events, &error)) << error;
  ASSERT_TRUE(obs::check_journal(events, &error)) << error;
  const obs::JournalReport report = obs::build_report(events);

  // Journal totals == registry counters for the same run.
  EXPECT_EQ(report.sat_calls, delta.counter_value("sat.solve_calls"));
  EXPECT_EQ(report.conflicts, delta.counter_value("sat.conflicts"));
  EXPECT_EQ(report.decisions, delta.counter_value("sat.decisions"));
  EXPECT_EQ(report.propagations, delta.counter_value("sat.propagations"));
  EXPECT_EQ(report.learned, delta.counter_value("sat.learned_clauses"));
  EXPECT_EQ(report.class_merged, delta.counter_value("sweep.proven"));
  EXPECT_EQ(report.sat_sat, delta.counter_value("sweep.disproven"));
  EXPECT_EQ(report.certified_ok, delta.counter_value("sweep.certified_unsat"));
  EXPECT_EQ(report.class_split, delta.counter_value("eq.splits"));
  EXPECT_EQ(report.pattern_splits, delta.counter_value("eq.splits"));

  // Format-2 solver introspection: every milestone the solvers counted
  // into the registry also reached the journal, and every solve carried
  // its fingerprint and rollup.
  EXPECT_EQ(report.solver_restarts, delta.counter_value("sat.restarts"));
  EXPECT_EQ(report.solver_reduces, delta.counter_value("sat.db_reductions"));
  EXPECT_EQ(report.lbd_count, delta.counter_value("sat.learned_clauses"))
      << "every learnt clause of a context-tagged solve records one LBD";
  EXPECT_EQ(report.cone_fingerprints, report.sat_calls)
      << "every SAT call is preceded by exactly one cone fingerprint";
  EXPECT_EQ(report.solver_solve_stats, report.sat_calls)
      << "every SAT call ends with exactly one solve-stats rollup";
  EXPECT_GT(report.lbd_sum, 0u);
  for (const obs::SatCallRecord& call : report.calls) {
    EXPECT_TRUE(call.has_fingerprint)
        << "call (" << call.a << ", " << call.b << ") missed its join";
    EXPECT_TRUE(call.has_solve_stats);
  }

  // Journal totals == the CecResult the caller saw.
  EXPECT_EQ(report.sat_calls,
            result.sweep_stats.sat_calls + result.output_sat_calls);
  EXPECT_EQ(report.output_proofs, result.outputs_proven);
  EXPECT_EQ(report.certified_ok,
            result.sweep_stats.certified_unsat + result.certified_outputs);
  EXPECT_EQ(report.certified_fail, 0u);

  // The run is bracketed and phase-attributed.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, EventKind::kRunBegin);
  EXPECT_GT(
      report.phases[static_cast<std::size_t>(PhaseId::kSweep)].enters, 0u);
  EXPECT_FALSE(report.folded.empty());
}

#if defined(__unix__)
/// SIGINT mid-run must leave valid journal/trace/metrics files: the child
/// raises SIGINT against itself while emitting, the watchdog flushes and
/// re-raises, and the parent validates everything the child left behind.
TEST(JournalWatchdog, SigintFlushLeavesValidFiles) {
  const std::string journal_path = temp_path("wd.jrnl");
  const std::string trace_path = temp_path("wd.trace.json");
  const std::string metrics_path = temp_path("wd.metrics.jsonl");
  std::remove(journal_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery from here on; _exit on any failure.
    alarm(30);
    obs::Tracer::instance().enable();
    if (!obs::Journal::instance().open(journal_path)) _exit(10);
    obs::set_exit_outputs(trace_path, metrics_path);
    obs::WatchdogOptions watchdog;
    if (!obs::start_watchdog(watchdog)) _exit(11);
    obs::sweep_progress().begin(1000, 100);
    obs::counter("watchdog_test.child_events").inc(5000);
    for (int i = 0; i < 5000; ++i)
      obs::journal_emit(EventKind::kHeartbeat, 0,
                        static_cast<std::uint64_t>(i));
    raise(SIGINT);
    // The handler only sets a flag; keep emitting until the watchdog
    // thread flushes and re-raises under the default disposition.
    for (std::uint64_t i = 0;; ++i)
      obs::journal_emit(EventKind::kHeartbeat, 0, i);
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child must die of the re-raised signal, not exit normally";
  EXPECT_EQ(WTERMSIG(status), SIGINT);

  // Journal: parseable (a truncated tail is fine) and structurally valid.
  std::vector<JournalEvent> events;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(journal_path, events, &error)) << error;
  EXPECT_TRUE(obs::check_journal(events, &error)) << error;
  const obs::JournalReport report = obs::build_report(events);
  EXPECT_GT(report.heartbeats, 0u);
  EXPECT_EQ(report.watchdog_fires, 1u);

  // Trace: the file must exist and be complete JSON (balanced braces).
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good()) << "trace file missing after SIGINT";
  std::stringstream trace_text;
  trace_text << trace.rdbuf();
  const std::string text = trace_text.str();
  EXPECT_NE(text.find("traceEvents"), std::string::npos);
  EXPECT_EQ(text.rfind("]}"), text.size() - 3) << "trace JSON not closed";

  // Metrics: every line is one complete JSON object.
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good()) << "metrics file missing after SIGINT";
  std::string line;
  std::size_t lines = 0;
  while (std::getline(metrics, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}
#endif  // __unix__

#else  // SIMGEN_NO_TELEMETRY

TEST(JournalWriter, CompiledOutWriterRefusesToOpen) {
  static_assert(!obs::journal_enabled());
  EXPECT_FALSE(obs::Journal::instance().open(temp_path("nt.jrnl")));
  // Emitting is a no-op, not a crash.
  obs::journal_emit(EventKind::kHeartbeat, 0, 1);
  EXPECT_EQ(obs::Journal::instance().events_written(), 0u);
}

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
