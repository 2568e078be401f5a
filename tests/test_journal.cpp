/// \file test_journal.cpp
/// \brief Sweep journal: binary round trips, the JSONL export, the live
/// writer and its write-error tracking, structural validation, report
/// aggregation against the metrics registry and the CecResult, and the
/// watchdog's flush-on-signal guarantee.
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

/// Writes \p events through a binary file, checks they read back
/// exactly, and returns the lines of their JSONL export (header first).
std::vector<std::string> binary_round_trip_and_export(
    const std::string& stem, const std::vector<JournalEvent>& events) {
  const std::string path = temp_path(stem + ".jrnl");
  EXPECT_TRUE(obs::write_journal_file(path, events));
  std::vector<JournalEvent> loaded;
  std::string error;
  EXPECT_TRUE(obs::read_journal_file(path, loaded, &error)) << error;
  EXPECT_EQ(loaded, events);

  const std::string export_path = temp_path(stem + ".jsonl");
  EXPECT_TRUE(obs::write_journal_file(export_path, events));
  std::ifstream in(export_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// True if \p line is the export of an event of \p kind.
bool exports_kind(const std::string& line, EventKind kind) {
  return line.starts_with(std::string("{\"kind\":\"") + obs::kind_name(kind) +
                          "\",");
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

TEST(JournalFile, JsonlExportWritesOneObjectPerEvent) {
  const std::vector<JournalEvent> events = sample_events();
  const std::vector<std::string> lines =
      binary_round_trip_and_export("export", events);
  // The ".jsonl" suffix selects the export: a header object line, then
  // one JSON object per event, in order, with every field.
  ASSERT_EQ(lines.size(), events.size() + 1);
  EXPECT_EQ(lines[0], "{\"simgen_journal\":4,\"event_size\":64}");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JournalEvent& e = events[i];
    const std::string expected =
        std::string("{\"kind\":\"") + obs::kind_name(e.kind) +
        "\",\"t_ns\":" + std::to_string(e.t_ns) +
        ",\"code\":" + std::to_string(e.code) +
        ",\"a\":" + std::to_string(e.a) + ",\"b\":" + std::to_string(e.b) +
        ",\"v0\":" + std::to_string(e.v0) + ",\"v1\":" + std::to_string(e.v1) +
        ",\"v2\":" + std::to_string(e.v2) + ",\"v3\":" + std::to_string(e.v3) +
        ",\"dur_us\":" + std::to_string(e.dur_us) +
        ",\"flags\":" + std::to_string(e.flags) + "}";
    EXPECT_EQ(lines[i + 1], expected) << "event " << i;
  }

  // The export is for scripts: the reader takes only the binary journal.
  std::vector<JournalEvent> loaded;
  std::string error;
  EXPECT_FALSE(obs::read_journal_file(temp_path("export.jsonl"), loaded, &error));
  EXPECT_NE(error.find("JSONL export"), std::string::npos) << error;
}

TEST(JournalFile, SchedulerKindsRoundTripThroughBinary) {
  // The scheduler and resource kinds must survive the binary file
  // exactly, and the export must name each of them: "task_run",
  // "worker_stats", and "resource_sample".
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

  const std::vector<std::string> lines =
      binary_round_trip_and_export("scheduler_kinds", events);
  ASSERT_EQ(lines.size(), events.size() + 1);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_TRUE(exports_kind(lines[i + 1], events[i].kind)) << lines[i + 1];
  EXPECT_STREQ(obs::kind_name(EventKind::kTaskRun), "task_run");
  EXPECT_STREQ(obs::kind_name(EventKind::kWorkerStats), "worker_stats");
  EXPECT_STREQ(obs::kind_name(EventKind::kResourceSample), "resource_sample");
  // The report counts every task_run as one bench cell, whatever its code.
  EXPECT_EQ(obs::build_report(events).task_runs, 3u);
}

TEST(JournalFile, SolverIntrospectionKindsRoundTripThroughBinary) {
  // The format-2 solver-introspection kinds and the format-4 guided
  // iteration must survive the binary file exactly like the scheduler
  // kinds, and the export must name each of them.
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
  push(EventKind::kGuidedIteration, /*arm=*/4, /*iteration=*/3,
       /*generated=*/17, /*cost after=*/212, /*skipped=*/40,
       /*implications=*/9000, /*conflicts=*/61, 0);

  const std::vector<std::string> lines =
      binary_round_trip_and_export("introspection_kinds", events);
  ASSERT_EQ(lines.size(), events.size() + 1);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_TRUE(exports_kind(lines[i + 1], events[i].kind)) << lines[i + 1];
  EXPECT_STREQ(obs::kind_name(EventKind::kConeFingerprint),
               "cone_fingerprint");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverRestart), "solver_restart");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverReduce), "solver_reduce");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverBudget), "solver_budget");
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverSolveStats),
               "solver_solve_stats");
  EXPECT_STREQ(obs::kind_name(EventKind::kGuidedIteration),
               "guided_iteration");
}

TEST(JournalFile, RetiredInprocessKindStillReads) {
  // Kinds 14 (the former thread pool's worker rollup) and 21 (the former
  // inprocessing layer) are no longer emitted, but journals recorded
  // while they were must still round-trip, validate, and report. The
  // event sits inside the sweep phase of a well-formed run, stamped
  // between its neighbours so the journal's time span is unchanged.
  const std::vector<JournalEvent> plain = sample_events();
  const auto render = [](const obs::JournalReport& report) {
    std::ostringstream out;
    const obs::InspectOptions options;
    obs::write_text_report(out, report, options);
    obs::write_timeline(out, report, 0, options);
    obs::write_sat_report(out, report, options);
    return out.str();
  };
  for (const EventKind kind :
       {EventKind::kWorkerStats, EventKind::kSolverInprocess}) {
    SCOPED_TRACE(obs::kind_name(kind));
    std::vector<JournalEvent> events = plain;
    const auto restart =
        std::find_if(events.begin(), events.end(), [](const JournalEvent& e) {
          return e.kind == EventKind::kSolverRestart;
        });
    ASSERT_NE(restart, events.end());
    JournalEvent retired;
    retired.t_ns = restart->t_ns + 500;
    retired.kind = kind;
    retired.a = 7;
    retired.b = 9;
    retired.v0 = 4;
    retired.v1 = 2;
    retired.v2 = 1;
    retired.v3 = (std::uint64_t{3} << 32) | 5;
    retired.dur_us = 60;
    events.insert(restart + 1, retired);

    const std::vector<std::string> lines =
        binary_round_trip_and_export("retired_kind", events);
    EXPECT_EQ(std::count_if(lines.begin(), lines.end(),
                            [&](const std::string& line) {
                              return exports_kind(line, kind);
                            }),
              1);

    std::string error;
    EXPECT_TRUE(obs::check_journal(events, &error)) << error;

    // The report counts the event in num_events and nowhere else: with
    // num_events aligned, every writer renders the same bytes as for the
    // journal without it.
    obs::JournalReport with = obs::build_report(events);
    const obs::JournalReport without = obs::build_report(plain);
    EXPECT_EQ(with.num_events, without.num_events + 1);
    with.num_events = without.num_events;
    EXPECT_EQ(render(with), render(without));
  }
  EXPECT_STREQ(obs::kind_name(EventKind::kSolverInprocess),
               "solver_inprocess");
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

TEST(JournalFile, RejectsForeignBinary) {
  const std::string path = temp_path("garbage.jrnl");
  std::ofstream(path) << "this is not a journal at all, not even close";
  std::vector<JournalEvent> loaded;
  std::string error;
  EXPECT_FALSE(obs::read_journal_file(path, loaded, &error));
  EXPECT_FALSE(error.empty());
}

/// Two cells' phases interleaved as a sharded bench run journals them
/// (guided begins, sweep begins, guided ends, sweep ends), optionally
/// followed by the cells' kTaskRun events.
std::vector<JournalEvent> interleaved_phases(bool with_cell_events) {
  std::vector<JournalEvent> events(4);
  events[0].kind = EventKind::kPhaseBegin;
  events[0].code = static_cast<std::uint8_t>(PhaseId::kGuidedSim);
  events[1].kind = EventKind::kPhaseBegin;
  events[1].code = static_cast<std::uint8_t>(PhaseId::kSweep);
  events[2].kind = EventKind::kPhaseEnd;
  events[2].code = static_cast<std::uint8_t>(PhaseId::kGuidedSim);
  events[3].kind = EventKind::kPhaseEnd;
  events[3].code = static_cast<std::uint8_t>(PhaseId::kSweep);
  if (with_cell_events) {
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

  // Without bench cell events there is one writer, so phases must nest.
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

TEST(JournalCheck, RejectsOutOfRangeTaskRunCode) {
  // task_run codes 0-2 are valid (2 = bench cell); 3 is out of range.
  std::string error;
  std::vector<JournalEvent> bad_task(1);
  bad_task[0].kind = EventKind::kTaskRun;
  bad_task[0].code = 3;
  EXPECT_FALSE(obs::check_journal(bad_task, &error));
  EXPECT_NE(error.find("task_run"), std::string::npos) << error;
  bad_task[0].code = 2;
  EXPECT_TRUE(obs::check_journal(bad_task, &error)) << error;
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
  obs::write_sat_report(out, report, options);
  EXPECT_NE(out.str().find("pattern effectiveness"), std::string::npos);
  EXPECT_NE(out.str().find("SAT hardness"), std::string::npos);
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

TEST(JournalWriter, RemembersWriteErrors) {
  // Every write to /dev/full fails with ENOSPC once stdio flushes its
  // buffer: the journal must remember it, so the CLI can report an
  // incomplete file instead of "journal written".
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::Journal& journal = obs::Journal::instance();
  ASSERT_TRUE(journal.open("/dev/full"));
  for (std::uint64_t i = 0; i < 1000; ++i)  // 64 kB, past any stdio buffer
    obs::journal_emit(EventKind::kHeartbeat, 0, i);
  journal.close();
  EXPECT_TRUE(journal.failed());
  EXPECT_FALSE(obs::write_journal_file("/dev/full", sample_events()));

  // The next open starts clean.
  ASSERT_TRUE(journal.open(temp_path("after_full.jrnl")));
  EXPECT_FALSE(journal.failed());
  journal.close();
  EXPECT_FALSE(journal.failed());
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

/// Concurrent emitters share one locked writer: no event is lost or torn,
/// and each thread's events reach the file in its own emit order.
TEST(JournalWriter, ConcurrentEmittersLoseNoEvent) {
  const std::string path = temp_path("concurrent.jrnl");
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  ASSERT_TRUE(obs::Journal::instance().open(path));
  std::vector<std::thread> emitters;
  emitters.reserve(kThreads);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    emitters.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        obs::journal_emit(EventKind::kHeartbeat, 0, /*a=*/t, /*b=*/i);
    });
  }
  for (std::thread& thread : emitters) thread.join();
  EXPECT_EQ(obs::Journal::instance().events_written(), kThreads * kPerThread);
  obs::Journal::instance().close();

  std::vector<JournalEvent> loaded;
  std::string error;
  bool truncated = true;
  ASSERT_TRUE(obs::read_journal_file(path, loaded, &error, &truncated)) << error;
  EXPECT_FALSE(truncated);
  ASSERT_EQ(loaded.size(), kThreads * kPerThread);
  std::vector<std::uint64_t> next(kThreads, 0);
  for (const JournalEvent& event : loaded) {
    ASSERT_EQ(event.kind, EventKind::kHeartbeat);
    ASSERT_LT(event.a, kThreads);
    ASSERT_EQ(event.b, next[event.a]) << "thread " << event.a << " out of order";
    ++next[event.a];
  }
}

/// The acceptance bar for the whole subsystem: a certified CEC run's
/// journal, replayed through build_report, must agree with the metrics
/// registry's solver counters and with the CecResult for the same run.
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
  EXPECT_EQ(report.class_merged, result.sweep_stats.proven_equivalent);
  EXPECT_EQ(report.sat_sat, result.sweep_stats.disproven);
  EXPECT_EQ(report.output_proofs, result.outputs_proven);
  EXPECT_EQ(report.certified_ok,
            result.sweep_stats.certified_unsat + result.certified_outputs);
  EXPECT_EQ(report.certified_fail, 0u);

  // The run is bracketed and phase-attributed: run_end comes after the
  // phase_end of the output proofs it returns from.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, EventKind::kRunBegin);
  EXPECT_EQ(events.back().kind, EventKind::kRunEnd);
  EXPECT_GT(
      report.phases[static_cast<std::size_t>(PhaseId::kSweep)].enters, 0u);
}

#if defined(__unix__)
/// SIGINT mid-run must leave valid journal/metrics files: the child
/// raises SIGINT against itself while emitting, the watchdog flushes and
/// re-raises, and the parent validates everything the child left behind.
TEST(JournalWatchdog, SigintFlushLeavesValidFiles) {
  const std::string journal_path = temp_path("wd.jrnl");
  const std::string metrics_path = temp_path("wd.metrics.jsonl");
  std::remove(journal_path.c_str());
  std::remove(metrics_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery from here on; _exit on any failure.
    alarm(30);
    if (!obs::Journal::instance().open(journal_path)) _exit(10);
    obs::set_exit_outputs(metrics_path);
    if (!obs::start_watchdog(0.0)) _exit(11);
    obs::SweepCounts counts;
    counts.live_nodes = 1000;
    counts.classes_live = 100;
    obs::sweep_progress().begin(counts);
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
