// Scheduler-profiling tests: the thread pool's per-worker accumulators,
// the obs-layer pool.* export (PoolProfileScope), the worker-lane
// inspector round trip, and the Histogram merge primitive backing the
// pool.task_us export. Everything except the inspector model is
// telemetry-only; under SIMGEN_NO_TELEMETRY the stub checks at the
// bottom run instead.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/inspect.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/pool_obs.hpp"
#include "util/thread_pool.hpp"

namespace simgen {
namespace {

obs::JournalEvent lane_event(obs::EventKind kind, std::uint8_t code,
                             std::uint64_t t_ns, std::uint64_t a,
                             std::uint64_t b, std::uint32_t dur_us) {
  obs::JournalEvent event;
  event.kind = kind;
  event.code = code;
  event.t_ns = t_ns;
  event.a = a;
  event.b = b;
  event.dur_us = dur_us;
  return event;
}

// ---------------------------------------------------------------------------
// Inspector lane model (compiled in every configuration: the inspector
// replays journals recorded elsewhere).

TEST(WorkerLanes, BuildReportAggregatesTaskRunsPerWorker) {
  std::vector<obs::JournalEvent> events;
  // Worker 0 runs tasks 0 and 2, worker 1 runs task 1; stamps are at
  // task *end*.
  events.push_back(lane_event(obs::EventKind::kTaskRun, 0, 2'000'000,
                              /*task=*/0, /*worker=*/0, /*dur_us=*/2000));
  events.push_back(lane_event(obs::EventKind::kTaskRun, 0, 3'000'000, 1, 1,
                              3000));
  events.push_back(lane_event(obs::EventKind::kTaskRun, 1, 4'000'000, 2, 0,
                              1000));
  obs::JournalEvent stats = lane_event(obs::EventKind::kWorkerStats, 0,
                                       4'100'000, /*worker=*/0, /*tasks=*/2,
                                       /*lock blocks=*/7);
  stats.v0 = 5;     // steal attempts
  stats.v1 = 3;     // steal successes
  stats.v2 = 3000;  // busy us
  stats.v3 = 1000;  // idle us
  events.push_back(stats);

  const obs::JournalReport report = obs::build_report(events);
  EXPECT_EQ(report.task_runs, 3u);
  EXPECT_EQ(report.worker_stats, 1u);
  ASSERT_EQ(report.lanes.size(), 2u);
  const obs::WorkerLane& lane0 = report.lanes.at(0);
  EXPECT_EQ(lane0.tasks_run, 2u);
  EXPECT_EQ(lane0.busy_us, 3000u);
  EXPECT_TRUE(lane0.has_stats);
  EXPECT_EQ(lane0.steal_attempts, 5u);
  EXPECT_EQ(lane0.steal_successes, 3u);
  EXPECT_EQ(lane0.lock_blocks, 7u);
  ASSERT_EQ(lane0.timeline.size(), 2u);
  EXPECT_EQ(lane0.timeline[0].dur_us, 2000u);
  const obs::WorkerLane& lane1 = report.lanes.at(1);
  EXPECT_EQ(lane1.tasks_run, 1u);
  EXPECT_FALSE(lane1.has_stats);
}

TEST(WorkerLanes, TextLanesParseBackToTheReport) {
  // The documented lane-line format is a contract: tooling greps the
  // summary fields back out. Render a synthetic report and re-parse it.
  std::vector<obs::JournalEvent> events;
  events.push_back(
      lane_event(obs::EventKind::kTaskRun, 0, 10'000'000, 0, 0, 9000));
  events.push_back(
      lane_event(obs::EventKind::kTaskRun, 0, 12'000'000, 1, 1, 4000));
  obs::JournalEvent stats =
      lane_event(obs::EventKind::kWorkerStats, 0, 12'100'000, 1, 1, 2);
  stats.v0 = 4;
  stats.v1 = 1;
  stats.v2 = 4000;
  stats.v3 = 8000;
  events.push_back(stats);
  const obs::JournalReport report = obs::build_report(events);

  std::ostringstream out;
  obs::write_lanes(out, report, obs::InspectOptions{});
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::size_t workers = 0;
  unsigned long long header_tasks = 0;
  ASSERT_EQ(std::sscanf(line.c_str(), "worker lanes: %zu workers, %llu tasks",
                        &workers, &header_tasks),
            2)
      << line;
  EXPECT_EQ(workers, report.lanes.size());
  EXPECT_EQ(header_tasks, report.task_runs);

  // The pooled task-latency percentile line (present whenever any lane
  // recorded a task) sits between the header and the lanes.
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("task latency: p50 ", 0), 0u) << line;
  EXPECT_NE(line.find("p90"), std::string::npos) << line;
  EXPECT_NE(line.find("p99"), std::string::npos) << line;

  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    unsigned long long worker = 0, tasks = 0, steals_ok = 0, steals_try = 0,
                       blocks = 0;
    double busy = 0.0;
    char cells[80] = {0};
    ASSERT_EQ(std::sscanf(line.c_str(),
                          " w%llu |%79[#.]| tasks %llu busy %lf%% steals "
                          "%llu/%llu lock-blocks %llu",
                          &worker, cells, &tasks, &busy, &steals_ok,
                          &steals_try, &blocks),
              7)
        << "unparseable lane line: " << line;
    ASSERT_EQ(std::string(cells).size(), 64u) << "lane is 64 cells wide";
    const auto lane = report.lanes.find(worker);
    ASSERT_NE(lane, report.lanes.end());
    EXPECT_EQ(tasks, lane->second.tasks_run);
    EXPECT_EQ(steals_ok, lane->second.steal_successes);
    EXPECT_EQ(steals_try, lane->second.steal_attempts);
    EXPECT_EQ(blocks, lane->second.lock_blocks);
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, 100.0);
    ++parsed;
  }
  EXPECT_EQ(parsed, report.lanes.size());
}

TEST(WorkerLanes, EmptyJournalSaysWhy) {
  const obs::JournalReport report = obs::build_report({});
  std::ostringstream out;
  obs::write_lanes(out, report, obs::InspectOptions{});
  EXPECT_NE(out.str().find("no task_run events"), std::string::npos);
}

TEST(WorkerLanes, CheckJournalRejectsOutOfRangeTaskKind) {
  std::vector<obs::JournalEvent> events;
  events.push_back(lane_event(obs::EventKind::kTaskRun, 3, 1000, 0, 0, 1));
  std::string error;
  EXPECT_FALSE(obs::check_journal(events, &error));
  EXPECT_NE(error.find("task_run"), std::string::npos) << error;
  events.front().code = 2;
  EXPECT_TRUE(obs::check_journal(events, &error)) << error;
}

TEST(Histogram, MergeFromFoldsExternalBuckets) {
  obs::Histogram histogram;
  histogram.observe(3);
  std::array<std::uint64_t, obs::Histogram::kNumBuckets> external{};
  external[obs::Histogram::bucket_of(5)] = 2;
  histogram.merge_from(external.data(), external.size(), /*count=*/2,
                       /*sum=*/10);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(), 13u);
  EXPECT_EQ(histogram.buckets()[obs::Histogram::bucket_of(3)], 1u);
  EXPECT_EQ(histogram.buckets()[obs::Histogram::bucket_of(5)], 2u);
}

#ifndef SIMGEN_NO_TELEMETRY

// ---------------------------------------------------------------------------
// ThreadPool profiling (the util-layer accumulators).

TEST(PoolProfile, CountsEveryTaskAcrossBatches) {
  util::ThreadPool pool(4);
  for (int batch = 0; batch < 5; ++batch)
    pool.run_tasks(40, [](std::size_t, unsigned) {});
  const util::PoolProfile profile = pool.profile();
  EXPECT_EQ(profile.batches, 5u);
  ASSERT_EQ(profile.workers.size(), 4u);
  const util::WorkerProfile totals = profile.totals();
  EXPECT_EQ(totals.tasks, 200u);
  EXPECT_EQ(pool.pending_tasks(), 0u);
  EXPECT_GT(totals.lock_acquires, 0u);
  EXPECT_GE(totals.steal_attempts, totals.steal_successes);
  // Every own-queue pop samples that queue's depth.
  EXPECT_GT(totals.queue_depth_samples, 0u);
  EXPECT_GE(totals.queue_depth_sum, totals.queue_depth_samples);
  EXPECT_GE(totals.max_queue_depth, 1u);
  // Each executed task lands in exactly one latency bucket.
  std::uint64_t bucketed = 0;
  for (const std::uint64_t bucket : totals.task_us_buckets) bucketed += bucket;
  EXPECT_EQ(bucketed, totals.tasks);
}

TEST(PoolProfile, BusyTimeCoversTheTaskBodies) {
  util::ThreadPool pool(2);
  pool.run_tasks(8, [](std::size_t, unsigned) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  const util::WorkerProfile totals = pool.profile().totals();
  EXPECT_GE(totals.busy_ns, 8ull * 2'000'000) << "8 tasks x 2ms sleeps";
  EXPECT_GE(totals.task_us_sum, 8ull * 2'000);
}

TEST(PoolProfile, SettleIdleClosesTheTrailingIdleTail) {
  util::ThreadPool pool(2);
  pool.run_tasks(8, [](std::size_t, unsigned) {});
  const util::WorkerProfile before = pool.profile().totals();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pool.settle_idle();
  const util::WorkerProfile after = pool.profile().totals();
  // Both workers sat through the sleep; settle_idle() folds that tail
  // into idle_ns (the DESIGN.md section 13 trailing-idle caveat).
  EXPECT_GE(after.idle_ns - before.idle_ns, 2ull * 15'000'000)
      << "two workers x at least half of a 30ms sleep each";
  EXPECT_EQ(after.busy_ns, before.busy_ns)
      << "settling idle must never touch busy time";
  EXPECT_EQ(after.tasks, before.tasks);
  // Idempotent: an immediate second settle adds (nearly) nothing.
  pool.settle_idle();
  const util::WorkerProfile again = pool.profile().totals();
  EXPECT_LT(again.idle_ns - after.idle_ns, 10'000'000u);
}

TEST(PoolProfile, PendingTasksIsVisibleMidBatch) {
  util::ThreadPool pool(2);
  const obs::PoolProfileScope scope(pool);
  std::atomic<std::uint64_t> max_depth{0};
  pool.run_tasks(64, [&](std::size_t, unsigned) {
    // The running task itself is still pending, so from inside a task
    // the registered pool's live depth is always at least 1.
    const std::uint64_t depth = obs::current_pool_queue_depth();
    std::uint64_t seen = max_depth.load(std::memory_order_relaxed);
    while (depth > seen && !max_depth.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  });
  EXPECT_GE(max_depth.load(), 1u);
  EXPECT_EQ(pool.pending_tasks(), 0u) << "drained after the batch barrier";
}

// ---------------------------------------------------------------------------
// obs-layer export.

TEST(PoolProfile, ScopeExportsPoolMetricsAtExit) {
  const std::uint64_t tasks_before = obs::counter("pool.tasks").value();
  const std::uint64_t batches_before = obs::counter("pool.batches").value();
  const std::uint64_t latency_before = obs::histogram("pool.task_us").count();
  {
    util::ThreadPool pool(3);
    const obs::PoolProfileScope scope(pool);
    pool.run_tasks(30, [](std::size_t, unsigned) {});
  }
  EXPECT_EQ(obs::counter("pool.tasks").value(), tasks_before + 30);
  EXPECT_EQ(obs::counter("pool.batches").value(), batches_before + 1);
  EXPECT_EQ(obs::histogram("pool.task_us").count(), latency_before + 30);
  EXPECT_EQ(obs::gauge_value("pool.workers"), 3.0);
  const double utilization = obs::gauge_value("pool.utilization");
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}

TEST(PoolProfile, ScopeEmitsOneWorkerStatsEventPerWorker) {
  const std::string path = ::testing::TempDir() + "/pool_profile.jrnl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::Journal::instance().open(path));
  {
    util::ThreadPool pool(3);
    const obs::PoolProfileScope scope(pool);
    // One kTaskRun per task, stamped at task end by the worker that ran
    // it, as bench::for_each_cell journals its cells (code 2).
    pool.run_tasks(12, [](std::size_t index, unsigned worker) {
      obs::journal_emit(obs::EventKind::kTaskRun, 2, index, worker,
                        /*round=*/0, index);
    });
  }
  obs::Journal::instance().close();

  std::vector<obs::JournalEvent> events;
  std::string error;
  ASSERT_TRUE(obs::read_journal_file(path, events, &error)) << error;
  std::size_t worker_stats = 0;
  std::uint64_t tasks = 0;
  for (const obs::JournalEvent& event : events) {
    if (event.kind != obs::EventKind::kWorkerStats) continue;
    ++worker_stats;
    tasks += event.b;
    EXPECT_LT(event.a, 3u) << "worker index in range";
  }
  EXPECT_EQ(worker_stats, 3u);
  EXPECT_EQ(tasks, 12u) << "per-worker task counts sum to the batch";

  const obs::JournalReport report = obs::build_report(events);
  EXPECT_EQ(report.worker_stats, 3u);
  EXPECT_EQ(report.task_runs, 12u) << "one kTaskRun per task";
  std::uint64_t lane_tasks = 0;
  for (const auto& [worker, lane] : report.lanes) {
    EXPECT_LT(worker, 3u);
    EXPECT_TRUE(lane.has_stats);
    EXPECT_EQ(lane.tasks_run, lane.stats_tasks)
        << "worker " << worker << ": journaled tasks match its rollup";
    lane_tasks += lane.tasks_run;
  }
  EXPECT_EQ(lane_tasks, report.task_runs)
      << "every task run must land on exactly one worker lane";
  std::remove(path.c_str());
}

TEST(PoolProfile, InnerScopeOfNestedPoolsStillExports) {
  const std::uint64_t tasks_before = obs::counter("pool.tasks").value();
  util::ThreadPool outer(2);
  const obs::PoolProfileScope outer_scope(outer);
  {
    util::ThreadPool inner(2);
    const obs::PoolProfileScope inner_scope(inner);
    inner.run_tasks(5, [](std::size_t, unsigned) {});
    // The outer pool stays the registered one for live-depth queries.
    EXPECT_EQ(obs::current_pool_queue_depth(), 0u);
  }
  EXPECT_EQ(obs::counter("pool.tasks").value(), tasks_before + 5);
}

#else  // SIMGEN_NO_TELEMETRY

TEST(PoolProfileStubs, CompileToInertNoOps) {
  util::ThreadPool pool(2);
  const obs::PoolProfileScope scope(pool);
  pool.run_tasks(4, [](std::size_t, unsigned) {});
  EXPECT_EQ(obs::current_pool_queue_depth(), 0u);
  obs::export_pool_profile(pool);  // No-op; pool.* stays absent.
}

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
}  // namespace simgen
