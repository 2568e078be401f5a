/// \file thread_pool.hpp
/// \brief Work-stealing thread pool for bench cell sharding.
///
/// The bench drivers produce batches of independent cells (one
/// benchmark's flows each, see bench::for_each_cell); this pool runs
/// such a batch across a fixed set of worker threads and blocks the
/// caller until every task finished. Design constraints:
///
///  * Deterministic task identity: tasks are indices [0, n). The pool
///    guarantees nothing about *which* worker runs a task or in what
///    order — parallel callers must make each task a pure function of its
///    index and reduce the results in index order afterwards.
///  * Work stealing with per-worker deques guarded by plain mutexes. The
///    tasks this pool exists for are whole flows (milliseconds to
///    seconds), so queue overhead is noise; plain locks keep the pool
///    trivially ThreadSanitizer-clean.
///  * Exceptions propagate: if tasks throw, run_tasks rethrows the one
///    with the lowest task index on the calling thread, after all workers
///    have drained (so the failure surface is deterministic too).
///  * Scheduler profiling (per-worker task/steal/latency/contention
///    accumulators, see profile()) is compiled out entirely under
///    SIMGEN_NO_TELEMETRY: the counters, the clock reads, and the
///    snapshot API all vanish, leaving the seed pool byte-for-byte.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#ifndef SIMGEN_NO_TELEMETRY
#include <array>
#include <cstdint>
#endif

namespace simgen::util {

/// Resolves a --threads style request: 0 means "auto" (the hardware
/// concurrency, at least 1), anything else is taken literally.
[[nodiscard]] unsigned resolve_num_threads(unsigned requested) noexcept;

#ifndef SIMGEN_NO_TELEMETRY
/// Point-in-time snapshot of one worker's scheduler counters. All fields
/// accumulate over the pool's lifetime (across batches); the obs layer
/// diffs or rolls them up as needed. Latencies use the same log2
/// bucketing as obs::Histogram: bucket 0 holds the value 0, bucket
/// i >= 1 holds microsecond latencies in [2^(i-1), 2^i - 1].
struct WorkerProfile {
  static constexpr std::size_t kNumLatencyBuckets = 65;

  std::uint64_t tasks = 0;             ///< Tasks this worker executed.
  std::uint64_t steal_attempts = 0;    ///< Victim queues probed.
  std::uint64_t steal_successes = 0;   ///< Probes that yielded a task.
  std::uint64_t lock_acquires = 0;     ///< Queue-mutex acquisitions.
  std::uint64_t lock_blocks = 0;       ///< ... of which try_lock failed.
  std::uint64_t busy_ns = 0;           ///< Time inside task bodies.
  std::uint64_t idle_ns = 0;           ///< Time waiting or stealing.
  std::uint64_t queue_depth_samples = 0;  ///< Own-queue depth samples.
  std::uint64_t queue_depth_sum = 0;      ///< Sum over those samples.
  std::uint64_t max_queue_depth = 0;      ///< Largest depth observed.
  std::uint64_t task_us_sum = 0;          ///< Sum of task latencies (us).
  std::array<std::uint64_t, kNumLatencyBuckets> task_us_buckets{};
};

/// Snapshot of the whole pool: one WorkerProfile per worker plus the
/// batch count. Safe to take while batches are running (counters are
/// relaxed atomics underneath), so the watchdog can dump utilization
/// mid-sweep; a quiescent pool yields exact values.
struct PoolProfile {
  std::uint64_t batches = 0;
  std::vector<WorkerProfile> workers;

  /// Element-wise sum over workers (max for max_queue_depth).
  [[nodiscard]] WorkerProfile totals() const;
};
#endif  // SIMGEN_NO_TELEMETRY

/// Fixed-size pool of worker threads executing indexed task batches.
class ThreadPool {
 public:
  /// Spawns \p num_threads workers (0 = auto, see resolve_num_threads).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned num_threads() const noexcept;

  /// Runs fn(task_index, worker_index) for every task_index in
  /// [0, num_tasks), distributing the indices across the workers
  /// (block-cyclic seeding, then stealing). Blocks until all tasks are
  /// done. worker_index < num_threads() identifies the executing worker
  /// so callers can keep per-worker scratch (simulators, buffers) without
  /// locking. Rethrows the lowest-index task exception, if any.
  void run_tasks(std::size_t num_tasks,
                 const std::function<void(std::size_t, unsigned)>& fn);

#ifndef SIMGEN_NO_TELEMETRY
  /// Snapshots the per-worker scheduler counters. Callable at any time,
  /// including from other threads while a batch runs (relaxed reads of
  /// live accumulators — values may trail the workers slightly).
  [[nodiscard]] PoolProfile profile() const;

  /// Tasks of the current batch not yet finished (queued + in flight);
  /// 0 between batches. Readable asynchronously (heartbeats, watchdog).
  [[nodiscard]] std::size_t pending_tasks() const noexcept;

  /// Closes every worker's open idle interval — the tail since its last
  /// task ended (or since worker start, if it never ran one) — folding
  /// it into idle_ns as if the interval ended now. Without this, the
  /// trailing idle after a worker's final task is never accounted and
  /// utilization reads high for workers that finished early. Idempotent
  /// (settled time is never double-counted) and safe while a batch runs
  /// (a worker mid-task is left untouched), but meant to be called
  /// between batches, right before a final profile() snapshot.
  void settle_idle() const noexcept;
#endif

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace simgen::util
