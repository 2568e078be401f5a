/// \file parallel_for.hpp
/// \brief Index sharder for bench cells.
///
/// The bench drivers run independent cells (one benchmark's flows each,
/// see bench::for_each_cell). parallel_for hands the indices of one such
/// batch to a few threads in increasing order and joins them before it
/// returns. It guarantees nothing about *which* thread runs an index, so
/// callers make each call a pure function of its index and collect the
/// results by index afterwards.
#pragma once

#include <cstddef>
#include <functional>

namespace simgen::util {

/// Resolves a --threads style request: 0 means "auto" (the hardware
/// concurrency, at least 1), anything else is taken literally.
[[nodiscard]] unsigned resolve_num_threads(unsigned requested) noexcept;

/// Runs fn(index, slot) exactly once for every index in [0, count) on
/// min(resolve_num_threads(threads), count) threads, which take indices
/// from a shared counter, and returns after joining them. slot is the
/// calling thread's number, below that thread count, so callers can keep
/// per-thread scratch without locking; it is also the thread's log tag
/// (set_thread_worker_index). An index that throws does not stop the
/// others: once every index has run, the exception of the lowest
/// throwing index is rethrown, so the failure does not depend on the
/// schedule.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t, unsigned)>& fn);

}  // namespace simgen::util
