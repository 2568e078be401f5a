#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/logging.hpp"

namespace simgen::util {

unsigned resolve_num_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t, unsigned)>& fn) {
  const auto num_slots = static_cast<unsigned>(
      std::min<std::size_t>(resolve_num_threads(threads), count));
  std::atomic<std::size_t> next{0};
  // One slot per index, each written only by the thread that ran it and
  // read after the join.
  std::vector<std::exception_ptr> errors(count);
  {
    // Declared after everything the threads use, so on every exit path
    // (a failed spawn included) they join before it is destroyed.
    std::vector<std::jthread> workers;
    workers.reserve(num_slots);
    for (unsigned slot = 0; slot < num_slots; ++slot) {
      workers.emplace_back([&, slot] {
        set_thread_worker_index(static_cast<int>(slot));
        for (std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
             index < count;
             index = next.fetch_add(1, std::memory_order_relaxed)) {
          try {
            fn(index, slot);
          } catch (...) {
            errors[index] = std::current_exception();
          }
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace simgen::util
