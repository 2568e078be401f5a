#include "obs/journal.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/mutex.hpp"

namespace simgen::obs {

namespace {

constexpr char kMagic[8] = {'S', 'G', 'J', 'R', 'N', 'L', '0', '1'};
/// Version history: 1 = original event set (kinds 0..15); 2 = solver
/// introspection kinds (kSolverRestart/kSolverReduce/kSolverBudget/
/// kConeFingerprint/kSolverSolveStats); 3 = kind 21 (kSolverInprocess,
/// since retired: still read, no longer written); 4 = kind 22
/// (kGuidedIteration). The event layout is unchanged, so the reader
/// accepts every version from 1 up to this.
constexpr std::uint32_t kFormatVersion = 4;

/// 32-byte binary file header; everything after it is raw little-endian
/// JournalEvent records.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t event_size;
  std::uint64_t reserved0;
  std::uint64_t reserved1;
};
static_assert(sizeof(FileHeader) == 32);

void write_binary_header(std::FILE* file) {
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kFormatVersion;
  header.event_size = sizeof(JournalEvent);
  std::fwrite(&header, sizeof header, 1, file);
}

/// Flushes and closes \p file; false if any write to it failed (stdio's
/// error indicator remembers a failed fwrite or fflush) or the close did.
bool finish_file(std::FILE* file) {
  const bool ok = std::fflush(file) == 0 && std::ferror(file) == 0;
  return std::fclose(file) == 0 && ok;
}

}  // namespace

const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kNone: return "none";
    case EventKind::kRunBegin: return "run_begin";
    case EventKind::kRunEnd: return "run_end";
    case EventKind::kPhaseBegin: return "phase_begin";
    case EventKind::kPhaseEnd: return "phase_end";
    case EventKind::kClassCreated: return "class_created";
    case EventKind::kClassSplit: return "class_split";
    case EventKind::kClassMerged: return "class_merged";
    case EventKind::kSatCall: return "sat_call";
    case EventKind::kPatternBatch: return "pattern_batch";
    case EventKind::kCertified: return "certified";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kWatchdog: return "watchdog";
    case EventKind::kTaskRun: return "task_run";
    case EventKind::kWorkerStats: return "worker_stats";
    case EventKind::kResourceSample: return "resource_sample";
    case EventKind::kSolverRestart: return "solver_restart";
    case EventKind::kSolverReduce: return "solver_reduce";
    case EventKind::kSolverBudget: return "solver_budget";
    case EventKind::kConeFingerprint: return "cone_fingerprint";
    case EventKind::kSolverSolveStats: return "solver_solve_stats";
    case EventKind::kSolverInprocess: return "solver_inprocess";
    case EventKind::kGuidedIteration: return "guided_iteration";
  }
  return "?";
}

const char* source_name(PatternSource source) noexcept {
  switch (source) {
    case PatternSource::kNone: return "none";
    case PatternSource::kRandom: return "random";
    case PatternSource::kSimGen: return "simgen";
    case PatternSource::kRevS: return "revs";
    case PatternSource::kCounterexample: return "cex";
  }
  return "?";
}

const char* phase_name(PhaseId phase) noexcept {
  switch (phase) {
    case PhaseId::kNone: return "none";
    case PhaseId::kRandomSim: return "random_sim";
    case PhaseId::kGuidedSim: return "guided_sim";
    case PhaseId::kSweep: return "sweep";
    case PhaseId::kOutputProofs: return "output_proofs";
    case PhaseId::kReduce: return "reduce";
  }
  return "?";
}

const char* verdict_name(SatVerdict verdict) noexcept {
  switch (verdict) {
    case SatVerdict::kSat: return "sat";
    case SatVerdict::kUnsat: return "unsat";
    case SatVerdict::kUnknown: return "unknown";
  }
  return "?";
}

#ifndef SIMGEN_NO_TELEMETRY

namespace {

/// Process-wide writer state. Leaked, like the metrics registry, so
/// emits from static-storage destructors stay safe.
struct JournalState {
  /// True while recording. The release store in open() is the publication
  /// point for `epoch`; every reader that dereferences epoch-derived state
  /// must load this with acquire (see now_ns/emit).
  std::atomic<bool> recording{false};

  /// Serializes open/close and every event write, so one thread's events
  /// reach the file in its emit order and different threads' events
  /// interleave in lock order.
  util::Mutex mutex;
  std::FILE* file SIMGEN_GUARDED_BY(mutex) = nullptr;
  std::uint64_t written SIMGEN_GUARDED_BY(mutex) = 0;
  /// A write, flush or close of the last closed file failed; reset by
  /// open().
  bool failed SIMGEN_GUARDED_BY(mutex) = false;
  /// Written in open() before recording goes true (its release store
  /// publishes the value); read lock-free afterwards. Not guarded: the
  /// recording flag's acquire/release pair is the synchronization.
  std::chrono::steady_clock::time_point epoch{};

  static JournalState& get() {
    static JournalState* state = new JournalState();
    return *state;
  }
};

}  // namespace

bool journal_enabled() noexcept {
  return JournalState::get().recording.load(std::memory_order_relaxed);
}

Journal& Journal::instance() {
  static Journal* journal = new Journal();
  return *journal;
}

bool Journal::open(const std::string& path) {
  JournalState& state = JournalState::get();
  const util::LockGuard lock(state.mutex);
  if (state.file != nullptr) return false;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  write_binary_header(file);
  state.file = file;
  state.failed = false;
  state.written = 0;
  state.epoch = std::chrono::steady_clock::now();
  state.recording.store(true, std::memory_order_release);
  return true;
}

void Journal::close() {
  JournalState& state = JournalState::get();
  const util::LockGuard lock(state.mutex);
  if (state.file == nullptr) return;
  state.recording.store(false, std::memory_order_release);
  state.failed = !finish_file(state.file);
  state.file = nullptr;
}

bool Journal::failed() const noexcept {
  JournalState& state = JournalState::get();
  const util::LockGuard lock(state.mutex);
  return state.failed;
}

void Journal::flush() {
  JournalState& state = JournalState::get();
  const util::LockGuard lock(state.mutex);
  if (state.file != nullptr) std::fflush(state.file);
}

bool Journal::is_open() const noexcept {
  return JournalState::get().recording.load(std::memory_order_acquire);
}

std::uint64_t Journal::now_ns() const noexcept {
  JournalState& state = JournalState::get();
  // Acquire pairs with the release store in open(): seeing recording ==
  // true guarantees the epoch written just before is visible. A relaxed
  // load here could read a stale epoch on a thread that never took the
  // journal lock (first emit after another thread opened the journal).
  if (!state.recording.load(std::memory_order_acquire)) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state.epoch)
          .count());
}

std::uint64_t Journal::events_written() const noexcept {
  JournalState& state = JournalState::get();
  const util::LockGuard lock(state.mutex);
  return state.written;
}

void Journal::emit(JournalEvent event) {
  JournalState& state = JournalState::get();
  // Acquire for the same epoch-publication reason as now_ns(): the t_ns
  // stamp below computes against state.epoch.
  if (!state.recording.load(std::memory_order_acquire)) return;
  if (event.t_ns == 0) event.t_ns = now_ns();
  const util::LockGuard lock(state.mutex);
  if (state.file == nullptr) return;  // close() ran since the check above.
  std::fwrite(&event, sizeof event, 1, state.file);
  ++state.written;
}

// ---------------------------------------------------------------------------
// PatternScope (telemetry build)

namespace {
// Innermost active scope of this thread; refine results land in its
// accumulators.
thread_local PatternScope* t_pattern_scope = nullptr;
}  // namespace

PatternScope::PatternScope(PatternSource source, std::uint32_t patterns,
                           std::uint8_t strategy_code) noexcept {
  if (!journal_enabled()) return;
  active_ = true;
  source_ = source;
  patterns_ = patterns;
  strategy_code_ = strategy_code;
  start_ns_ = Journal::instance().now_ns();
  prev_ = t_pattern_scope;
  t_pattern_scope = this;
}

PatternScope::~PatternScope() {
  if (!active_) return;
  t_pattern_scope = prev_;
  if (!refined_ || !journal_enabled()) return;
  const std::uint64_t end_ns = Journal::instance().now_ns();
  JournalEvent event;
  event.kind = EventKind::kPatternBatch;
  event.code = static_cast<std::uint8_t>(source_);
  event.a = patterns_;
  event.b = 1;  // Always 1: once the batch width in words (DESIGN.md §8).
  event.v0 = splits_;
  event.v1 = classes_live_;
  event.v2 = cost_;
  event.dur_us = saturate_us(static_cast<double>(end_ns - start_ns_) * 1e-9);
  event.flags = strategy_code_;
  event.t_ns = end_ns;
  Journal::instance().emit(event);
}

void PatternScope::record_refine(std::uint64_t splits,
                                 std::uint64_t classes_live,
                                 std::uint64_t cost) noexcept {
  PatternScope* scope = t_pattern_scope;
  if (scope == nullptr) return;
  scope->refined_ = true;
  scope->splits_ += splits;
  scope->classes_live_ = classes_live;
  scope->cost_ = cost;
}

PatternSource PatternScope::current_source() noexcept {
  const PatternScope* scope = t_pattern_scope;
  return scope == nullptr ? PatternSource::kNone : scope->source_;
}

#else  // SIMGEN_NO_TELEMETRY: the writer compiles to nothing.

Journal& Journal::instance() {
  static Journal* journal = new Journal();
  return *journal;
}

bool Journal::open(const std::string&) { return false; }
void Journal::close() {}
bool Journal::failed() const noexcept { return false; }
void Journal::flush() {}
bool Journal::is_open() const noexcept { return false; }
std::uint64_t Journal::now_ns() const noexcept { return 0; }
std::uint64_t Journal::events_written() const noexcept { return 0; }
void Journal::emit(JournalEvent) {}

PatternScope::PatternScope(PatternSource, std::uint32_t, std::uint8_t) noexcept {}
PatternScope::~PatternScope() = default;
void PatternScope::record_refine(std::uint64_t, std::uint64_t,
                                 std::uint64_t) noexcept {}
PatternSource PatternScope::current_source() noexcept {
  return PatternSource::kNone;
}

#endif  // SIMGEN_NO_TELEMETRY

// ---------------------------------------------------------------------------
// Reader / standalone writer (available in every build)

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool read_journal_file(const std::string& path, std::vector<JournalEvent>& out,
                       std::string* error, bool* truncated) {
  out.clear();
  if (truncated != nullptr) *truncated = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();
  if (data.empty()) return fail(error, "empty file");

  if (data.size() >= sizeof kMagic &&
      std::memcmp(data.data(), kMagic, sizeof kMagic) == 0) {
    if (data.size() < sizeof(FileHeader))
      return fail(error, "truncated header");
    FileHeader header{};
    std::memcpy(&header, data.data(), sizeof header);
    if (header.version < 1 || header.version > kFormatVersion)
      return fail(error, "unsupported journal version " +
                             std::to_string(header.version));
    if (header.event_size != sizeof(JournalEvent))
      return fail(error, "unexpected event size " +
                             std::to_string(header.event_size));
    const std::size_t payload = data.size() - sizeof(FileHeader);
    const std::size_t count = payload / sizeof(JournalEvent);
    if (payload % sizeof(JournalEvent) != 0 && truncated != nullptr)
      *truncated = true;
    out.resize(count);
    if (count > 0)
      std::memcpy(out.data(), data.data() + sizeof(FileHeader),
                  count * sizeof(JournalEvent));
    return true;
  }

  if (data[0] == '{')
    return fail(error, "a JSONL export, not a binary journal");
  return fail(error, "not a simgen journal (bad magic)");
}

bool write_journal_file(const std::string& path,
                        const std::vector<JournalEvent>& events) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  if (path.ends_with(".jsonl")) {
    // The JSON-Lines export: a header object, then one object per event
    // with the kind by name and every other field as in JournalEvent.
    std::fprintf(file, "{\"simgen_journal\":%u,\"event_size\":%zu}\n",
                 kFormatVersion, sizeof(JournalEvent));
    for (const JournalEvent& event : events)
      std::fprintf(file,
                   "{\"kind\":\"%s\",\"t_ns\":%" PRIu64 ",\"code\":%u,\"a\":%" PRIu64
                   ",\"b\":%" PRIu64 ",\"v0\":%" PRIu64 ",\"v1\":%" PRIu64
                   ",\"v2\":%" PRIu64 ",\"v3\":%" PRIu64
                   ",\"dur_us\":%u,\"flags\":%u}\n",
                   kind_name(event.kind), event.t_ns, event.code, event.a,
                   event.b, event.v0, event.v1, event.v2, event.v3,
                   event.dur_us, event.flags);
  } else {
    write_binary_header(file);
    for (const JournalEvent& event : events)
      std::fwrite(&event, sizeof event, 1, file);
  }
  return finish_file(file);
}

}  // namespace simgen::obs
