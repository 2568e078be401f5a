#include "obs/journal.hpp"

#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>

#include "util/mutex.hpp"

namespace simgen::obs {

namespace {

constexpr char kMagic[8] = {'S', 'G', 'J', 'R', 'N', 'L', '0', '1'};
/// Version history: 1 = original event set (kinds 0..15); 2 = solver
/// introspection kinds (kSolverRestart/kSolverReduce/kSolverBudget/
/// kConeFingerprint/kSolverSolveStats); 3 = kind 21 (kSolverInprocess,
/// since retired: still read, no longer written). The event layout is
/// unchanged, so the reader accepts every version from 1 up to this.
constexpr std::uint32_t kFormatVersion = 3;

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

bool path_is_jsonl(const std::string& path, JournalFormat format) {
  if (format == JournalFormat::kJsonl) return true;
  if (format == JournalFormat::kBinary) return false;
  const std::string_view suffix = ".jsonl";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void write_binary_header(std::FILE* file) {
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kFormatVersion;
  header.event_size = sizeof(JournalEvent);
  std::fwrite(&header, sizeof header, 1, file);
}

void write_jsonl_header(std::FILE* file) {
  std::fprintf(file, "{\"simgen_journal\":%u,\"event_size\":%zu}\n",
               kFormatVersion, sizeof(JournalEvent));
}

void write_event_binary(std::FILE* file, const JournalEvent& event) {
  std::fwrite(&event, sizeof event, 1, file);
}

void write_event_jsonl(std::FILE* file, const JournalEvent& event) {
  std::fprintf(file,
               "{\"kind\":\"%s\",\"t_ns\":%" PRIu64 ",\"code\":%u,\"a\":%" PRIu64
               ",\"b\":%" PRIu64 ",\"v0\":%" PRIu64 ",\"v1\":%" PRIu64
               ",\"v2\":%" PRIu64 ",\"v3\":%" PRIu64
               ",\"dur_us\":%u,\"flags\":%u}\n",
               kind_name(event.kind), event.t_ns, event.code, event.a, event.b,
               event.v0, event.v1, event.v2, event.v3, event.dur_us,
               event.flags);
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

/// Per-thread single-producer ring. The owning thread is the only writer
/// of `head` and the ring slots below it; consumers (the drain thread, or
/// a producer draining its own full ring) serialize on the sink mutex and
/// are the only writers of `tail`.
struct ThreadBuffer {
  static constexpr std::size_t kCapacity = 1 << 13;  // 8192 events, 512 KiB
  static constexpr std::uint64_t kMask = kCapacity - 1;

  std::vector<JournalEvent> ring = std::vector<JournalEvent>(kCapacity);
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<bool> retired{false};
};

/// Process-wide writer state. Leaked, like the metrics registry, so
/// emits from static-storage destructors stay safe.
struct JournalState {
  /// True while recording. The release store in open() is the publication
  /// point for `epoch`; every reader that dereferences epoch-derived state
  /// must load this with acquire (see now_ns/emit).
  std::atomic<bool> recording{false};

  util::Mutex lifecycle_mutex;  ///< Serializes open/close.
  util::Mutex sink_mutex;       ///< Guards the file and all consumer sides.
  std::FILE* file SIMGEN_GUARDED_BY(sink_mutex) = nullptr;
  bool jsonl SIMGEN_GUARDED_BY(sink_mutex) = false;
  std::atomic<std::uint64_t> written{0};
  /// Written in open() before recording goes true (its release store
  /// publishes the value); read lock-free afterwards. Not guarded: the
  /// recording flag's acquire/release pair is the synchronization.
  std::chrono::steady_clock::time_point epoch{};

  util::Mutex buffers_mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers
      SIMGEN_GUARDED_BY(buffers_mutex);

  std::thread drain_thread SIMGEN_GUARDED_BY(lifecycle_mutex);
  std::atomic<bool> stop_drain{false};

  static JournalState& get() {
    static JournalState* state = new JournalState();
    return *state;
  }

  /// Moves every pending event to the file.
  void drain_locked() SIMGEN_REQUIRES(sink_mutex) {
    if (file == nullptr) return;
    std::vector<std::shared_ptr<ThreadBuffer>> snapshot;
    {
      const util::LockGuard lock(buffers_mutex);
      snapshot = buffers;
    }
    for (const auto& buffer : snapshot) {
      const std::uint64_t head = buffer->head.load(std::memory_order_acquire);
      std::uint64_t tail = buffer->tail.load(std::memory_order_relaxed);
      std::uint64_t count = 0;
      while (tail != head) {
        const JournalEvent& event = buffer->ring[tail & ThreadBuffer::kMask];
        if (jsonl)
          write_event_jsonl(file, event);
        else
          write_event_binary(file, event);
        ++tail;
        ++count;
      }
      buffer->tail.store(tail, std::memory_order_release);
      written.fetch_add(count, std::memory_order_relaxed);
    }
    // Retired (thread-exited) buffers that are fully drained can go.
    const util::LockGuard lock(buffers_mutex);
    std::erase_if(buffers, [](const std::shared_ptr<ThreadBuffer>& buffer) {
      return buffer->retired.load(std::memory_order_acquire) &&
             buffer->head.load(std::memory_order_acquire) ==
                 buffer->tail.load(std::memory_order_acquire);
    });
  }
};

/// Registers this thread's ring on first use; marks it retired (for lazy
/// removal after the final drain) at thread exit.
struct ThreadBufferHolder {
  std::shared_ptr<ThreadBuffer> buffer = std::make_shared<ThreadBuffer>();
  ThreadBufferHolder() {
    JournalState& state = JournalState::get();
    const util::LockGuard lock(state.buffers_mutex);
    state.buffers.push_back(buffer);
  }
  ~ThreadBufferHolder() { buffer->retired.store(true, std::memory_order_release); }
};

ThreadBuffer& local_buffer() {
  thread_local ThreadBufferHolder holder;
  return *holder.buffer;
}

void drain_loop() {
  JournalState& state = JournalState::get();
  while (!state.stop_drain.load(std::memory_order_acquire)) {
    {
      const util::LockGuard lock(state.sink_mutex);
      state.drain_locked();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

bool journal_enabled() noexcept {
  return JournalState::get().recording.load(std::memory_order_relaxed);
}

Journal& Journal::instance() {
  static Journal* journal = new Journal();
  return *journal;
}

bool Journal::open(const std::string& path, JournalFormat format) {
  JournalState& state = JournalState::get();
  const util::LockGuard lifecycle(state.lifecycle_mutex);
  {
    const util::LockGuard lock(state.sink_mutex);
    if (state.file != nullptr) return false;
  }
  const bool jsonl = path_is_jsonl(path, format);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  if (jsonl)
    write_jsonl_header(file);
  else
    write_binary_header(file);
  {
    const util::LockGuard lock(state.sink_mutex);
    state.file = file;
    state.jsonl = jsonl;
    state.written.store(0, std::memory_order_relaxed);
    state.epoch = std::chrono::steady_clock::now();
  }
  state.stop_drain.store(false, std::memory_order_release);
  state.drain_thread = std::thread(drain_loop);
  state.recording.store(true, std::memory_order_release);
  return true;
}

void Journal::close() {
  JournalState& state = JournalState::get();
  const util::LockGuard lifecycle(state.lifecycle_mutex);
  {
    const util::LockGuard lock(state.sink_mutex);
    if (state.file == nullptr) return;
  }
  state.recording.store(false, std::memory_order_release);
  state.stop_drain.store(true, std::memory_order_release);
  if (state.drain_thread.joinable()) state.drain_thread.join();
  const util::LockGuard lock(state.sink_mutex);
  state.drain_locked();
  std::fclose(state.file);
  state.file = nullptr;
}

void Journal::flush() {
  JournalState& state = JournalState::get();
  const util::LockGuard lock(state.sink_mutex);
  if (state.file == nullptr) return;
  state.drain_locked();
  std::fflush(state.file);
}

bool Journal::is_open() const noexcept {
  return JournalState::get().recording.load(std::memory_order_acquire);
}

std::uint64_t Journal::now_ns() const noexcept {
  JournalState& state = JournalState::get();
  // Acquire pairs with the release store in open(): seeing recording ==
  // true guarantees the epoch written just before is visible. A relaxed
  // load here could read a stale epoch on a thread that never took a
  // journal lock (first emit after another thread opened the journal).
  if (!state.recording.load(std::memory_order_acquire)) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state.epoch)
          .count());
}

std::uint64_t Journal::events_written() const noexcept {
  return JournalState::get().written.load(std::memory_order_relaxed);
}

void Journal::emit(JournalEvent event) {
  JournalState& state = JournalState::get();
  // Acquire for the same epoch-publication reason as now_ns(): the t_ns
  // stamp below computes against state.epoch.
  if (!state.recording.load(std::memory_order_acquire)) return;
  if (event.t_ns == 0) event.t_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  const std::uint64_t head = buffer.head.load(std::memory_order_relaxed);
  if (head - buffer.tail.load(std::memory_order_acquire) >=
      ThreadBuffer::kCapacity) {
    // Ring full: the drain thread fell behind. Drain synchronously (cold
    // path); afterwards the ring is empty again.
    const util::LockGuard lock(state.sink_mutex);
    state.drain_locked();
  }
  buffer.ring[head & ThreadBuffer::kMask] = event;
  buffer.head.store(head + 1, std::memory_order_release);
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
  event.b = width_words_;
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
                                 std::uint64_t cost,
                                 std::uint64_t width_words) noexcept {
  PatternScope* scope = t_pattern_scope;
  if (scope == nullptr) return;
  scope->refined_ = true;
  scope->splits_ += splits;
  scope->classes_live_ = classes_live;
  scope->cost_ = cost;
  if (width_words > scope->width_words_) scope->width_words_ = width_words;
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

bool Journal::open(const std::string&, JournalFormat) { return false; }
void Journal::close() {}
void Journal::flush() {}
bool Journal::is_open() const noexcept { return false; }
std::uint64_t Journal::now_ns() const noexcept { return 0; }
std::uint64_t Journal::events_written() const noexcept { return 0; }
void Journal::emit(JournalEvent) {}

PatternScope::PatternScope(PatternSource, std::uint32_t, std::uint8_t) noexcept {}
PatternScope::~PatternScope() = default;
void PatternScope::record_refine(std::uint64_t, std::uint64_t, std::uint64_t,
                                 std::uint64_t) noexcept {}
PatternSource PatternScope::current_source() noexcept {
  return PatternSource::kNone;
}

#endif  // SIMGEN_NO_TELEMETRY

// ---------------------------------------------------------------------------
// Reader / standalone writer (available in every build)

namespace {

EventKind kind_from_name(std::string_view name) {
  for (std::uint8_t k = 0;
       k <= static_cast<std::uint8_t>(EventKind::kSolverInprocess); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == kind_name(kind)) return kind;
  }
  return EventKind::kNone;
}

/// Minimal parser for the journal's own JSONL lines: a flat object of
/// string/number values. Strict enough to catch truncation/corruption.
class LineParser {
 public:
  explicit LineParser(std::string_view text) : text_(text) {}

  bool parse(JournalEvent& event, bool& is_header) {
    skip_ws();
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;  // empty object
    while (true) {
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (key == "simgen_journal") is_header = true;
      if (peek() == '"') {
        std::string value;
        if (!parse_string(value)) return false;
        if (key == "kind") event.kind = kind_from_name(value);
      } else {
        std::uint64_t value = 0;
        if (!parse_number(value)) return false;
        assign(event, key, value);
      }
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) break;
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  static void assign(JournalEvent& event, const std::string& key,
                     std::uint64_t value) {
    if (key == "t_ns") event.t_ns = value;
    else if (key == "code") event.code = static_cast<std::uint8_t>(value);
    else if (key == "a") event.a = value;
    else if (key == "b") event.b = value;
    else if (key == "v0") event.v0 = value;
    else if (key == "v1") event.v1 = value;
    else if (key == "v2") event.v2 = value;
    else if (key == "v3") event.v3 = value;
    else if (key == "dur_us") event.dur_us = static_cast<std::uint32_t>(value);
    else if (key == "flags") event.flags = static_cast<std::uint16_t>(value);
    // Unknown numeric keys are tolerated (forward compatibility).
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }
  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out += text_[pos_++];
    }
    return consume('"');
  }
  bool parse_number(std::uint64_t& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0))
      ++pos_;
    if (pos_ == start) return false;
    out = std::strtoull(std::string(text_.substr(start, pos_ - start)).c_str(),
                        nullptr, 10);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

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

  if (data[0] == '{') {
    std::size_t line_no = 0;
    std::size_t begin = 0;
    while (begin < data.size()) {
      std::size_t end = data.find('\n', begin);
      const bool has_newline = end != std::string::npos;
      if (!has_newline) end = data.size();
      const std::string_view line(data.data() + begin, end - begin);
      begin = end + 1;
      ++line_no;
      if (line.empty() ||
          line.find_first_not_of(" \t\r") == std::string_view::npos)
        continue;
      JournalEvent event;
      bool is_header = false;
      LineParser parser(line);
      if (!parser.parse(event, is_header)) {
        // An unterminated final line is an interrupted write, not
        // corruption: report truncation and keep what parsed. A
        // newline-terminated line was fully written, so a parse failure
        // there is corruption no matter where it sits.
        if (!has_newline) {
          if (truncated != nullptr) *truncated = true;
          return true;
        }
        return fail(error, "malformed JSONL at line " + std::to_string(line_no));
      }
      if (!is_header) out.push_back(event);
    }
    return true;
  }
  return fail(error, "not a simgen journal (bad magic)");
}

bool write_journal_file(const std::string& path,
                        const std::vector<JournalEvent>& events,
                        JournalFormat format) {
  const bool jsonl = path_is_jsonl(path, format);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  if (jsonl)
    write_jsonl_header(file);
  else
    write_binary_header(file);
  for (const JournalEvent& event : events) {
    if (jsonl)
      write_event_jsonl(file, event);
    else
      write_event_binary(file, event);
  }
  const bool ok = std::fflush(file) == 0 && std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

}  // namespace simgen::obs
