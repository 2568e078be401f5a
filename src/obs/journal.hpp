/// \file journal.hpp
/// \brief Decision-level sweep journal: an append-only event log of every
/// sweeping decision, with a post-mortem reader.
///
/// The metrics registry (metrics.hpp) answers "how much happened"; the
/// journal answers "where and when". Every class created / split /
/// merged, every SAT call (target pair, verdict, solver cost deltas),
/// every simulated pattern batch (with its SimGen / random / RevS / CEX
/// attribution), every guided-simulation iteration, every DRAT
/// certification outcome, and periodic progress heartbeats are recorded
/// as fixed-size 64-byte events, so a slow or stuck CEC run can be
/// replayed offline (`tools/sweep_inspect`) down to the individual merge
/// candidate that ate the time. The journal is the one timed record of a
/// run: `sweep_inspect --chrome-trace` renders its phases, SAT calls and
/// iterations as a Perfetto timeline.
///
/// Design constraints:
///  * The hot path is allocation-free: an event is a trivially-copyable
///    64-byte struct that the emitting thread writes, under one mutex,
///    straight into the file's stdio buffer. When the journal is closed
///    (the default), emitting costs one acquire atomic load (free on x86;
///    the acquire publishes the epoch, see journal.cpp).
///  * One on-disk format: a 32-byte file header, then the raw
///    little-endian event records. `sweep_inspect --rewrite FILE.jsonl`
///    exports a journal as JSON Lines for scripts; nothing reads that
///    export back.
///  * With -DSIMGEN_NO_TELEMETRY=ON the writer compiles to nothing
///    (`journal_enabled()` is constexpr false and `Journal::open` refuses)
///    while the reader and the inspector stay available, so
///    `sweep_inspect` can still replay journals written elsewhere.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace simgen::obs {

// ---------------------------------------------------------------------------
// Event model

enum class EventKind : std::uint8_t {
  kNone = 0,
  kRunBegin = 1,      ///< a=PIs, b=nodes, v0=LUTs, v1=POs.
  kRunEnd = 2,        ///< code=outcome (0 not-eq, 1 eq, 2 undecided),
                      ///< v0=outputs proven, v1=unresolved outputs
                      ///< (nonzero only for outcome 2).
  kPhaseBegin = 3,    ///< code=PhaseId.
  kPhaseEnd = 4,      ///< code=PhaseId, v0=cost after, v1=classes live, dur_us.
  kClassCreated = 5,  ///< a=representative, code=PatternSource, v0=size.
  kClassSplit = 6,    ///< a=parent rep, code=PatternSource, v0=surviving
                      ///< buckets, v1=parent size.
  kClassMerged = 7,   ///< a=representative, b=node merged into it (UNSAT).
  kSatCall = 8,       ///< a,b=target pair (b unused for output proofs),
                      ///< code=SatVerdict, v0=conflicts, v1=propagations,
                      ///< v2=decisions, v3=(cone_vars<<32)|learned, dur_us,
                      ///< flags bit0 = output proof.
  kPatternBatch = 9,  ///< a=guided patterns in batch, b=always 1 (once
                      ///< the batch width in words), code=PatternSource,
                      ///< v0=classes split, v1=classes live after, v2=cost
                      ///< after, dur_us=simulate+refine time,
                      ///< flags=strategy.
  kCertified = 10,    ///< a,b=target pair, code=1 ok / 0 fail, v0=checked
                      ///< lemmas, v1=RUP checks, v2=checker propagations,
                      ///< dur_us, flags bit0 = output proof.
  kHeartbeat = 11,    ///< a=live nodes, b=resolved nodes, v0=classes live,
                      ///< v1=proved, v2=disproved, v3=SAT calls,
                      ///< dur_us=elapsed in sweep (saturating).
  kWatchdog = 12,     ///< code=1 signal / 2 timeout, a=signal number.
  kTaskRun = 13,      ///< One bench cell run on a sharding thread
                      ///< (bench::for_each_cell), stamped at its end:
                      ///< code=2, a=cell index, b=thread slot, v0=0,
                      ///< v1=cell index, dur_us=cell wall time. Codes 0
                      ///< (sweep pair) and 1 (output proof) came from the
                      ///< removed parallel sweep engine and stay valid in
                      ///< recorded journals. check_journal lets the phases
                      ///< of concurrent cells interleave only in a journal
                      ///< that holds these (or kWorkerStats) events.
  kWorkerStats = 14,  ///< Retired: the former thread pool's per-worker
                      ///< rollup at teardown (a=worker index, b=tasks
                      ///< run, v0/v1=steal attempts/successes, v2/v3=busy/
                      ///< idle us, dur_us=lock blocks). Nothing emits it
                      ///< any more; the reader and check_journal still
                      ///< accept it, and build_report counts it only in
                      ///< num_events.
  kResourceSample = 15,  ///< a=current RSS kB, b=peak RSS kB. v0/v1
                         ///< (once an allocation count and bytes) are
                         ///< always 0.
  // --- Solver introspection (format version >= 2) -----------------------
  // The next three kinds are milestone events emitted from *inside* a
  // SAT solve, tagged with the same (a, b, flags bit0) key as the
  // kSatCall that brackets them, so the inspector can attribute restart
  // and clause-DB behavior to the cone being solved.
  kSolverRestart = 16,  ///< One solver restart: a,b=target pair, v0=restart
                        ///< ordinal within this solve (1-based),
                        ///< v1=conflicts so far this solve, v2=learnt DB
                        ///< size, flags bit0 = output proof.
  kSolverReduce = 17,   ///< One learnt-clause DB reduction: a,b=target
                        ///< pair, v0=clauses deleted, v1=DB size before,
                        ///< v2=DB size after, flags bit0 = output proof.
  kSolverBudget = 18,   ///< Conflict budget exhausted (verdict kUnknown):
                        ///< a,b=target pair, v0=conflict limit,
                        ///< v1=conflicts this solve, flags bit0 = output
                        ///< proof.
  kConeFingerprint = 19,  ///< Structural fingerprint of a solved cone,
                          ///< joined to its kSatCall by (a, b, flags
                          ///< bit0): a,b=target pair, code=strategy arm
                          ///< (core::Strategy), v0=cone support (PI
                          ///< count), v1=cone node count, v2=cone depth
                          ///< (max level), flags bit0 = output proof.
  kSolverSolveStats = 20,  ///< Per-solve learnt-quality rollup, emitted at
                           ///< the end of every context-tagged solve and
                           ///< joined like the milestones: a,b=target pair,
                           ///< v0=learnt clauses this solve, v1=LBD sum,
                           ///< v2=LBD max, v3=restarts this solve, flags
                           ///< bit0 = output proof.
  // --- Retired (format version 3) ---------------------------------------
  kSolverInprocess = 21,  ///< Retired: one run of the solver's former
                          ///< inprocessing layer. Nothing emits it any
                          ///< more; the reader and check_journal still
                          ///< accept it so format-3 journals recorded
                          ///< while it existed keep reading, and
                          ///< build_report counts it only in num_events.
  // --- Guided-phase rollup (format version >= 4) -------------------------
  kGuidedIteration = 22,  ///< One guided-simulation iteration that ran,
                          ///< stamped at its end: a=iteration, b=vectors
                          ///< generated, code=strategy arm (core::Strategy),
                          ///< v0=cost after, v1=vectors skipped,
                          ///< v2=implications (0 under RevS), v3=conflicts,
                          ///< dur_us=iteration wall time. build_report
                          ///< counts it only in num_events: its batches
                          ///< are attributed through kPatternBatch.
};

/// Verdict codes for kSatCall (mirrors sat::Result's meaning without
/// depending on the sat layer: obs sits below it).
enum class SatVerdict : std::uint8_t { kSat = 0, kUnsat = 1, kUnknown = 2 };

/// Attribution of a simulated pattern batch (and of the class splits it
/// caused) to the generator that produced the patterns.
enum class PatternSource : std::uint8_t {
  kNone = 0,
  kRandom = 1,          ///< Plain random simulation.
  kSimGen = 2,          ///< Guided SimGen arms (flags carries the arm).
  kRevS = 3,            ///< Reverse-simulation baseline.
  kCounterexample = 4,  ///< SAT counterexample resimulation.
};
inline constexpr std::size_t kNumPatternSources = 5;

/// Flow phases for kPhaseBegin/kPhaseEnd.
enum class PhaseId : std::uint8_t {
  kNone = 0,
  kRandomSim = 1,
  kGuidedSim = 2,
  kSweep = 3,
  kOutputProofs = 4,
  kReduce = 5,
};
inline constexpr std::size_t kNumPhases = 6;

[[nodiscard]] const char* kind_name(EventKind kind) noexcept;
[[nodiscard]] const char* source_name(PatternSource source) noexcept;
[[nodiscard]] const char* phase_name(PhaseId phase) noexcept;
[[nodiscard]] const char* verdict_name(SatVerdict verdict) noexcept;

/// One journal record. Fixed 64-byte layout so the hot-path write is a
/// single 64-byte fwrite and the binary file format is the in-memory
/// representation. Field meaning depends on `kind` (see EventKind);
/// unused fields are zero.
struct JournalEvent {
  std::uint64_t t_ns = 0;  ///< Nanoseconds since the journal epoch (open()).
  std::uint64_t a = 0;     ///< Primary operand (node/class id, counts).
  std::uint64_t b = 0;     ///< Secondary operand.
  std::uint64_t v0 = 0;
  std::uint64_t v1 = 0;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0;
  std::uint32_t dur_us = 0;  ///< Duration where meaningful (saturating).
  std::uint16_t flags = 0;   ///< Kind-specific (bit0 = output proof, ...).
  EventKind kind = EventKind::kNone;
  std::uint8_t code = 0;  ///< Kind-specific sub-code (verdict, phase, ...).

  friend bool operator==(const JournalEvent&, const JournalEvent&) = default;
};
// The binary journal is this struct byte for byte: changing a field's
// type, order or offset changes the on-disk format and needs a bump of
// kFormatVersion in journal.cpp.
static_assert(sizeof(JournalEvent) == 64, "events are 64-byte records");
static_assert(std::is_trivially_copyable_v<JournalEvent>);
static_assert(std::is_standard_layout_v<JournalEvent>);
static_assert(offsetof(JournalEvent, t_ns) == 0 &&
                  offsetof(JournalEvent, a) == 8 &&
                  offsetof(JournalEvent, b) == 16 &&
                  offsetof(JournalEvent, v0) == 24 &&
                  offsetof(JournalEvent, v1) == 32 &&
                  offsetof(JournalEvent, v2) == 40 &&
                  offsetof(JournalEvent, v3) == 48 &&
                  offsetof(JournalEvent, dur_us) == 56 &&
                  offsetof(JournalEvent, flags) == 60 &&
                  offsetof(JournalEvent, kind) == 62 &&
                  offsetof(JournalEvent, code) == 63,
              "a JournalEvent layout change needs a journal format-version bump");

/// kSatCall packs two 32-bit quantities into v3.
[[nodiscard]] constexpr std::uint64_t pack_cone_learned(
    std::uint64_t cone_vars, std::uint64_t learned) noexcept {
  const std::uint64_t hi = cone_vars > 0xffffffffull ? 0xffffffffull : cone_vars;
  const std::uint64_t lo = learned > 0xffffffffull ? 0xffffffffull : learned;
  return (hi << 32) | lo;
}
[[nodiscard]] constexpr std::uint64_t unpack_cone(std::uint64_t v3) noexcept {
  return v3 >> 32;
}
[[nodiscard]] constexpr std::uint64_t unpack_learned(std::uint64_t v3) noexcept {
  return v3 & 0xffffffffull;
}

/// Saturating microsecond duration for the 32-bit dur_us field.
[[nodiscard]] constexpr std::uint32_t saturate_us(double seconds) noexcept {
  const double us = seconds * 1e6;
  if (us <= 0.0) return 0;
  if (us >= 4294967295.0) return 0xffffffffu;
  return static_cast<std::uint32_t>(us);
}

// ---------------------------------------------------------------------------
// Writer

#ifdef SIMGEN_NO_TELEMETRY
[[nodiscard]] constexpr bool journal_enabled() noexcept { return false; }
#else
/// True while a journal file is open and recording. One atomic load;
/// every emit helper checks it first.
[[nodiscard]] bool journal_enabled() noexcept;
#endif

/// Process-wide journal writer. Events from any thread are written into
/// one binary file under one mutex: one thread's events keep its emit
/// order, and the events of different threads interleave in lock order.
/// A killed run loses at most what still sits in the stdio buffer.
class Journal {
 public:
  static Journal& instance();

  /// Opens \p path and starts recording. Returns false if the file cannot
  /// be created, a journal is already open, or the writer is compiled out
  /// (SIMGEN_NO_TELEMETRY).
  bool open(const std::string& path);

  /// Stops recording and closes the file; later emits are dropped. Safe
  /// to call when not open (no-op) and from the watchdog thread. Records
  /// for failed() whether every write reached the file.
  void close();

  /// True if the journal closed last is incomplete on disk: a write, a
  /// flush or the close itself failed (a full disk, /dev/full). stdio's
  /// error indicator remembers a failed write until close() reads it;
  /// the next open() resets this.
  [[nodiscard]] bool failed() const noexcept;

  /// Flushes the stdio buffer to the file without closing it. Used by
  /// heartbeats and the watchdog so the on-disk journal is near-complete
  /// at any moment.
  void flush();

  [[nodiscard]] bool is_open() const noexcept;

  /// Records one event. If \p event.t_ns is zero it is stamped with the
  /// current epoch offset. Drops silently when not recording.
  void emit(JournalEvent event);

  /// Nanoseconds since open(); 0 when closed.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Events written since open() (some may still sit in the stdio buffer).
  [[nodiscard]] std::uint64_t events_written() const noexcept;

 private:
  Journal() = default;
};

/// Convenience emit: fills a JournalEvent and hands it to the instance.
/// All call sites guard with journal_enabled() first, so under
/// SIMGEN_NO_TELEMETRY the whole expression folds away.
inline void journal_emit(EventKind kind, std::uint8_t code, std::uint64_t a,
                         std::uint64_t b = 0, std::uint64_t v0 = 0,
                         std::uint64_t v1 = 0, std::uint64_t v2 = 0,
                         std::uint64_t v3 = 0, std::uint32_t dur_us = 0,
                         std::uint16_t flags = 0) {
  if (!journal_enabled()) return;
  JournalEvent event;
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
  Journal::instance().emit(event);
}

/// RAII phase bracket: emits kPhaseBegin at construction and kPhaseEnd
/// (with duration and an optional cost/classes-live result) at scope
/// exit. Free when the journal is closed or compiled out.
class PhaseScope {
 public:
  explicit PhaseScope(PhaseId phase) noexcept {
    if (!journal_enabled()) return;
    active_ = true;
    phase_ = phase;
    start_ns_ = Journal::instance().now_ns();
    journal_emit(EventKind::kPhaseBegin, static_cast<std::uint8_t>(phase), 0);
  }
  ~PhaseScope() {
    if (!active_) return;
    const std::uint64_t end_ns = Journal::instance().now_ns();
    journal_emit(EventKind::kPhaseEnd, static_cast<std::uint8_t>(phase_), 0, 0,
                 v0_, v1_, 0, 0,
                 saturate_us(static_cast<double>(end_ns - start_ns_) * 1e-9));
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Records the phase outcome carried by kPhaseEnd (cost after, classes
  /// live after).
  void set_result(std::uint64_t cost_after, std::uint64_t classes_live) noexcept {
    v0_ = cost_after;
    v1_ = classes_live;
  }

 private:
  std::uint64_t start_ns_ = 0;
  std::uint64_t v0_ = 0;
  std::uint64_t v1_ = 0;
  PhaseId phase_ = PhaseId::kNone;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Pattern-source attribution

/// RAII attribution scope for one simulated pattern batch. Construct it
/// around a simulate+refine step; EquivClasses::refine reports its split
/// results into the innermost scope on the same thread, and the scope's
/// destructor emits one kPatternBatch event with the batch's source,
/// guided-pattern count, splits, and wall time. Nesting is allowed (the
/// innermost scope wins); everything is a no-op while the journal is
/// closed or compiled out.
class PatternScope {
 public:
  /// \p patterns is the number of *guided* patterns in the batch (0 for a
  /// purely random word); \p strategy_code optionally records the guided
  /// arm (core::Strategy value) in the event's flags.
  PatternScope(PatternSource source, std::uint32_t patterns,
               std::uint8_t strategy_code = 0) noexcept;
  ~PatternScope();
  PatternScope(const PatternScope&) = delete;
  PatternScope& operator=(const PatternScope&) = delete;

  /// Called by EquivClasses::refine: accumulates refine results into the
  /// innermost scope of the calling thread. No-op without one.
  static void record_refine(std::uint64_t splits, std::uint64_t classes_live,
                            std::uint64_t cost) noexcept;

  /// Source of the innermost active scope (kNone without one); used by
  /// refine to attribute per-class split events.
  [[nodiscard]] static PatternSource current_source() noexcept;

 private:
#ifndef SIMGEN_NO_TELEMETRY
  PatternScope* prev_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t classes_live_ = 0;
  std::uint64_t cost_ = 0;
  std::uint32_t patterns_ = 0;
  PatternSource source_ = PatternSource::kNone;
  std::uint8_t strategy_code_ = 0;
  bool refined_ = false;
  bool active_ = false;
#endif
};

// ---------------------------------------------------------------------------
// Reader (compiled unconditionally, including SIMGEN_NO_TELEMETRY builds)

/// Parses a binary journal file into events. Returns false and fills
/// \p error on anything else (a JSONL export included); a trailing
/// partial record (a run killed mid-write) is tolerated and reported via
/// \p truncated when non-null.
bool read_journal_file(const std::string& path, std::vector<JournalEvent>& out,
                       std::string* error = nullptr, bool* truncated = nullptr);

/// Serializes events to an arbitrary file — the reader-side counterpart
/// used by tests and by `sweep_inspect --rewrite`. A path ending in
/// ".jsonl" gets the JSON-Lines export (a header object, then one object
/// per event naming its kind); any other path gets the binary format.
/// Returns false if the file cannot be written completely.
bool write_journal_file(const std::string& path,
                        const std::vector<JournalEvent>& events);

}  // namespace simgen::obs
