/// \file inspect.hpp
/// \brief Post-mortem journal inspector: replays a sweep journal
/// (journal.hpp) into per-class lifecycle timelines, top-K cost
/// attributions, pattern-effectiveness breakdowns, a SAT hardness report,
/// and a Chrome/Perfetto timeline.
///
/// Compiled unconditionally (including under SIMGEN_NO_TELEMETRY) so
/// `tools/sweep_inspect` can always replay journals recorded elsewhere.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/journal.hpp"

namespace simgen::obs {

/// One entry of a class's lifecycle, in journal order.
struct TimelineEntry {
  std::uint64_t t_ns = 0;
  EventKind kind = EventKind::kNone;
  std::uint8_t code = 0;      ///< Kind-specific (verdict / source).
  std::uint32_t dur_us = 0;   ///< For SAT calls / certifications.
  std::uint64_t detail = 0;   ///< Partner node, bucket count, ...
};

/// Aggregated per-class view, keyed by the class representative NodeId.
struct ClassRecord {
  std::uint64_t rep = 0;
  std::uint64_t first_ns = 0;          ///< First sighting.
  std::uint64_t last_ns = 0;           ///< Last event touching the class.
  std::uint64_t created_size = 0;      ///< Size at first creation.
  PatternSource created_by = PatternSource::kNone;
  std::uint64_t creations = 0;  ///< kClassCreated count (re-creations after
                                ///< splits keep the same rep).
  std::uint64_t splits = 0;     ///< Times this class split as the parent.
  std::uint64_t merges = 0;     ///< Nodes merged in via UNSAT proofs.
  std::uint64_t sat_calls = 0;
  std::uint64_t sat_time_us = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t disproofs = 0;  ///< SAT (inequivalent) verdicts.
  std::uint64_t max_cone_vars = 0;
  std::vector<TimelineEntry> timeline;
};

/// Aggregated view of one SAT call (already flat in the journal; copied
/// out so reports can sort without re-scanning).
struct SatCallRecord {
  std::uint64_t t_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  SatVerdict verdict = SatVerdict::kUnknown;
  bool output_proof = false;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;
  std::uint64_t cone_vars = 0;
  std::uint64_t learned = 0;
  std::uint32_t dur_us = 0;
  /// Phase open at the time the call was journaled (PhaseId value).
  std::uint8_t phase = 0;

  // Solver introspection joined by (a, b, output_proof) from the format
  // >= 2 events; all-zero when the journal predates them.
  bool has_fingerprint = false;    ///< A kConeFingerprint was joined.
  std::uint8_t strategy_arm = 0;   ///< Guided-simulation arm (fingerprint).
  std::uint64_t cone_support = 0;  ///< Distinct PIs feeding the cone.
  std::uint64_t cone_nodes = 0;    ///< Internal nodes in the cone.
  std::uint64_t cone_depth = 0;    ///< Max logic level over the roots.
  bool has_solve_stats = false;    ///< A kSolverSolveStats was joined.
  std::uint64_t restarts = 0;      ///< Restarts inside this solve.
  std::uint64_t reduces = 0;       ///< Learnt-DB reductions inside it.
  std::uint64_t budget_hits = 0;   ///< kSolverBudget events (0 or 1).
  std::uint64_t lbd_sum = 0;       ///< Sum of learnt-clause LBDs.
  std::uint64_t lbd_max = 0;       ///< Max learnt-clause LBD.
};

/// One solver restart (kSolverRestart), in journal order, for the --sat
/// restart timeline.
struct SolverRestartRecord {
  std::uint64_t t_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool output_proof = false;
  std::uint64_t ordinal = 0;    ///< 1-based within its solve.
  std::uint64_t conflicts = 0;  ///< Conflicts so far in the solve.
  std::uint64_t learnt_db = 0;  ///< Learnt DB size at the restart.
};

/// Pattern effectiveness bucket, keyed by (source, strategy code).
struct StrategyEffect {
  std::uint64_t batches = 0;
  std::uint64_t patterns = 0;  ///< Guided patterns (0-filled for random).
  std::uint64_t splits = 0;    ///< Classes split by this source's batches.
  std::uint64_t time_us = 0;   ///< Simulate+refine wall time.
};

/// Per-phase wall time and self time (phase minus attributed children).
struct PhaseCost {
  std::uint64_t total_us = 0;
  std::uint64_t child_us = 0;  ///< SAT calls, batches, certs inside it.
  std::uint64_t enters = 0;
};

/// Everything the report writers need, built in one pass over a journal.
struct JournalReport {
  std::uint64_t num_events = 0;
  std::uint64_t span_ns = 0;  ///< Last minus first timestamp.
  bool truncated = false;     ///< Source file ended mid-record.

  // Totals mirroring the metrics-registry counters for the same run.
  std::uint64_t sat_calls = 0;
  std::uint64_t sat_sat = 0;       ///< Verdict SAT (disproven candidates).
  std::uint64_t sat_unsat = 0;     ///< Verdict UNSAT (proven).
  std::uint64_t sat_unknown = 0;   ///< Conflict-limited.
  std::uint64_t output_proofs = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;
  std::uint64_t learned = 0;
  std::uint64_t class_created = 0;
  std::uint64_t class_split = 0;
  std::uint64_t class_merged = 0;
  std::uint64_t pattern_batches = 0;
  std::uint64_t pattern_splits = 0;
  std::uint64_t certified_ok = 0;
  std::uint64_t certified_fail = 0;
  std::uint64_t checked_lemmas = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t task_runs = 0;         ///< kTaskRun events (bench cells).
  std::uint64_t resource_samples = 0;  ///< kResourceSample events.
  std::uint64_t peak_rss_kb = 0;       ///< Max over resource samples.

  // Solver introspection totals (journal format >= 2; zero otherwise).
  std::uint64_t solver_restarts = 0;     ///< kSolverRestart events.
  std::uint64_t solver_reduces = 0;      ///< kSolverReduce events.
  std::uint64_t solver_budget_hits = 0;  ///< kSolverBudget events.
  std::uint64_t solver_solve_stats = 0;  ///< kSolverSolveStats events.
  std::uint64_t cone_fingerprints = 0;   ///< kConeFingerprint events.
  std::uint64_t reduce_deleted = 0;      ///< Clauses deleted by reductions.
  std::uint64_t lbd_count = 0;  ///< Learnt clauses with a recorded LBD.
  std::uint64_t lbd_sum = 0;    ///< Sum of those LBDs.
  std::uint64_t lbd_max = 0;    ///< Max LBD seen in any solve.

  std::map<std::uint64_t, ClassRecord> classes;  ///< Keyed by rep.
  std::vector<SatCallRecord> calls;              ///< Journal order.
  std::vector<SolverRestartRecord> restart_timeline;  ///< Journal order.
  /// Keyed by (PatternSource value, strategy code).
  std::map<std::pair<std::uint8_t, std::uint8_t>, StrategyEffect> strategies;
  PhaseCost phases[kNumPhases];
};

/// Options shared by the report writers.
struct InspectOptions {
  int top_k = 10;
  /// Optional pretty-printer for kPatternBatch strategy codes (the obs
  /// layer cannot see simgen's Strategy enum); nullptr prints "arm<N>".
  const char* (*strategy_namer)(std::uint8_t) = nullptr;
};

/// Replays \p events into the aggregate report. \p truncated is carried
/// into the report (from read_journal_file).
[[nodiscard]] JournalReport build_report(const std::vector<JournalEvent>& events,
                                         bool truncated = false);

/// Structural validation: every event kind/sub-code in range, run
/// begin/end pairing, phase nesting (per phase id when the journal holds
/// kTaskRun or kWorkerStats events, whose concurrent cells interleave
/// their phases). Returns false and fills \p error (if non-null) on the
/// first violation.
bool check_journal(const std::vector<JournalEvent>& events,
                   std::string* error = nullptr);

/// Human-readable report: run summary, top-K classes and SAT calls,
/// pattern-effectiveness table, phase breakdown.
void write_text_report(std::ostream& out, const JournalReport& report,
                       const InspectOptions& options);

/// Lifecycle timeline of one class (\p rep) or, with rep == 0, of the
/// top-K most expensive classes.
void write_timeline(std::ostream& out, const JournalReport& report,
                    std::uint64_t rep, const InspectOptions& options);

/// Chrome trace-event JSON of the journal, loadable in chrome://tracing
/// and https://ui.perfetto.dev: {"displayTimeUnit":"ms","traceEvents":
/// [...]}, every event on one track. phase_end, sat_call, certified,
/// pattern_batch, guided_iteration and task_run events each become one
/// complete ("X") span that ends at the event's t_ns and lasts dur_us; a
/// run is one "run" span from run_begin to its run_end (an unclosed run,
/// as in an interrupted journal, is left out); heartbeat and watchdog
/// events are instants. Span names are phase_name for phases and
/// kind_name otherwise; the event fields become named args. Times are
/// microseconds since the journal epoch.
void write_chrome_trace(std::ostream& out,
                        const std::vector<JournalEvent>& events,
                        const InspectOptions& options);

/// SAT hardness report (from the format >= 2 solver-introspection
/// events): solver totals, per-call log2 distributions with
/// p50/p90/p99, the top-K hardest cones with their structural
/// fingerprints, SAT time bucketed by cone size / strategy arm / phase,
/// and the restart timeline of the hardest cone. Degrades gracefully on
/// journals that predate the introspection events.
void write_sat_report(std::ostream& out, const JournalReport& report,
                      const InspectOptions& options);

}  // namespace simgen::obs
