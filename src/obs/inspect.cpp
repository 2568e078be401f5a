#include "obs/inspect.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace simgen::obs {

namespace {

std::string format_duration_us(std::uint64_t us) {
  char buffer[64];
  if (us >= 10'000'000)
    std::snprintf(buffer, sizeof buffer, "%.2f s", static_cast<double>(us) * 1e-6);
  else if (us >= 10'000)
    std::snprintf(buffer, sizeof buffer, "%.2f ms", static_cast<double>(us) * 1e-3);
  else
    std::snprintf(buffer, sizeof buffer, "%" PRIu64 " us", us);
  return buffer;
}

std::string format_time_ns(std::uint64_t ns) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%10.3f ms", static_cast<double>(ns) * 1e-6);
  return buffer;
}

std::string strategy_label(std::uint8_t source, std::uint8_t code,
                           const InspectOptions& options) {
  const auto src = static_cast<PatternSource>(source);
  if (src != PatternSource::kSimGen && src != PatternSource::kRevS)
    return source_name(src);
  if (options.strategy_namer != nullptr) {
    if (const char* name = options.strategy_namer(code); name != nullptr)
      return std::string(source_name(src)) + "/" + name;
  }
  return std::string(source_name(src)) + "/arm" + std::to_string(code);
}

/// Ranks classes by attributed SAT time, then conflicts, then activity.
std::vector<const ClassRecord*> rank_classes(const JournalReport& report) {
  std::vector<const ClassRecord*> ranked;
  ranked.reserve(report.classes.size());
  for (const auto& [rep, record] : report.classes) ranked.push_back(&record);
  std::sort(ranked.begin(), ranked.end(),
            [](const ClassRecord* x, const ClassRecord* y) {
              if (x->sat_time_us != y->sat_time_us)
                return x->sat_time_us > y->sat_time_us;
              if (x->conflicts != y->conflicts) return x->conflicts > y->conflicts;
              return x->timeline.size() > y->timeline.size();
            });
  return ranked;
}

std::vector<const SatCallRecord*> rank_calls(const JournalReport& report) {
  std::vector<const SatCallRecord*> ranked;
  ranked.reserve(report.calls.size());
  for (const SatCallRecord& call : report.calls) ranked.push_back(&call);
  std::sort(ranked.begin(), ranked.end(),
            [](const SatCallRecord* x, const SatCallRecord* y) {
              if (x->dur_us != y->dur_us) return x->dur_us > y->dur_us;
              return x->conflicts > y->conflicts;
            });
  return ranked;
}

const char* timeline_verb(const TimelineEntry& entry) {
  switch (entry.kind) {
    case EventKind::kClassCreated: return "created";
    case EventKind::kClassSplit: return "split";
    case EventKind::kClassMerged: return "merged";
    case EventKind::kSatCall:
      switch (static_cast<SatVerdict>(entry.code)) {
        case SatVerdict::kSat: return "sat-call SAT (disproved)";
        case SatVerdict::kUnsat: return "sat-call UNSAT (proved)";
        case SatVerdict::kUnknown: return "sat-call UNKNOWN (limit)";
      }
      return "sat-call";
    case EventKind::kCertified:
      return entry.code != 0 ? "certified ok" : "certified FAIL";
    default: return kind_name(entry.kind);
  }
}

/// Per-call distribution in the log2_bucket() layout, so the --sat report
/// quotes every p50/p90/p99 through the one bucket_percentile estimator.
struct CallDistribution {
  std::array<std::uint64_t, kNumLog2Buckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void observe(std::uint64_t value) {
    ++buckets[log2_bucket(value)];
    ++count;
    sum += value;
    max = std::max(max, value);
  }
  [[nodiscard]] std::uint64_t percentile(double q) const {
    return bucket_percentile(buckets.data(), buckets.size(), q);
  }
};

std::string arm_label(std::uint8_t arm, const InspectOptions& options) {
  if (options.strategy_namer != nullptr)
    if (const char* name = options.strategy_namer(arm); name != nullptr)
      return name;
  return "arm" + std::to_string(arm);
}

/// Value range of log2 bucket \p i ("0", "1", "2-3", "4-7", ...).
std::string bucket_range_label(std::size_t i) {
  if (i == 0) return "0";
  if (i == 1) return "1";
  const std::uint64_t lo = std::uint64_t{1} << (i - 1);
  const std::uint64_t hi = i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  return std::to_string(lo) + "-" + std::to_string(hi);
}

/// Target column of a SAT call: "(a, b)" for pairs, "output N" for
/// output proofs.
std::string call_target(const SatCallRecord& call) {
  char pair[48];
  if (call.output_proof)
    std::snprintf(pair, sizeof pair, "output %" PRIu64, call.a);
  else
    std::snprintf(pair, sizeof pair, "(%" PRIu64 ", %" PRIu64 ")", call.a,
                  call.b);
  return pair;
}

}  // namespace

JournalReport build_report(const std::vector<JournalEvent>& events,
                           bool truncated) {
  JournalReport report;
  report.num_events = events.size();
  report.truncated = truncated;

  std::uint64_t min_ns = ~0ull, max_ns = 0;
  std::vector<PhaseId> phase_stack;
  const auto current_phase = [&phase_stack]() {
    return phase_stack.empty() ? PhaseId::kNone : phase_stack.back();
  };
  const auto charge_phase = [&](std::uint32_t dur_us) {
    const auto phase = static_cast<std::size_t>(current_phase());
    if (phase < kNumPhases) report.phases[phase].child_us += dur_us;
  };
  const auto class_of = [&report](std::uint64_t rep) -> ClassRecord& {
    ClassRecord& record = report.classes[rep];
    record.rep = rep;
    return record;
  };
  const auto touch = [](ClassRecord& record, const JournalEvent& event) {
    if (record.first_ns == 0 || event.t_ns < record.first_ns)
      record.first_ns = event.t_ns;
    if (event.t_ns > record.last_ns) record.last_ns = event.t_ns;
  };

  // Solver-introspection events precede their kSatCall in the emit order
  // of the thread that solves (fingerprint before the solve, milestones
  // and the solve-stats rollup inside it), and a join key only ever comes
  // from one thread, so accumulating per key until the kSatCall arrives
  // is order-safe even though the events of concurrent threads interleave.
  struct PendingSolve {
    bool has_fingerprint = false;
    std::uint8_t arm = 0;
    std::uint64_t support = 0, nodes = 0, depth = 0;
    bool has_stats = false;
    std::uint64_t restarts = 0, reduces = 0, budget_hits = 0;
    std::uint64_t learned = 0, lbd_sum = 0, lbd_max = 0;
  };
  std::map<std::array<std::uint64_t, 3>, PendingSolve> pending;
  const auto pending_key = [](const JournalEvent& event) {
    return std::array<std::uint64_t, 3>{event.a, event.b, event.flags & 1u};
  };

  for (const JournalEvent& event : events) {
    if (event.t_ns != 0) {
      min_ns = std::min(min_ns, event.t_ns);
      max_ns = std::max(max_ns, event.t_ns);
    }
    switch (event.kind) {
      case EventKind::kPhaseBegin:
        phase_stack.push_back(static_cast<PhaseId>(event.code));
        break;
      case EventKind::kPhaseEnd: {
        if (!phase_stack.empty()) phase_stack.pop_back();
        const auto phase = static_cast<std::size_t>(event.code);
        if (phase < kNumPhases) {
          report.phases[phase].total_us += event.dur_us;
          report.phases[phase].enters += 1;
        }
        break;
      }
      case EventKind::kClassCreated: {
        report.class_created += 1;
        ClassRecord& record = class_of(event.a);
        touch(record, event);
        if (record.creations == 0) {
          record.created_size = event.v0;
          record.created_by = static_cast<PatternSource>(event.code);
        }
        record.creations += 1;
        record.timeline.push_back(
            {event.t_ns, event.kind, event.code, 0, event.v0});
        break;
      }
      case EventKind::kClassSplit: {
        report.class_split += 1;
        ClassRecord& record = class_of(event.a);
        touch(record, event);
        record.splits += 1;
        record.timeline.push_back(
            {event.t_ns, event.kind, event.code, 0, event.v0});
        break;
      }
      case EventKind::kClassMerged: {
        report.class_merged += 1;
        ClassRecord& record = class_of(event.a);
        touch(record, event);
        record.merges += 1;
        record.timeline.push_back(
            {event.t_ns, event.kind, event.code, 0, event.b});
        break;
      }
      case EventKind::kSatCall: {
        report.sat_calls += 1;
        const auto verdict = static_cast<SatVerdict>(event.code);
        const bool output_proof = (event.flags & 1u) != 0;
        if (verdict == SatVerdict::kSat) report.sat_sat += 1;
        if (verdict == SatVerdict::kUnsat) report.sat_unsat += 1;
        if (verdict == SatVerdict::kUnknown) report.sat_unknown += 1;
        if (output_proof) report.output_proofs += 1;
        report.conflicts += event.v0;
        report.propagations += event.v1;
        report.decisions += event.v2;
        report.learned += unpack_learned(event.v3);
        SatCallRecord call;
        call.t_ns = event.t_ns;
        call.a = event.a;
        call.b = event.b;
        call.verdict = verdict;
        call.output_proof = output_proof;
        call.conflicts = event.v0;
        call.propagations = event.v1;
        call.decisions = event.v2;
        call.cone_vars = unpack_cone(event.v3);
        call.learned = unpack_learned(event.v3);
        call.dur_us = event.dur_us;
        call.phase = static_cast<std::uint8_t>(current_phase());
        if (const auto it = pending.find(pending_key(event));
            it != pending.end()) {
          const PendingSolve& join = it->second;
          call.has_fingerprint = join.has_fingerprint;
          call.strategy_arm = join.arm;
          call.cone_support = join.support;
          call.cone_nodes = join.nodes;
          call.cone_depth = join.depth;
          call.has_solve_stats = join.has_stats;
          call.restarts = join.restarts;
          call.reduces = join.reduces;
          call.budget_hits = join.budget_hits;
          call.lbd_sum = join.lbd_sum;
          call.lbd_max = join.lbd_max;
          if (join.has_stats) call.learned = join.learned;
          pending.erase(it);
        }
        report.calls.push_back(call);
        if (!output_proof) {
          ClassRecord& record = class_of(event.a);
          touch(record, event);
          record.sat_calls += 1;
          record.sat_time_us += event.dur_us;
          record.conflicts += event.v0;
          record.max_cone_vars = std::max(record.max_cone_vars, call.cone_vars);
          if (verdict == SatVerdict::kSat) record.disproofs += 1;
          record.timeline.push_back(
              {event.t_ns, event.kind, event.code, event.dur_us, event.b});
        }
        charge_phase(event.dur_us);
        break;
      }
      case EventKind::kPatternBatch: {
        report.pattern_batches += 1;
        report.pattern_splits += event.v0;
        StrategyEffect& effect =
            report.strategies[{event.code, static_cast<std::uint8_t>(event.flags)}];
        effect.batches += 1;
        effect.patterns += event.a;
        effect.splits += event.v0;
        effect.time_us += event.dur_us;
        charge_phase(event.dur_us);
        break;
      }
      case EventKind::kCertified: {
        if (event.code != 0)
          report.certified_ok += 1;
        else
          report.certified_fail += 1;
        report.checked_lemmas += event.v0;
        if ((event.flags & 1u) == 0) {
          ClassRecord& record = class_of(event.a);
          touch(record, event);
          record.timeline.push_back(
              {event.t_ns, event.kind, event.code, event.dur_us, event.b});
        }
        charge_phase(event.dur_us);
        break;
      }
      case EventKind::kHeartbeat:
        report.heartbeats += 1;
        break;
      case EventKind::kWatchdog:
        report.watchdog_fires += 1;
        break;
      case EventKind::kTaskRun:
        report.task_runs += 1;
        break;
      case EventKind::kResourceSample:
        report.resource_samples += 1;
        report.peak_rss_kb = std::max(report.peak_rss_kb, event.b);
        break;
      case EventKind::kConeFingerprint: {
        report.cone_fingerprints += 1;
        PendingSolve& join = pending[pending_key(event)];
        join.has_fingerprint = true;
        join.arm = event.code;
        join.support = event.v0;
        join.nodes = event.v1;
        join.depth = event.v2;
        break;
      }
      case EventKind::kSolverRestart: {
        report.solver_restarts += 1;
        pending[pending_key(event)].restarts += 1;
        report.restart_timeline.push_back({event.t_ns, event.a, event.b,
                                           (event.flags & 1u) != 0, event.v0,
                                           event.v1, event.v2});
        break;
      }
      case EventKind::kSolverReduce: {
        report.solver_reduces += 1;
        report.reduce_deleted += event.v0;
        pending[pending_key(event)].reduces += 1;
        break;
      }
      case EventKind::kSolverBudget: {
        report.solver_budget_hits += 1;
        pending[pending_key(event)].budget_hits += 1;
        break;
      }
      case EventKind::kSolverSolveStats: {
        report.solver_solve_stats += 1;
        report.lbd_count += event.v0;
        report.lbd_sum += event.v1;
        report.lbd_max = std::max(report.lbd_max, event.v2);
        PendingSolve& join = pending[pending_key(event)];
        join.has_stats = true;
        join.learned = event.v0;
        join.lbd_sum = event.v1;
        join.lbd_max = event.v2;
        // The rollup's restart count supersedes event counting (identical
        // on complete journals; authoritative when restarts were lost to
        // truncation).
        join.restarts = event.v3;
        break;
      }
      default:
        break;
    }
  }
  if (max_ns >= min_ns && min_ns != ~0ull) report.span_ns = max_ns - min_ns;
  return report;
}

bool check_journal(const std::vector<JournalEvent>& events, std::string* error) {
  const auto fail = [error](std::size_t index, const std::string& message) {
    if (error != nullptr)
      *error = "event " + std::to_string(index) + ": " + message;
    return false;
  };
  std::vector<std::uint8_t> phase_stack;
  // A sharded bench run journals several cells at once, so the phases of
  // different threads interleave: there a phase_end closes the latest
  // open phase of its id. A journal without cell events keeps strict
  // nesting. Kind 14 is retired but still marks such a journal.
  const bool sharded =
      std::any_of(events.begin(), events.end(), [](const JournalEvent& event) {
        return event.kind == EventKind::kTaskRun ||
               event.kind == EventKind::kWorkerStats;
      });
  bool run_begun = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JournalEvent& event = events[i];
    const auto kind_value = static_cast<std::uint8_t>(event.kind);
    if (event.kind == EventKind::kNone ||
        kind_value > static_cast<std::uint8_t>(EventKind::kGuidedIteration))
      return fail(i, "unknown event kind " + std::to_string(kind_value));
    switch (event.kind) {
      case EventKind::kRunBegin:
        run_begun = true;
        break;
      case EventKind::kRunEnd:
        if (!run_begun) return fail(i, "run_end without run_begin");
        if (event.code > 2) return fail(i, "run_end outcome out of range");
        break;
      case EventKind::kPhaseBegin:
        if (event.code >= kNumPhases) return fail(i, "phase id out of range");
        phase_stack.push_back(event.code);
        break;
      case EventKind::kPhaseEnd: {
        if (event.code >= kNumPhases) return fail(i, "phase id out of range");
        if (phase_stack.empty())
          return fail(i, "phase_end without matching phase_begin");
        const auto open =
            sharded ? std::find(phase_stack.rbegin(), phase_stack.rend(),
                                event.code)
                    : phase_stack.rbegin();
        if (open == phase_stack.rend() || *open != event.code)
          return fail(i, std::string("phase_end ") +
                             phase_name(static_cast<PhaseId>(event.code)) +
                             " does not match open phase " +
                             phase_name(static_cast<PhaseId>(phase_stack.back())));
        phase_stack.erase(std::next(open).base());
        break;
      }
      case EventKind::kClassCreated:
        if (event.code >= kNumPatternSources)
          return fail(i, "pattern source out of range");
        break;
      case EventKind::kClassSplit:
        if (event.code >= kNumPatternSources)
          return fail(i, "pattern source out of range");
        // Attribution cross-check: a split was by definition caused by
        // some pattern batch, so kNone means refine() ran outside a
        // PatternScope and the Table 3 attribution data is silently
        // corrupt. The simgen-pattern-scope tidy check catches this at
        // analysis time; this is the runtime backstop.
        if (event.code == static_cast<std::uint8_t>(PatternSource::kNone))
          return fail(i,
                      "class_split with no pattern-source attribution "
                      "(refine called outside an obs::PatternScope)");
        break;
      case EventKind::kSatCall:
        if (event.code > static_cast<std::uint8_t>(SatVerdict::kUnknown))
          return fail(i, "sat verdict out of range");
        break;
      case EventKind::kPatternBatch:
        if (event.code >= kNumPatternSources)
          return fail(i, "pattern source out of range");
        break;
      case EventKind::kCertified:
        if (event.code > 1) return fail(i, "certified code out of range");
        break;
      case EventKind::kWatchdog:
        if (event.code != 1 && event.code != 2)
          return fail(i, "watchdog code out of range");
        break;
      case EventKind::kTaskRun:
        if (event.code > 2) return fail(i, "task_run task kind out of range");
        break;
      case EventKind::kSolverRestart:
        if (event.v0 == 0)
          return fail(i, "solver_restart ordinal must be 1-based");
        // Every restart needs at least one conflict behind it, so the
        // ordinal can never exceed the conflict count.
        if (event.v0 > event.v1)
          return fail(i, "solver_restart ordinal exceeds conflict count");
        break;
      case EventKind::kSolverReduce:
        if (event.v2 > event.v1)
          return fail(i, "solver_reduce grew the learnt DB");
        if (event.v0 > event.v1)
          return fail(i, "solver_reduce deleted more clauses than it had");
        break;
      case EventKind::kSolverBudget:
        if (event.v0 == 0)
          return fail(i, "solver_budget without a conflict limit");
        if (event.v1 < event.v0)
          return fail(i, "solver_budget before the conflict limit");
        break;
      case EventKind::kSolverSolveStats:
        // Every learnt clause has LBD >= 1, so sum >= count and the max
        // is bounded by the sum; a zero-learnt solve has all-zero fields.
        if (event.v1 < event.v0)
          return fail(i, "solver_solve_stats LBD sum below learnt count");
        if (event.v2 > event.v1)
          return fail(i, "solver_solve_stats LBD max exceeds LBD sum");
        if (event.v0 == 0 && (event.v1 != 0 || event.v2 != 0))
          return fail(i, "solver_solve_stats LBD fields without learnt clauses");
        break;
      default:
        break;
    }
  }
  // An unclosed phase at EOF is legal (interrupted run), so no check here.
  return true;
}

void write_text_report(std::ostream& out, const JournalReport& report,
                       const InspectOptions& options) {
  char line[256];
  std::snprintf(line, sizeof line,
                "journal: %" PRIu64 " events spanning %s%s\n",
                report.num_events,
                format_duration_us(report.span_ns / 1000).c_str(),
                report.truncated ? "  [TRUNCATED: run was interrupted]" : "");
  out << line;
  std::snprintf(line, sizeof line,
                "sat:     %" PRIu64 " calls (unsat %" PRIu64 ", sat %" PRIu64
                ", unknown %" PRIu64 ", output proofs %" PRIu64 ")\n",
                report.sat_calls, report.sat_unsat, report.sat_sat,
                report.sat_unknown, report.output_proofs);
  out << line;
  std::snprintf(line, sizeof line,
                "         conflicts %" PRIu64 "  propagations %" PRIu64
                "  decisions %" PRIu64 "  learned %" PRIu64 "\n",
                report.conflicts, report.propagations, report.decisions,
                report.learned);
  out << line;
  std::snprintf(line, sizeof line,
                "classes: created %" PRIu64 "  split %" PRIu64 "  merged %" PRIu64
                "  tracked %zu\n",
                report.class_created, report.class_split, report.class_merged,
                report.classes.size());
  out << line;
  std::snprintf(line, sizeof line,
                "sim:     %" PRIu64 " pattern batches causing %" PRIu64
                " class splits\n",
                report.pattern_batches, report.pattern_splits);
  out << line;
  std::snprintf(line, sizeof line,
                "drat:    %" PRIu64 " certified ok, %" PRIu64 " failed, %" PRIu64
                " lemmas checked\n",
                report.certified_ok, report.certified_fail,
                report.checked_lemmas);
  out << line;
  if (report.task_runs > 0) {
    std::snprintf(line, sizeof line, "cells:   %" PRIu64 " bench cells\n",
                  report.task_runs);
    out << line;
  }
  if (report.resource_samples > 0) {
    std::snprintf(line, sizeof line,
                  "rss:     peak %.1f MB over %" PRIu64 " resource samples\n",
                  static_cast<double>(report.peak_rss_kb) / 1024.0,
                  report.resource_samples);
    out << line;
  }

  out << "\nphases:\n";
  for (std::size_t phase = 1; phase < kNumPhases; ++phase) {
    const PhaseCost& cost = report.phases[phase];
    if (cost.enters == 0) continue;
    const std::uint64_t self =
        cost.total_us > cost.child_us ? cost.total_us - cost.child_us : 0;
    std::snprintf(line, sizeof line,
                  "  %-13s total %-12s self %-12s (%" PRIu64 "x)\n",
                  phase_name(static_cast<PhaseId>(phase)),
                  format_duration_us(cost.total_us).c_str(),
                  format_duration_us(self).c_str(), cost.enters);
    out << line;
  }

  const auto ranked_classes = rank_classes(report);
  out << "\ntop classes by SAT time:\n";
  out << "  rep        calls  sat-time     conflicts  merges  disproofs  "
         "max-cone\n";
  int shown = 0;
  for (const ClassRecord* record : ranked_classes) {
    if (shown >= options.top_k) break;
    if (record->sat_calls == 0 && record->splits == 0 && record->merges == 0)
      continue;
    std::snprintf(line, sizeof line,
                  "  %-9" PRIu64 "  %-5" PRIu64 "  %-11s  %-9" PRIu64
                  "  %-6" PRIu64 "  %-9" PRIu64 "  %" PRIu64 "\n",
                  record->rep, record->sat_calls,
                  format_duration_us(record->sat_time_us).c_str(),
                  record->conflicts, record->merges, record->disproofs,
                  record->max_cone_vars);
    out << line;
    ++shown;
  }
  if (shown == 0) out << "  (none)\n";

  const auto ranked_calls = rank_calls(report);
  out << "\ntop SAT calls:\n";
  out << "  at            pair                 verdict  duration     conflicts"
         "  cone   learned\n";
  shown = 0;
  for (const SatCallRecord* call : ranked_calls) {
    if (shown >= options.top_k) break;
    char pair[48];
    if (call->output_proof)
      std::snprintf(pair, sizeof pair, "output %" PRIu64, call->a);
    else
      std::snprintf(pair, sizeof pair, "(%" PRIu64 ", %" PRIu64 ")", call->a,
                    call->b);
    std::snprintf(line, sizeof line,
                  "  %s  %-19s  %-7s  %-11s  %-9" PRIu64 "  %-5" PRIu64
                  "  %" PRIu64 "\n",
                  format_time_ns(call->t_ns).c_str(), pair,
                  verdict_name(call->verdict),
                  format_duration_us(call->dur_us).c_str(), call->conflicts,
                  call->cone_vars, call->learned);
    out << line;
    ++shown;
  }
  if (shown == 0) out << "  (none)\n";

  out << "\npattern effectiveness:\n";
  out << "  source             batches  patterns  splits  time         "
         "splits/batch\n";
  for (const auto& [key, effect] : report.strategies) {
    const double per_batch =
        effect.batches == 0
            ? 0.0
            : static_cast<double>(effect.splits) /
                  static_cast<double>(effect.batches);
    std::snprintf(line, sizeof line,
                  "  %-17s  %-7" PRIu64 "  %-8" PRIu64 "  %-6" PRIu64
                  "  %-11s  %.2f\n",
                  strategy_label(key.first, key.second, options).c_str(),
                  effect.batches, effect.patterns, effect.splits,
                  format_duration_us(effect.time_us).c_str(), per_batch);
    out << line;
  }
  if (report.strategies.empty()) out << "  (none)\n";
}

void write_timeline(std::ostream& out, const JournalReport& report,
                    std::uint64_t rep, const InspectOptions& options) {
  std::vector<const ClassRecord*> selected;
  if (rep != 0) {
    const auto it = report.classes.find(rep);
    if (it == report.classes.end()) {
      out << "class " << rep << ": not present in journal\n";
      return;
    }
    selected.push_back(&it->second);
  } else {
    const auto ranked = rank_classes(report);
    for (const ClassRecord* record : ranked) {
      if (static_cast<int>(selected.size()) >= options.top_k) break;
      selected.push_back(record);
    }
  }
  char line[256];
  for (const ClassRecord* record : selected) {
    std::snprintf(line, sizeof line,
                  "class %" PRIu64 " (size %" PRIu64 " at creation, via %s):\n",
                  record->rep, record->created_size,
                  source_name(record->created_by));
    out << line;
    for (const TimelineEntry& entry : record->timeline) {
      std::string detail;
      switch (entry.kind) {
        case EventKind::kClassCreated:
          detail = "size " + std::to_string(entry.detail) + " via " +
                   source_name(static_cast<PatternSource>(entry.code));
          break;
        case EventKind::kClassSplit:
          detail = std::to_string(entry.detail) + " buckets via " +
                   source_name(static_cast<PatternSource>(entry.code));
          break;
        case EventKind::kClassMerged:
          detail = "node " + std::to_string(entry.detail);
          break;
        case EventKind::kSatCall:
        case EventKind::kCertified:
          detail = "node " + std::to_string(entry.detail) + ", " +
                   format_duration_us(entry.dur_us);
          break;
        default:
          break;
      }
      std::snprintf(line, sizeof line, "  %s  %-26s %s\n",
                    format_time_ns(entry.t_ns).c_str(), timeline_verb(entry),
                    detail.c_str());
      out << line;
    }
  }
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<JournalEvent>& events,
                        const InspectOptions& options) {
  // Stamps are printed as exact microseconds (nanosecond decimals), so no
  // span boundary rounds across its neighbour on a long run.
  const auto us = [](std::uint64_t ns) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                  ns % 1000);
    return std::string(buffer);
  };
  using Args = std::initializer_list<std::pair<const char*, std::string>>;
  // One event on the single track: a complete span ('X') or an instant.
  const auto write = [&out, &us](const std::string& name, char phase,
                                 std::uint64_t start_ns, std::uint64_t dur_ns,
                                 Args args) {
    out << ",\n{\"name\":\"" << detail::json_escape(name)
        << "\",\"cat\":\"simgen\",\"ph\":\"" << phase
        << "\",\"pid\":1,\"tid\":1,\"ts\":" << us(start_ns);
    out << (phase == 'X' ? ",\"dur\":" + us(dur_ns) : ",\"s\":\"t\"");
    const char* separator = ",\"args\":{";
    for (const auto& [key, value] : args) {
      out << separator << '"' << key << "\":" << value;
      separator = ",";
    }
    out << (args.size() > 0 ? "}}" : "}");
  };
  const auto num = [](std::uint64_t value) { return std::to_string(value); };
  const auto str = [](const std::string& value) {
    return '"' + detail::json_escape(value) + '"';
  };

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
         "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"simgen\"}}";
  std::vector<const JournalEvent*> open_runs;
  for (const JournalEvent& e : events) {
    // A timed event is stamped when its work ends and carries the work's
    // duration, so every span stands alone: no begin/end pairing, and the
    // interleaved cells of a sharded bench journal render too.
    const std::uint64_t dur_ns = std::uint64_t{e.dur_us} * 1000;
    const std::uint64_t start_ns = e.t_ns > dur_ns ? e.t_ns - dur_ns : 0;
    const auto span = [&](const std::string& name, Args args) {
      write(name, 'X', start_ns, dur_ns, args);
    };
    switch (e.kind) {
      case EventKind::kRunBegin:
        open_runs.push_back(&e);
        break;
      case EventKind::kRunEnd: {
        if (open_runs.empty()) break;
        const JournalEvent& begin = *open_runs.back();
        open_runs.pop_back();
        write("run", 'X', begin.t_ns,
              e.t_ns > begin.t_ns ? e.t_ns - begin.t_ns : 0,
              {{"pis", num(begin.a)}, {"nodes", num(begin.b)},
               {"luts", num(begin.v0)}, {"pos", num(begin.v1)},
               {"outcome", num(e.code)}, {"outputs_proven", num(e.v0)},
               {"unresolved_outputs", num(e.v1)}});
        break;
      }
      case EventKind::kPhaseEnd:
        span(phase_name(static_cast<PhaseId>(e.code)),
             {{"cost_after", num(e.v0)}, {"classes_live", num(e.v1)}});
        break;
      case EventKind::kSatCall:
        span(kind_name(e.kind),
             {{"verdict", str(verdict_name(static_cast<SatVerdict>(e.code)))},
              {"a", num(e.a)}, {"b", num(e.b)},
              {"output_proof", num(e.flags & 1u)}, {"conflicts", num(e.v0)},
              {"propagations", num(e.v1)}, {"decisions", num(e.v2)},
              {"cone_vars", num(unpack_cone(e.v3))},
              {"learned", num(unpack_learned(e.v3))}});
        break;
      case EventKind::kCertified:
        span(kind_name(e.kind),
             {{"ok", num(e.code)}, {"a", num(e.a)}, {"b", num(e.b)},
              {"output_proof", num(e.flags & 1u)},
              {"checked_lemmas", num(e.v0)}, {"rup_checks", num(e.v1)},
              {"propagations", num(e.v2)}});
        break;
      case EventKind::kPatternBatch:
        span(kind_name(e.kind),
             {{"source", str(strategy_label(e.code,
                                            static_cast<std::uint8_t>(e.flags),
                                            options))},
              {"patterns", num(e.a)}, {"splits", num(e.v0)},
              {"classes_live", num(e.v1)},
              {"cost_after", num(e.v2)}});
        break;
      case EventKind::kGuidedIteration:
        span(kind_name(e.kind),
             {{"arm", str(arm_label(e.code, options))},
              {"iteration", num(e.a)}, {"vectors_generated", num(e.b)},
              {"vectors_skipped", num(e.v1)}, {"cost_after", num(e.v0)},
              {"implications", num(e.v2)}, {"conflicts", num(e.v3)}});
        break;
      case EventKind::kTaskRun:
        span(kind_name(e.kind), {{"cell", num(e.a)}, {"slot", num(e.b)}});
        break;
      case EventKind::kHeartbeat:
        write(kind_name(e.kind), 'i', e.t_ns, 0,
              {{"live_nodes", num(e.a)}, {"resolved_nodes", num(e.b)},
               {"classes_live", num(e.v0)}, {"proved", num(e.v1)},
               {"disproved", num(e.v2)}, {"sat_calls", num(e.v3)}});
        break;
      case EventKind::kWatchdog:
        write(kind_name(e.kind), 'i', e.t_ns, 0,
              {{"reason", str(e.code == 1 ? "signal" : "timeout")},
               {"signal", num(e.a)}});
        break;
      default:
        break;
    }
  }
  out << "\n]}\n";
}

void write_sat_report(std::ostream& out, const JournalReport& report,
                      const InspectOptions& options) {
  char line[512];
  std::uint64_t total_us = 0;
  for (const SatCallRecord& call : report.calls) total_us += call.dur_us;

  std::snprintf(line, sizeof line,
                "SAT hardness: %" PRIu64 " calls (unsat %" PRIu64 ", sat %" PRIu64
                ", unknown %" PRIu64 ", output proofs %" PRIu64 ") totaling %s\n",
                report.sat_calls, report.sat_unsat, report.sat_sat,
                report.sat_unknown, report.output_proofs,
                format_duration_us(total_us).c_str());
  out << line;
  std::snprintf(line, sizeof line,
                "solver:       %" PRIu64 " restarts, %" PRIu64
                " learnt-DB reductions (%" PRIu64 " clauses deleted), %" PRIu64
                " budget hits\n",
                report.solver_restarts, report.solver_reduces,
                report.reduce_deleted, report.solver_budget_hits);
  out << line;
  if (report.lbd_count > 0) {
    std::snprintf(line, sizeof line,
                  "learnt:       %" PRIu64 " clauses with LBD recorded, mean LBD "
                  "%.2f, max %" PRIu64 "\n",
                  report.lbd_count,
                  static_cast<double>(report.lbd_sum) /
                      static_cast<double>(report.lbd_count),
                  report.lbd_max);
    out << line;
  }
  if (report.solver_solve_stats == 0 && report.cone_fingerprints == 0) {
    out << "  (no solver-introspection events: the journal predates format "
           "version 2\n   or the run compiled telemetry out)\n";
    return;
  }

  // Per-call distributions, through the shared percentile estimator.
  CallDistribution dur, conflicts, propagations, decisions, learned, lbd_mean;
  for (const SatCallRecord& call : report.calls) {
    dur.observe(call.dur_us);
    conflicts.observe(call.conflicts);
    propagations.observe(call.propagations);
    decisions.observe(call.decisions);
    learned.observe(call.learned);
    if (call.has_solve_stats && call.learned > 0)
      lbd_mean.observe(call.lbd_sum / call.learned);
  }
  out << "\nper-call distributions (log2-bucket estimates):\n";
  out << "  metric         p50          p90          p99          max\n";
  std::snprintf(line, sizeof line, "  %-13s  %-11s  %-11s  %-11s  %s\n",
                "duration", format_duration_us(dur.percentile(0.50)).c_str(),
                format_duration_us(dur.percentile(0.90)).c_str(),
                format_duration_us(dur.percentile(0.99)).c_str(),
                format_duration_us(dur.max).c_str());
  out << line;
  const auto distribution_row = [&](const char* name,
                                    const CallDistribution& dist) {
    std::snprintf(line, sizeof line,
                  "  %-13s  %-11" PRIu64 "  %-11" PRIu64 "  %-11" PRIu64
                  "  %" PRIu64 "\n",
                  name, dist.percentile(0.50), dist.percentile(0.90),
                  dist.percentile(0.99), dist.max);
    out << line;
  };
  distribution_row("conflicts", conflicts);
  distribution_row("propagations", propagations);
  distribution_row("decisions", decisions);
  distribution_row("learned", learned);
  if (lbd_mean.count > 0) distribution_row("mean LBD", lbd_mean);

  const auto ranked = rank_calls(report);
  out << "\nhardest cones:\n";
  out << "  target               verdict  duration     conflicts  restarts"
         "  support  nodes   depth  arm\n";
  int shown = 0;
  for (const SatCallRecord* call : ranked) {
    if (shown >= options.top_k) break;
    std::snprintf(
        line, sizeof line,
        "  %-19s  %-7s  %-11s  %-9" PRIu64 "  %-8" PRIu64 "  %-7" PRIu64
        "  %-6" PRIu64 "  %-5" PRIu64 "  %s\n",
        call_target(*call).c_str(), verdict_name(call->verdict),
        format_duration_us(call->dur_us).c_str(), call->conflicts,
        call->restarts, call->cone_support, call->cone_nodes, call->cone_depth,
        call->has_fingerprint ? arm_label(call->strategy_arm, options).c_str()
                              : "-");
    out << line;
    ++shown;
  }
  if (shown == 0) out << "  (none)\n";

  // SAT time bucketed by cone size (internal nodes, log2 buckets).
  std::array<std::uint64_t, kNumLog2Buckets> size_time{};
  std::array<std::uint64_t, kNumLog2Buckets> size_calls{};
  std::uint64_t unfingerprinted_time = 0, unfingerprinted_calls = 0;
  for (const SatCallRecord& call : report.calls) {
    if (!call.has_fingerprint) {
      unfingerprinted_time += call.dur_us;
      ++unfingerprinted_calls;
      continue;
    }
    const std::size_t bucket = log2_bucket(call.cone_nodes);
    size_time[bucket] += call.dur_us;
    size_calls[bucket] += 1;
  }
  std::uint64_t max_bucket_time = 1;
  for (const std::uint64_t t : size_time)
    max_bucket_time = std::max(max_bucket_time, t);
  out << "\nSAT time by cone size (internal nodes):\n";
  out << "  nodes            calls  time         share\n";
  for (std::size_t i = 0; i < size_time.size(); ++i) {
    if (size_calls[i] == 0) continue;
    const int bar = static_cast<int>(24.0 * static_cast<double>(size_time[i]) /
                                     static_cast<double>(max_bucket_time));
    std::snprintf(line, sizeof line, "  %-15s  %-5" PRIu64 "  %-11s  %.*s\n",
                  bucket_range_label(i).c_str(), size_calls[i],
                  format_duration_us(size_time[i]).c_str(), bar > 0 ? bar : 1,
                  "########################");
    out << line;
  }
  if (unfingerprinted_calls > 0) {
    std::snprintf(line, sizeof line, "  %-15s  %-5" PRIu64 "  %s\n",
                  "(no fingerprint)", unfingerprinted_calls,
                  format_duration_us(unfingerprinted_time).c_str());
    out << line;
  }

  // SAT time by strategy arm.
  struct ArmCost {
    std::uint64_t calls = 0;
    std::uint64_t time_us = 0;
  };
  std::map<std::uint8_t, ArmCost> arms;
  for (const SatCallRecord& call : report.calls) {
    if (!call.has_fingerprint) continue;
    ArmCost& cost = arms[call.strategy_arm];
    cost.calls += 1;
    cost.time_us += call.dur_us;
  }
  if (!arms.empty()) {
    out << "\nSAT time by strategy arm:\n";
    out << "  arm              calls  time\n";
    for (const auto& [arm, cost] : arms) {
      std::snprintf(line, sizeof line, "  %-15s  %-5" PRIu64 "  %s\n",
                    arm_label(arm, options).c_str(), cost.calls,
                    format_duration_us(cost.time_us).c_str());
      out << line;
    }
  }

  // SAT time by phase (the phase open when the call was journaled).
  std::array<ArmCost, kNumPhases> phase_cost{};
  for (const SatCallRecord& call : report.calls) {
    if (call.phase >= kNumPhases) continue;
    phase_cost[call.phase].calls += 1;
    phase_cost[call.phase].time_us += call.dur_us;
  }
  out << "\nSAT time by phase:\n";
  out << "  phase            calls  time\n";
  for (std::size_t phase = 0; phase < kNumPhases; ++phase) {
    if (phase_cost[phase].calls == 0) continue;
    std::snprintf(line, sizeof line, "  %-15s  %-5" PRIu64 "  %s\n",
                  phase_name(static_cast<PhaseId>(phase)),
                  phase_cost[phase].calls,
                  format_duration_us(phase_cost[phase].time_us).c_str());
    out << line;
  }

  // Restart timeline of the hardest cone that restarted at all.
  for (const SatCallRecord* call : ranked) {
    if (call->restarts == 0) continue;
    std::snprintf(line, sizeof line,
                  "\nrestart timeline of the hardest restarting cone %s "
                  "(%" PRIu64 " restarts):\n",
                  call_target(*call).c_str(), call->restarts);
    out << line;
    out << "  restart  conflicts  learnt-db\n";
    constexpr int kMaxRows = 24;
    int rows = 0;
    for (const SolverRestartRecord& restart : report.restart_timeline) {
      if (restart.a != call->a || restart.b != call->b ||
          restart.output_proof != call->output_proof)
        continue;
      if (rows >= kMaxRows) {
        out << "  ...\n";
        break;
      }
      std::snprintf(line, sizeof line,
                    "  %-7" PRIu64 "  %-9" PRIu64 "  %" PRIu64 "\n",
                    restart.ordinal, restart.conflicts, restart.learnt_db);
      out << line;
      ++rows;
    }
    break;
  }
}

}  // namespace simgen::obs
