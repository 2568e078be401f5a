#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/journal.hpp"
#include "sat/proof.hpp"

namespace simgen::sat {
namespace {

// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::uint64_t{1} << seq;
}

constexpr std::uint64_t kRestartBase = 100;

}  // namespace

SolverStats::SolverStats(obs::register_t)
    : solve_calls("sat.solve_calls"),
      conflicts("sat.conflicts"),
      decisions("sat.decisions"),
      propagations("sat.propagations"),
      restarts("sat.restarts"),
      learned_clauses("sat.learned_clauses"),
      deleted_clauses("sat.deleted_clauses"),
      db_reductions("sat.db_reductions") {}

Solver::Solver() = default;

Var Solver::new_var() {
  const Var var = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  phase_.push_back(false);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  heap_position_.push_back(kNotInHeap);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  heap_insert(var);
  return var;
}

ClauseRef Solver::install_clause(std::span<const Lit> literals, bool learnt) {
  const ClauseRef ref = arena_.alloc(literals, learnt);
  (learnt ? learnt_clauses_ : problem_clauses_).push_back(ref);
  attach_clause(ref);
  return ref;
}

void Solver::attach_clause(ClauseRef ref) {
  const Lit l0 = arena_.lit(ref, 0);
  const Lit l1 = arena_.lit(ref, 1);
  if (arena_.size(ref) == 2) {
    bin_watches_[(~l0).code()].push_back(BinWatcher{l1, ref});
    bin_watches_[(~l1).code()].push_back(BinWatcher{l0, ref});
  } else {
    watches_[(~l0).code()].push_back(Watcher{ref, l1});
    watches_[(~l1).code()].push_back(Watcher{ref, l0});
  }
}

void Solver::detach_clause(ClauseRef ref) {
  const Lit l0 = arena_.lit(ref, 0);
  const Lit l1 = arena_.lit(ref, 1);
  if (arena_.size(ref) == 2) {
    for (const Lit watched : {l0, l1}) {
      auto& list = bin_watches_[(~watched).code()];
      const auto it = std::find_if(
          list.begin(), list.end(),
          [&](const BinWatcher& watcher) { return watcher.ref == ref; });
      assert(it != list.end());
      *it = list.back();
      list.pop_back();
    }
  } else {
    for (const Lit watched : {l0, l1}) {
      auto& list = watches_[(~watched).code()];
      const auto it = std::find_if(
          list.begin(), list.end(),
          [&](const Watcher& watcher) { return watcher.clause == ref; });
      assert(it != list.end());
      *it = list.back();
      list.pop_back();
    }
  }
}

void Solver::delete_clause(ClauseRef ref) {
  if (proof_) {
    lits_scratch_.clear();
    arena_.copy_lits(ref, lits_scratch_);
    proof_->on_delete(lits_scratch_);
  }
  detach_clause(ref);
  arena_.free(ref);
}

void Solver::compact_clause_lists() {
  const auto drop_garbage = [&](std::vector<ClauseRef>& list) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](ClauseRef ref) { return arena_.garbage(ref); }),
               list.end());
  };
  drop_garbage(problem_clauses_);
  drop_garbage(learnt_clauses_);
}

void Solver::garbage_collect() {
  compact_clause_lists();
  ClauseArena to;
  to.reserve_words(arena_.size_words() - arena_.wasted_words());
  for (auto& list : bin_watches_)
    for (auto& watcher : list) arena_.reloc(watcher.ref, to);
  for (auto& list : watches_)
    for (auto& watcher : list) arena_.reloc(watcher.clause, to);
  for (const Lit lit : trail_) {
    ClauseRef& reason = reason_[lit.var()];
    if (reason == kNoReason) continue;
    // A level-0 propagation no longer needs its reason clause: enqueue
    // logged it as a unit lemma and analyze never expands level 0. So a
    // reason that has been deleted is simply dropped.
    if (arena_.garbage(reason)) {
      reason = kNoReason;
      continue;
    }
    arena_.reloc(reason, to);
  }
  for (ClauseRef& ref : problem_clauses_) arena_.reloc(ref, to);
  for (ClauseRef& ref : learnt_clauses_) arena_.reloc(ref, to);
  arena_ = std::move(to);
}

void Solver::garbage_collect_if_needed() {
  if (arena_.size_words() > 4096 &&
      arena_.wasted_words() * 4 > arena_.size_words())
    garbage_collect();
}

bool Solver::add_clause(std::span<const Lit> literals) {
  if (!ok_) return false;
  backtrack(0);
  if (proof_) proof_->on_axiom(literals);

  // Normalize: sort, drop duplicates and level-0 false literals, detect
  // tautologies and level-0 satisfied clauses.
  std::vector<Lit> lits(literals.begin(), literals.end());
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> cleaned;
  cleaned.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit lit = lits[i];
    if (i > 0 && lit == lits[i - 1]) continue;
    if (i > 0 && lit == ~lits[i - 1]) return true;  // tautology
    const LBool lit_value = value(lit);
    if (lit_value == LBool::kTrue) return true;  // satisfied at level 0
    if (lit_value == LBool::kFalse) continue;    // falsified at level 0
    cleaned.push_back(lit);
  }

  // The clause the solver actually stores is the simplified one. When
  // simplification removed literals, the stored clause is a derived fact
  // (RUP over the axiom plus the level-0 units), so it goes in the proof.
  if (proof_ && cleaned.size() != literals.size()) proof_->on_lemma(cleaned);

  if (cleaned.empty()) {
    ok_ = false;
    return false;
  }
  if (cleaned.size() == 1) {
    enqueue(cleaned[0], kNoReason);
    ok_ = (propagate() == kNoReason);
    if (!ok_ && proof_) proof_->on_lemma({});
    return ok_;
  }
  install_clause(cleaned, /*learnt=*/false);
  return true;
}

void Solver::enqueue(Lit lit, ClauseRef reason) {
  assert(value(lit) == LBool::kUndef);
  assigns_[lit.var()] = lit.negated() ? LBool::kFalse : LBool::kTrue;
  level_[lit.var()] = decision_level();
  reason_[lit.var()] = reason;
  trail_.push_back(lit);
  // A literal propagated at level 0 is permanent, but its derivation is
  // only as durable as the reason clause. Materialize it as a unit lemma
  // (RUP via the reason clause plus earlier root units) so later RUP
  // checks never depend on that clause staying in the database.
  if (proof_ != nullptr && reason != kNoReason && decision_level() == 0) {
    const Lit unit[1] = {lit};
    proof_->on_lemma(std::span<const Lit>(unit, 1));
  }
}

ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    stats_.propagations.inc();

    // Binary implication graph first: each edge is 8 bytes in the watch
    // list itself, so binary propagation (and binary conflicts) never
    // touch clause memory.
    for (const BinWatcher& watcher : bin_watches_[p.code()]) {
      const LBool v = value(watcher.other);
      if (v == LBool::kFalse) {
        propagate_head_ = trail_.size();
        return watcher.ref;
      }
      if (v == LBool::kUndef) enqueue(watcher.other, watcher.ref);
    }

    auto& watch_list = watches_[p.code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const Watcher watcher = watch_list[i];
      // Blocker shortcut: clause already satisfied.
      if (value(watcher.blocker) == LBool::kTrue) {
        watch_list[keep++] = watcher;
        continue;
      }
      const ClauseRef ref = watcher.clause;
      // Put the falsified literal at position 1.
      const Lit false_lit = ~p;
      if (arena_.lit(ref, 0) == false_lit) arena_.swap_lits(ref, 0, 1);
      assert(arena_.lit(ref, 1) == false_lit);
      // First watch satisfied?
      const Lit first = arena_.lit(ref, 0);
      if (first != watcher.blocker && value(first) == LBool::kTrue) {
        watch_list[keep++] = Watcher{ref, first};
        continue;
      }
      // Look for a replacement watch.
      const std::uint32_t size = arena_.size(ref);
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit candidate = arena_.lit(ref, k);
        if (value(candidate) != LBool::kFalse) {
          arena_.swap_lits(ref, 1, k);
          watches_[(~candidate).code()].push_back(Watcher{ref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      watch_list[keep++] = watcher;
      if (value(first) == LBool::kFalse) {
        // Conflict: salvage the remaining watchers and report.
        for (std::size_t k = i + 1; k < watch_list.size(); ++k)
          watch_list[keep++] = watch_list[k];
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return ref;
      }
      enqueue(first, ref);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt_out,
                     unsigned& backtrack_level) {
  learnt_out.clear();
  learnt_out.push_back(Lit{});  // slot for the asserting literal
  unsigned counter = 0;
  Lit p{};
  bool p_valid = false;
  std::size_t trail_index = trail_.size();

  ClauseRef reason = conflict;
  do {
    assert(reason != kNoReason);
    if (arena_.learnt(reason)) bump_clause(reason);
    const std::uint32_t size = arena_.size(reason);
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit q = arena_.lit(reason, i);
      // Skip the literal whose reason we are expanding (clause order in
      // the arena is arbitrary for binary reasons).
      if (p_valid && q.var() == p.var()) continue;
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      seen_[q.var()] = true;
      analyze_clear_.push_back(q);
      bump_var(q.var());
      if (level_[q.var()] >= decision_level()) {
        ++counter;
      } else {
        learnt_out.push_back(q);
      }
    }
    // Next literal on the trail that participates in the conflict.
    while (!seen_[trail_[trail_index - 1].var()]) --trail_index;
    p = trail_[--trail_index];
    p_valid = true;
    seen_[p.var()] = false;
    reason = reason_[p.var()];
    --counter;
  } while (counter > 0);
  learnt_out[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt_out.size(); ++i)
    abstract_levels |= 1u << (level_[learnt_out[i].var()] & 31u);
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt_out.size(); ++i) {
    if (reason_[learnt_out[i].var()] == kNoReason ||
        !literal_redundant(learnt_out[i], abstract_levels))
      learnt_out[kept++] = learnt_out[i];
  }
  learnt_out.resize(kept);

  // Compute the backtrack level and move its literal to position 1.
  if (learnt_out.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_index = 1;
    for (std::size_t i = 2; i < learnt_out.size(); ++i)
      if (level_[learnt_out[i].var()] > level_[learnt_out[max_index].var()])
        max_index = i;
    std::swap(learnt_out[1], learnt_out[max_index]);
    backtrack_level = level_[learnt_out[1].var()];
  }

  for (Lit lit : analyze_clear_) seen_[lit.var()] = false;
  analyze_clear_.clear();
}

bool Solver::literal_redundant(Lit lit, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(lit);
  const std::size_t clear_mark = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit current = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason_[current.var()] != kNoReason);
    const ClauseRef reason = reason_[current.var()];
    const std::uint32_t size = arena_.size(reason);
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit q = arena_.lit(reason, i);
      if (q.var() == current.var()) continue;
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      if (reason_[q.var()] == kNoReason ||
          ((1u << (level_[q.var()] & 31u)) & abstract_levels) == 0) {
        // Cannot be resolved away: undo the marks added by this check.
        for (std::size_t k = clear_mark; k < analyze_clear_.size(); ++k)
          seen_[analyze_clear_[k].var()] = false;
        analyze_clear_.resize(clear_mark);
        return false;
      }
      seen_[q.var()] = true;
      analyze_clear_.push_back(q);
      analyze_stack_.push_back(q);
    }
  }
  return true;
}

void Solver::backtrack(unsigned target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t lim = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > lim;) {
    const Var var = trail_[i].var();
    phase_[var] = assigns_[var] == LBool::kTrue;
    assigns_[var] = LBool::kUndef;
    reason_[var] = kNoReason;
    if (!heap_contains(var)) heap_insert(var);
  }
  trail_.resize(lim);
  trail_lim_.resize(target_level);
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch_literal() {
  while (!heap_.empty()) {
    const Var var = heap_pop();
    if (assigns_[var] == LBool::kUndef)
      return Lit(var, !phase_[var]);
  }
  return Lit::from_code(~std::uint32_t{0} - 1);  // sentinel: all assigned
}

void Solver::reduce_learnt_db() {
  const std::size_t size_before = learnt_clauses_.size();
  // Delete the least active half of learnt clauses, sparing reasons of
  // current assignments and binary clauses.
  std::sort(learnt_clauses_.begin(), learnt_clauses_.end(),
            [&](ClauseRef a, ClauseRef b) {
              return arena_.activity(a) < arena_.activity(b);
            });
  const auto is_locked = [&](ClauseRef ref) {
    const Lit first = arena_.lit(ref, 0);
    return value(first) == LBool::kTrue && reason_[first.var()] == ref;
  };
  std::size_t kept = 0;
  const std::size_t target_deletions = learnt_clauses_.size() / 2;
  std::size_t deleted = 0;
  for (std::size_t i = 0; i < learnt_clauses_.size(); ++i) {
    const ClauseRef ref = learnt_clauses_[i];
    if (deleted < target_deletions && arena_.size(ref) > 2 &&
        !is_locked(ref)) {
      delete_clause(ref);
      ++deleted;
      stats_.deleted_clauses.inc();
    } else {
      learnt_clauses_[kept++] = ref;
    }
  }
  learnt_clauses_.resize(kept);
  stats_.db_reductions.inc();
  garbage_collect_if_needed();
#ifndef SIMGEN_NO_TELEMETRY
  emit_introspection_reduce(deleted, size_before, kept);
#else
  (void)size_before;
#endif
}

void Solver::bump_var(Var var) {
  activity_[var] += var_activity_increment_;
  if (activity_[var] > 1e100) {
    for (auto& activity : activity_) activity *= 1e-100;
    var_activity_increment_ *= 1e-100;
  }
  if (heap_contains(var)) heap_sift_up(heap_position_[var]);
}

void Solver::bump_clause(ClauseRef ref) {
  const float updated =
      arena_.activity(ref) + static_cast<float>(clause_activity_increment_);
  arena_.set_activity(ref, updated);
  if (updated > 1e20f) {
    for (ClauseRef learnt : learnt_clauses_)
      arena_.set_activity(learnt, arena_.activity(learnt) * 1e-20f);
    clause_activity_increment_ *= 1e-20;
  }
}

void Solver::heap_insert(Var var) {
  heap_position_[var] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(var);
  heap_sift_up(heap_.size() - 1);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_position_[top] = kNotInHeap;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_position_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(std::size_t index) {
  const Var var = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[var]) break;
    heap_[index] = heap_[parent];
    heap_position_[heap_[index]] = static_cast<std::uint32_t>(index);
    index = parent;
  }
  heap_[index] = var;
  heap_position_[var] = static_cast<std::uint32_t>(index);
}

void Solver::heap_sift_down(std::size_t index) {
  const Var var = heap_[index];
  while (true) {
    std::size_t child = 2 * index + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]])
      ++child;
    if (activity_[heap_[child]] <= activity_[var]) break;
    heap_[index] = heap_[child];
    heap_position_[heap_[index]] = static_cast<std::uint32_t>(index);
    index = child;
  }
  heap_[index] = var;
  heap_position_[var] = static_cast<std::uint32_t>(index);
}

Result Solver::search() {
  std::uint64_t restart_count = 0;
  std::uint64_t conflicts_until_restart = kRestartBase * luby(restart_count);
  std::uint64_t conflicts_since_restart = 0;
  std::vector<Lit> learnt;

  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      stats_.conflicts.inc();
      ++conflicts_this_solve_;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        // Refuted outright: the empty clause is propagation-derivable.
        if (proof_) proof_->on_lemma({});
        ok_ = false;
        return Result::kUnsat;
      }

      unsigned backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
#ifndef SIMGEN_NO_TELEMETRY
      // level_[] of the learnt literals is still valid here (backtrack
      // has not run), which is exactly when LBD is defined. Its only
      // reader is the journal's kSolverSolveStats rollup.
      if (probe_active_ && obs::journal_enabled()) {
        const unsigned lbd = compute_introspection_lbd(learnt);
        ++lbd_count_this_solve_;
        lbd_sum_this_solve_ += lbd;
        if (lbd > lbd_max_this_solve_) lbd_max_this_solve_ = lbd;
      }
#endif
      if (proof_) proof_->on_lemma(learnt);
      // Never undo assumption levels beyond what the learnt clause allows:
      // backtrack_level may land inside the assumption prefix, which is
      // fine — assumptions are re-enqueued by the decision loop below.
      backtrack(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef ref = install_clause(learnt, /*learnt=*/true);
        bump_clause(ref);
        enqueue(learnt[0], ref);
      }
      stats_.learned_clauses.inc();
      decay_var_activity();
      decay_clause_activity();
      // Budget check on the conflict path too: a chain of consecutive
      // conflicts (propagate -> conflict -> backjump -> propagate ->
      // conflict ...) never reaches the no-conflict check below and would
      // otherwise overshoot the limit unboundedly. The learnt clause is
      // still recorded first, so an interrupted solve leaves a consistent
      // proof log.
      if (conflict_limit_ != 0 && conflicts_this_solve_ >= conflict_limit_) {
#ifndef SIMGEN_NO_TELEMETRY
        emit_introspection_budget();
#endif
        return Result::kUnknown;
      }
      continue;
    }

    // No conflict.
    if (conflict_limit_ != 0 && conflicts_this_solve_ >= conflict_limit_) {
#ifndef SIMGEN_NO_TELEMETRY
      emit_introspection_budget();
#endif
      return Result::kUnknown;
    }
    if (conflicts_since_restart >= conflicts_until_restart) {
      stats_.restarts.inc();
      ++restart_count;
      conflicts_since_restart = 0;
      conflicts_until_restart = kRestartBase * luby(restart_count);
      backtrack(0);
#ifndef SIMGEN_NO_TELEMETRY
      ++restarts_this_solve_;
      emit_introspection_restart(restarts_this_solve_);
#endif
      continue;
    }
    if (decision_level() == 0 && learnt_clauses_.size() >= max_learnt_)
      reduce_learnt_db();

    // Establish assumptions first, one decision level each.
    if (decision_level() < assumptions_.size()) {
      const Lit assumption = assumptions_[decision_level()];
      const LBool assumption_value = value(assumption);
      if (assumption_value == LBool::kFalse) return Result::kUnsat;
      trail_lim_.push_back(trail_.size());
      if (assumption_value == LBool::kUndef) enqueue(assumption, kNoReason);
      continue;
    }

    const Lit branch = pick_branch_literal();
    if (branch.code() == ~std::uint32_t{0} - 1) return Result::kSat;
    stats_.decisions.inc();
    trail_lim_.push_back(trail_.size());
    enqueue(branch, kNoReason);
  }
}

Result Solver::solve(std::span<const Lit> assumptions) {
  stats_.solve_calls.inc();
  if (!ok_) return Result::kUnsat;

  backtrack(0);
  assumptions_.assign(assumptions.begin(), assumptions.end());
  conflicts_this_solve_ = 0;
#ifndef SIMGEN_NO_TELEMETRY
  restarts_this_solve_ = 0;
  lbd_count_this_solve_ = 0;
  lbd_sum_this_solve_ = 0;
  lbd_max_this_solve_ = 0;
#endif
  max_learnt_ = std::max<std::size_t>(1000, problem_clauses_.size() / 3);

  const Result result = search();
#ifndef SIMGEN_NO_TELEMETRY
  emit_introspection_solve_stats();
#endif
  // Undo the search decisions only. The assumption levels stay on the
  // trail until the next add_clause or solve backtracks to level 0, which
  // re-inserts their variables into the VSIDS heap after the variables
  // the next call creates. Backtracking to 0 here would insert them first
  // and change the branching order, and with it the sweep's SAT counts.
  const unsigned keep = std::min(
      decision_level(), static_cast<unsigned>(assumptions_.size()));
  backtrack(keep);
  return result;
}

#ifndef SIMGEN_NO_TELEMETRY

void Solver::set_introspection_context(std::uint64_t a, std::uint64_t b,
                                       bool output_proof) noexcept {
  probe_a_ = a;
  probe_b_ = b;
  probe_flags_ = output_proof ? 1 : 0;
  probe_active_ = true;
}

void Solver::clear_introspection_context() noexcept { probe_active_ = false; }

unsigned Solver::compute_introspection_lbd(std::span<const Lit> learnt) {
  // Stamp-per-level distinct count: no clearing between conflicts, one
  // pass over the (small) learnt clause.
  ++lbd_stamp_;
  unsigned lbd = 0;
  for (const Lit lit : learnt) {
    const unsigned lvl = level_[lit.var()];
    if (lvl >= lbd_mark_.size()) lbd_mark_.resize(lvl + 1, 0);
    if (lbd_mark_[lvl] != lbd_stamp_) {
      lbd_mark_[lvl] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::emit_introspection_restart(std::uint64_t ordinal) {
  if (!probe_active_ || !obs::journal_enabled()) return;
  obs::journal_emit(obs::EventKind::kSolverRestart, 0, probe_a_, probe_b_,
                    ordinal, conflicts_this_solve_, learnt_clauses_.size(), 0,
                    0, probe_flags_);
}

void Solver::emit_introspection_reduce(std::uint64_t deleted,
                                       std::uint64_t before,
                                       std::uint64_t after) {
  if (!probe_active_ || !obs::journal_enabled()) return;
  obs::journal_emit(obs::EventKind::kSolverReduce, 0, probe_a_, probe_b_,
                    deleted, before, after, 0, 0, probe_flags_);
}

void Solver::emit_introspection_budget() {
  if (!probe_active_ || !obs::journal_enabled()) return;
  obs::journal_emit(obs::EventKind::kSolverBudget, 0, probe_a_, probe_b_,
                    conflict_limit_, conflicts_this_solve_, 0, 0, 0,
                    probe_flags_);
}

void Solver::emit_introspection_solve_stats() {
  if (!probe_active_ || !obs::journal_enabled()) return;
  obs::journal_emit(obs::EventKind::kSolverSolveStats, 0, probe_a_, probe_b_,
                    lbd_count_this_solve_, lbd_sum_this_solve_,
                    lbd_max_this_solve_, restarts_this_solve_, 0,
                    probe_flags_);
}

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace simgen::sat
