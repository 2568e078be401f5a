#include "check/drat.hpp"

#include <algorithm>

namespace simgen::check {

using sat::Lit;
using sat::Var;

DratStats::DratStats(obs::register_t)
    : axioms("drat.axioms"),
      lemmas("drat.lemmas"),
      deletions("drat.deletions"),
      certified_targets("drat.certified_targets"),
      failed_targets("drat.failed_targets"),
      checked_lemmas("drat.checked_lemmas"),
      skipped_lemmas("drat.skipped_lemmas"),
      checkpointed_lemmas("drat.checkpointed_lemmas"),
      rup_checks("drat.rup_checks"),
      propagations("drat.propagations") {}

DratChecker::DratChecker() = default;

std::vector<Lit> DratChecker::normalize(std::span<const Lit> clause,
                                        bool& tautology) {
  std::vector<Lit> lits(clause.begin(), clause.end());
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  tautology = false;
  for (std::size_t i = 1; i < lits.size(); ++i)
    if (lits[i] == ~lits[i - 1]) tautology = true;
  return lits;
}

std::uint64_t DratChecker::hash_lits(std::span<const Lit> lits) {
  // Order-independent: propagation permutes stored clauses in place to
  // maintain the watch invariant, so by deletion time a clause's literal
  // order no longer matches its activation-time (sorted) order. Summing
  // per-literal mixes keeps the hash stable under permutation.
  std::uint64_t hash = 0x9e3779b97f4a7c15ull + lits.size();
  for (Lit lit : lits) {
    std::uint64_t x = lit.code() + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    hash += x ^ (x >> 31);
  }
  return hash;
}

bool DratChecker::same_clause(std::span<const Lit> stored,
                              std::span<const Lit> sorted_lits) {
  // \p stored may be an arbitrary permutation of its normalized form;
  // \p sorted_lits comes straight from normalize().
  if (stored.size() != sorted_lits.size()) return false;
  std::vector<Lit> copy(stored.begin(), stored.end());
  std::sort(copy.begin(), copy.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  return std::equal(copy.begin(), copy.end(), sorted_lits.begin(),
                    sorted_lits.end());
}

void DratChecker::ensure_var(Var var) {
  if (var < values_.size()) return;
  values_.resize(var + 1, LValue::kUndef);
  if (watches_.size() < 2 * values_.size()) watches_.resize(2 * values_.size());
}

DratChecker::ClauseId DratChecker::store(std::span<const Lit> clause) {
  // normalize() sets the flag, so it must run before the flag is read.
  bool tautology = false;
  std::vector<Lit> lits = normalize(clause, tautology);
  const auto id = static_cast<ClauseId>(db_.size());
  for (Lit lit : lits) ensure_var(lit.var());
  db_.push_back(Clause{std::move(lits), /*active=*/false, tautology});
  return id;
}

void DratChecker::activate(ClauseId id) {
  Clause& clause = db_[id];
  if (clause.tautology || clause.active) return;
  clause.active = true;
  index_.emplace(hash_lits(clause.lits), id);
  if (clause.lits.empty()) {
    ++empty_active_;
    return;
  }
  attach(id);
}

void DratChecker::deactivate(ClauseId id) {
  Clause& clause = db_[id];
  if (clause.tautology || !clause.active) return;
  clause.active = false;
  const auto [begin, end] = index_.equal_range(hash_lits(clause.lits));
  for (auto it = begin; it != end; ++it) {
    if (it->second == id) {
      index_.erase(it);
      break;
    }
  }
  if (clause.lits.empty()) {
    --empty_active_;
    return;
  }
  // The root may rest on this clause. Units and seeds are removed lazily:
  // their scans skip inactive entries.
  if (clause.trusted) root_stale_ = true;
  detach(id);
}

void DratChecker::attach(ClauseId id) {
  auto& lits = db_[id].lits;
  std::size_t open = 0;
  for (std::size_t k = 0; k < lits.size() && open < 2; ++k)
    if (lit_value(lits[k]) != LValue::kFalse) std::swap(lits[open++], lits[k]);
  if (open < 2) seeds_.push_back(id);
  if (lits.size() < 2) return;
  watches_[lits[0].code()].push_back(id);
  watches_[lits[1].code()].push_back(id);
}

void DratChecker::detach(ClauseId id) {
  const auto& lits = db_[id].lits;
  if (lits.size() < 2) return;
  for (int w = 0; w < 2; ++w) {
    auto& list = watches_[lits[w].code()];
    const auto it = std::find(list.begin(), list.end(), id);
    if (it != list.end()) {
      *it = list.back();
      list.pop_back();
    }
  }
}

void DratChecker::add_axiom(std::span<const Lit> clause) {
  stats_.axioms.inc();
  const ClauseId id = store(clause);
  activate(id);
  journal_.push_back({JournalEntry::Kind::kAxiom, id});
}

void DratChecker::add_lemma(std::span<const Lit> clause) {
  stats_.lemmas.inc();
  const ClauseId id = store(clause);
  activate(id);
  journal_.push_back({JournalEntry::Kind::kLemma, id});
}

void DratChecker::delete_clause(std::span<const Lit> clause) {
  stats_.deletions.inc();
  bool tautology = false;
  const std::vector<Lit> lits = normalize(clause, tautology);
  const auto [begin, end] = index_.equal_range(hash_lits(lits));
  for (auto it = begin; it != end; ++it) {
    const ClauseId id = it->second;
    if (same_clause(db_[id].lits, lits)) {
      deactivate(id);
      journal_.push_back({JournalEntry::Kind::kDelete, id});
      return;
    }
  }
  // Deleting a clause that is not in the database: corrupted proof.
  corrupt_ = true;
}

DratChecker::LValue DratChecker::lit_value(Lit lit) const {
  if (lit.var() >= values_.size()) return LValue::kUndef;
  const LValue v = values_[lit.var()];
  if (v == LValue::kUndef) return LValue::kUndef;
  return (v == LValue::kTrue) != lit.negated() ? LValue::kTrue : LValue::kFalse;
}

bool DratChecker::assign(Lit lit) {
  const LValue v = lit_value(lit);
  if (v == LValue::kTrue) return true;
  if (v == LValue::kFalse) return false;
  ensure_var(lit.var());
  values_[lit.var()] = lit.negated() ? LValue::kFalse : LValue::kTrue;
  trail_.push_back(lit);
  return true;
}

bool DratChecker::propagate_to_conflict() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    stats_.propagations.inc();
    // Clauses watching ~p just lost that watch literal.
    auto& watch_list = watches_[(~p).code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const ClauseId id = watch_list[i];
      auto& lits = db_[id].lits;
      // Put the falsified literal at position 1.
      if (lits[0] == ~p) std::swap(lits[0], lits[1]);
      if (lit_value(lits[0]) == LValue::kTrue) {
        watch_list[keep++] = id;
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (lit_value(lits[k]) != LValue::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[lits[1].code()].push_back(id);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      watch_list[keep++] = id;
      if (!assign(lits[0])) {
        for (std::size_t k = i + 1; k < watch_list.size(); ++k)
          watch_list[keep++] = watch_list[k];
        watch_list.resize(keep);
        return true;
      }
    }
    watch_list.resize(keep);
  }
  return false;
}

void DratChecker::undo_to_root() {
  for (std::size_t i = root_size_; i < trail_.size(); ++i)
    values_[trail_[i].var()] = LValue::kUndef;
  trail_.resize(root_size_);
  propagate_head_ = root_size_;
}

bool DratChecker::assign_seeds() {
  for (const ClauseId id : seeds_)
    if (db_[id].active && !assign(db_[id].lits[0])) return true;
  return false;
}

void DratChecker::recompute_root() {
  // Every clause that is not trusted is a pending addition; none of them
  // may propagate into the root.
  std::vector<ClauseId> pending;
  for (const JournalEntry entry : journal_)
    if (entry.kind != JournalEntry::Kind::kDelete && db_[entry.clause].active)
      pending.push_back(entry.clause);
  for (const ClauseId id : pending) detach(id);
  seeds_.clear();

  for (const Lit lit : trail_) values_[lit.var()] = LValue::kUndef;
  trail_.clear();
  propagate_head_ = 0;
  root_conflict_ = false;
  for (const ClauseId id : units_) {
    if (db_[id].active && !assign(db_[id].lits[0])) {
      root_conflict_ = true;
      break;
    }
  }
  if (!root_conflict_) root_conflict_ = propagate_to_conflict();
  root_size_ = trail_.size();
  root_stale_ = false;
  for (const ClauseId id : pending) attach(id);
}

void DratChecker::commit() {
  for (const JournalEntry entry : journal_) {
    if (entry.kind == JournalEntry::Kind::kDelete) continue;
    Clause& clause = db_[entry.clause];
    clause.trusted = true;
    if (clause.active && clause.lits.size() == 1) units_.push_back(entry.clause);
  }
  journal_.clear();

  // The newly trusted clauses were attached against the current root:
  // asserting the seeds restores the watch invariant, and propagation
  // closes the root over them. A stale root is rebuilt before the next
  // check instead, with these clauses among the trusted ones; the units
  // deleted since, now for good, leave units_ here.
  if (root_stale_) {
    std::erase_if(units_, [&](ClauseId id) { return !db_[id].active; });
  } else if (!root_conflict_) {
    root_conflict_ = assign_seeds() || propagate_to_conflict();
    root_size_ = trail_.size();
  }
  seeds_.clear();
}

bool DratChecker::rup(std::span<const Lit> lits) {
  stats_.rup_checks.inc();
  // An active empty clause refutes everything.
  if (empty_active_ > 0) return true;
  if (root_stale_) recompute_root();
  if (root_conflict_) return true;

  // Assert the negation of the candidate clause. A literal that is
  // already true (under the root, or because its complement is also in
  // the clause) gives the conflict at once.
  bool conflict = false;
  for (const Lit lit : lits) {
    if (!assign(~lit)) {
      conflict = true;
      break;
    }
  }
  if (!conflict) conflict = assign_seeds() || propagate_to_conflict();
  undo_to_root();
  return conflict;
}

bool DratChecker::certify(std::span<const Lit> target) {
  if (corrupt_) {
    stats_.failed_targets.inc();
    return false;
  }
  bool tautology = false;
  const std::vector<Lit> target_lits = normalize(target, tautology);
  const bool target_ok = tautology || rup(target_lits);

  // Backward pass: undo each pending step in reverse so every lemma is
  // RUP-checked against exactly the database it was derived from. All
  // lemmas are checked (not only a marked core), whether or not the
  // target passed, because all of them are committed as trusted axioms
  // for later incremental certify calls. A lemma that fails corrupts the
  // checker, so no later certify() can rest on it; after it, the pass
  // only unwinds state.
  for (std::size_t i = journal_.size(); i-- > 0;) {
    const JournalEntry entry = journal_[i];
    switch (entry.kind) {
      case JournalEntry::Kind::kAxiom:
        deactivate(entry.clause);
        break;
      case JournalEntry::Kind::kLemma: {
        deactivate(entry.clause);
        const Clause& clause = db_[entry.clause];
        if (clause.tautology) {
          stats_.skipped_lemmas.inc();
        } else if (!corrupt_) {
          if (rup(clause.lits)) {
            stats_.checked_lemmas.inc();
          } else {
            corrupt_ = true;
          }
        }
        break;
      }
      case JournalEntry::Kind::kDelete:
        activate(entry.clause);
        break;
    }
  }

  // Re-apply forward: the database returns to its post-proof state and
  // the pending steps become trusted.
  for (const JournalEntry entry : journal_) {
    switch (entry.kind) {
      case JournalEntry::Kind::kLemma:
        if (!corrupt_) stats_.checkpointed_lemmas.inc();
        [[fallthrough]];
      case JournalEntry::Kind::kAxiom:
        activate(entry.clause);
        break;
      case JournalEntry::Kind::kDelete:
        deactivate(entry.clause);
        break;
    }
  }
  commit();

  const bool ok = target_ok && !corrupt_;
  if (ok)
    stats_.certified_targets.inc();
  else
    stats_.failed_targets.inc();
  return ok;
}

bool Certifier::certify_unsat(std::span<const Lit> assumptions) {
  std::vector<Lit> target;
  target.reserve(assumptions.size());
  for (Lit lit : assumptions) target.push_back(~lit);
  return checker_.certify(target);
}

bool check_recorded_proof(std::span<const sat::ProofStep> steps,
                          std::span<const Lit> target, DratStats* stats) {
  DratChecker checker;
  for (const sat::ProofStep& step : steps) {
    switch (step.kind) {
      case sat::ProofStep::Kind::kAxiom:
        checker.add_axiom(step.clause);
        break;
      case sat::ProofStep::Kind::kLemma:
        checker.add_lemma(step.clause);
        break;
      case sat::ProofStep::Kind::kDelete:
        checker.delete_clause(step.clause);
        break;
    }
  }
  const bool ok = checker.certify(target);
  if (stats != nullptr) *stats = checker.stats();
  return ok;
}

}  // namespace simgen::check
