//===--- ArenaRefCheck.h - simgen-tidy -----------------------------------===//
//
// simgen-arena-ref: the packed clause arena (sat::ClauseRef,
// sat::ClauseArena) is a solver-internal representation; code outside
// src/sat must go through the Solver public API.
//
//===----------------------------------------------------------------------===//
#ifndef SIMGEN_TIDY_ARENA_REF_CHECK_H
#define SIMGEN_TIDY_ARENA_REF_CHECK_H

#include "clang-tidy/ClangTidyCheck.h"

namespace simgen_tidy {

/// Clause storage is a packed arena addressed by 32-bit refs whose
/// meaning changes on every garbage collection: a ClauseRef held across
/// solver calls dangles silently (the slot is reused, not poisoned), and
/// any learnt-DB reduction may trigger a collection. Inside src/sat the
/// invariants are local and audited; any other layer naming
/// sat::ClauseRef or sat::ClauseArena is reaching into that
/// representation and gets flagged. Use the Solver
/// API (add_clause, solve, model_value, stats) instead, or extend it.
class ArenaRefCheck : public clang::tidy::ClangTidyCheck {
 public:
  ArenaRefCheck(llvm::StringRef Name, clang::tidy::ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  bool isLanguageVersionSupported(
      const clang::LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(clang::ast_matchers::MatchFinder *Finder) override;
  void check(
      const clang::ast_matchers::MatchFinder::MatchResult &Result) override;
};

}  // namespace simgen_tidy

#endif  // SIMGEN_TIDY_ARENA_REF_CHECK_H
