//===--- SimGenTidyModule.cpp - simgen-tidy ------------------------------===//
//
// Registers the SimGen-specific clang-tidy checks. Built as an
// out-of-tree plugin and loaded into a stock clang-tidy:
//
//   clang-tidy --load=SimGenTidyModule.so --checks='simgen-*' file.cpp -- ...
//
// The plugin links no LLVM/Clang libraries; every symbol resolves from
// the hosting clang-tidy binary, which is why the plugin must be built
// against the headers of the same clang-tidy major version that loads it
// (the CI leg pins both to one toolchain).
//
//===----------------------------------------------------------------------===//
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

#include "ArenaRefCheck.h"
#include "IdTypeMixingCheck.h"
#include "NoNakedMutexCheck.h"
#include "PatternScopeCheck.h"

namespace simgen_tidy {

class SimGenTidyModule : public clang::tidy::ClangTidyModule {
 public:
  void addCheckFactories(
      clang::tidy::ClangTidyCheckFactories &Factories) override {
    Factories.registerCheck<ArenaRefCheck>("simgen-arena-ref");
    Factories.registerCheck<IdTypeMixingCheck>("simgen-id-type-mixing");
    Factories.registerCheck<NoNakedMutexCheck>("simgen-no-naked-mutex");
    Factories.registerCheck<PatternScopeCheck>("simgen-pattern-scope");
  }
};

}  // namespace simgen_tidy

namespace clang::tidy {

static ClangTidyModuleRegistry::Add<simgen_tidy::SimGenTidyModule> X(
    "simgen-module", "SimGen equivalence-checker specific checks.");

// Referenced by the plugin loader to keep the registration object alive.
volatile int SimGenTidyModuleAnchorSource = 0;

}  // namespace clang::tidy
